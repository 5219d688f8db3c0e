"""Sparse visual-contrastive decode loop.

Per generated token: the primary branch runs calibrated (sinking-attention)
sparse (visual-aware top-S) attention through the model; the contrastive
branch stochastically masks the visual tokens and sends embeddings through
the LM head (optionally after a few decoder layers); an adaptive plausibility
constraint restricts fusion; the fused logits drive greedy argmax or beam
search. Fully deterministic given the configured seeds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from sparsevcd.cache import KvCache, MergedRecord
from sparsevcd.config import DecodeConfig, SparsifyConfig
from sparsevcd.errors import ConfigError
from sparsevcd.models import ImageDescriptor, ModelInterface
from sparsevcd.numerics import NEG_INF, matvec, stable_softmax, weighted_sum_rows
from sparsevcd.rng import SplitMix64, combine, step_seed
from sparsevcd.vats import (SaliencyScores, cluster_pruned, layer_visual_saliency,
                            merge_clusters, select_topS, visual_saliency)

_MASK_SALT = 0x4D41_534B


def mask_visual(embeddings, rate: float, seed: int):
    """Independently drop each visual embedding with probability ``rate``.

    Returns the kept rows as an ``(m, d)`` block and their indices. At least
    one embedding always survives: after a bounded number of re-draws a
    deterministic single survivor is kept (this is the only possible outcome
    at rate = 1).
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if len(embeddings) == 0:
        raise ValueError("mask_visual: no visual embeddings")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mask_visual: rate must lie in [0, 1]")
    n = len(embeddings)
    if rate == 0.0:
        return embeddings, list(range(n))
    for attempt in range(16):
        stream = SplitMix64(combine(seed, _MASK_SALT, attempt))
        kept = [i for i in range(n) if stream.uniform() >= rate]
        if kept:
            return embeddings[kept], kept
    survivor = combine(seed, _MASK_SALT, 0xFEED) % n
    return embeddings[[survivor]], [survivor]


def plausible_set(p_theta, gamma: float) -> np.ndarray:
    """Adaptive plausibility constraint: tokens whose primary-branch
    probability reaches ``gamma`` times the maximum."""
    p = np.asarray(p_theta, dtype=np.float64)
    if p.shape[0] == 0:
        raise ValueError("plausible_set: empty distribution")
    return p >= gamma * np.max(p)


def fuse(logit_theta, logit_phi, alpha: float, plausible: np.ndarray) -> np.ndarray:
    """Contrastive fusion ``(alpha + 1) * logit_theta - alpha * logit_phi``
    restricted to the plausible set (-inf elsewhere)."""
    lt = np.asarray(logit_theta, dtype=np.float64)
    plausible = np.asarray(plausible, dtype=bool)
    if plausible.shape != lt.shape:
        raise ValueError("fuse: plausible mask length mismatch")
    out = np.full(lt.shape, NEG_INF)
    if alpha == 0.0:
        out[plausible] = lt[plausible]
        return out
    lp = np.asarray(logit_phi, dtype=np.float64)
    if lp.shape != lt.shape:
        raise ValueError("fuse: logit length mismatch")
    out[plausible] = (alpha + 1.0) * lt[plausible] - alpha * lp[plausible]
    return out


def _block(embs, d_model: int) -> np.ndarray:
    """Embedding rows as an ``(n, d_model)`` array (``(0, d_model)`` if none)."""
    block = np.asarray(embs, dtype=np.float64)
    return block.reshape(0, d_model) if block.size == 0 else block


def contrastive_logits(model: ModelInterface, prompt_block, visual_embeddings,
                       history_ids, stop_layer: int = 0,
                       pooling: str = "mean") -> np.ndarray:
    """Contrastive-branch logits via the LM-head shortcut.

    ``prompt_block`` is the embedded prompt, one row per token (an
    ``(n, d_model)`` array or a list of rows). The kept visual embeddings,
    the prompt and the embedded history are joined into one block;
    ``stop_layer = 0`` pools that block and applies the head directly;
    ``stop_layer > 0`` first runs it through the leading decoder layers
    (models without decoder layers always take the direct path).
    """
    d = model.d_model
    embs = np.concatenate([_block(visual_embeddings, d), _block(prompt_block, d),
                           _block(model.embed_text(history_ids), d)])
    if stop_layer > 0 and hasattr(model, "forward_sequence"):
        hiddens = model.forward_sequence(embs, stop_layer)
        pooled = model.pool_embeddings(hiddens, pooling)
    else:
        pooled = model.pool_embeddings(embs, pooling)
    return model.lm_head(pooled)


@dataclass
class FusedStep:
    """Full per-step fusion record (diagnostic ``full`` mode only)."""

    logit_theta: np.ndarray
    logit_phi: np.ndarray | None
    plausible: np.ndarray
    fused: np.ndarray
    chosen: int


@dataclass
class StepDiagnostics:
    step: int
    chosen: int
    is_eos: bool
    p_theta_chosen: float
    p_theta_max: float
    plausible_size: int
    attn_error_mean: float
    cache_rows: int
    retained_raw: list[int]
    logit_theta_argmax: int
    fused_argmax: int
    step_seconds: float
    detail: FusedStep | None = None


@dataclass
class DecodeResult:
    tokens: list[int]
    diagnostics: list[StepDiagnostics]
    forward_records: list[dict] = field(default_factory=list)
    beam_audit: list[tuple[float, float]] = field(default_factory=list)
    peak_rows: int = 0
    memory_elements: int = 0
    wall_seconds: float = 0.0
    prefill_len: int = 0


class EngineAttention:
    """Attention policy plugged into the model's forward pass: applies
    sinking-attention calibration and per-layer visual-aware sparsification,
    and maintains the cache accumulators and diagnostics."""

    def __init__(self, cache: KvCache, model: ModelInterface, cfg: SparsifyConfig,
                 keep_records: bool = False):
        self.cache = cache
        self.model = model
        self.cfg = cfg
        n_early = max(1, math.ceil(cfg.early_layer_frac * model.layers))
        self.early_layers = list(range(min(n_early, model.layers)))
        self.keep_records = keep_records
        self.forward_records: list[dict] = []
        self.last_errors: list[float] = []
        self._errors: list[float] = []
        self._mask_snapshot: list[dict] = []
        self._rows_snapshot: list[dict] = []

    # -- plumbing used by decode -------------------------------------------

    def flush_forward(self) -> None:
        self.last_errors = self._errors
        if self.keep_records:
            self.forward_records.append({
                "errors": list(self._errors),
                "layers": self._mask_snapshot,
                "rows": self._rows_snapshot,
            })
        self._errors = []
        self._mask_snapshot = []
        self._rows_snapshot = []

    def mean_error(self) -> float:
        if not self.last_errors:
            return 0.0
        return float(sum(self.last_errors) / len(self.last_errors))

    def retained_raw(self) -> list[int]:
        out = []
        for layer in range(self.cache.layers):
            mask = self.cache.mask_view(layer)
            raw = self.cache.raw_rows(layer)
            out.append(int(mask[raw].sum()))
        return out

    # -- attention callback -------------------------------------------------

    def attend(self, layer: int, qs):
        cache, cfg = self.cache, self.cfg
        if cfg.mode == "logical":
            cache.clear_sparsification(layer)
        if cfg.sparsity_rate < 1.0 and cache.n_logical > cfg.l_min:
            planned = self._plan(layer, qs)
        else:
            planned = False
        results = []
        for h, q in enumerate(qs):
            sup = cache.support(layer, h)
            scores = matvec(sup.keys, q) / cache.sqrt_dim
            if cfg.sac_enabled and cfg.beta > 0.0:
                w = stable_softmax(sup.c)
                cal = (1.0 + cfg.beta) * scores - cfg.beta * (w * scores)
            else:
                cal = scores
            row = stable_softmax(cal)
            ctx = weighted_sum_rows(row, sup.values)
            cache.record_attention(layer, h, row, scores, sup,
                                   query_row=cache.rows(layer) - 1)
            if self.keep_records:
                vis_full = cache.visual_flags(layer)
                vis = list(vis_full[sup.raw_idx]) + [rec.visual_weight > 0.5
                                                     for rec in sup.records]
                self._rows_snapshot.append({
                    "layer": layer, "head": h,
                    "row": row.copy(), "visual": np.asarray(vis, dtype=bool),
                })
            results.append((ctx, row, sup.size))
        if planned and cfg.mode == "compacted":
            cache.compact()
        return results

    # -- sparsification planning ---------------------------------------------

    def _plan(self, layer: int, qs) -> bool:
        cache, cfg = self.cache, self.cfg
        n_rows = cache.rows(layer)
        n_raw = cache.raw_present(layer)
        budget_base = n_raw if cfg.mode == "logical" else cache.n_logical
        s_budget = int(math.ceil(cfg.sparsity_rate * budget_base))
        s_budget = min(max(s_budget, 1), n_raw)
        if cfg.mode == "compacted":
            if n_raw <= s_budget + cfg.compact_band:
                return False
        elif s_budget >= n_raw:
            return False

        raw_idx = cache.raw_rows(layer)
        heads = range(cache.heads)
        keys_full = [cache.key_rows(layer, h) for h in heads]
        ip = [matvec(keys_full[h], qs[h]) for h in heads]

        if cfg.lambda_ > 0.0 and cache.has_visual(layer):
            if cfg.mode == "logical":
                p_vec = visual_saliency(cache, self.early_layers)
            else:
                p_vec = layer_visual_saliency(cache, layer)
        else:
            p_vec = np.zeros(n_rows)

        def head_g(h: int) -> np.ndarray:
            if cfg.sac_enabled and cfg.beta > 0.0 and cfg.sac_before_vats:
                w = stable_softmax(cache.c_view(layer, h))
                cal = (1.0 + cfg.beta) * ip[h] - cfg.beta * (w * ip[h])
                return cal * cal
            return ip[h] * ip[h]

        if cfg.per_head_mask:
            any_pruned = False
            for h in heads:
                pruned = self._plan_one(layer, raw_idx, s_budget, head_g(h),
                                        p_vec, [keys_full[h]], [ip[h]], head=h)
                any_pruned = any_pruned or pruned
            return any_pruned
        g = head_g(0)
        for h in range(1, cache.heads):
            g = g + head_g(h)
        g = g / cache.heads
        return self._plan_one(layer, raw_idx, s_budget, g, p_vec, keys_full, ip,
                              head=None)

    def _plan_one(self, layer, raw_idx, s_budget, g, p_vec, keys_list, ip_list,
                  head) -> bool:
        cache, cfg = self.cache, self.cfg
        n_rows = cache.rows(layer)
        cand = raw_idx
        if cfg.prune_scope == "text_only":
            cand = cand[~cache.visual_flags(layer)[cand]]
        n_forced = raw_idx.shape[0] - cand.shape[0]
        retain_cand = max(0, s_budget - n_forced)
        if retain_cand >= cand.shape[0]:
            return False
        mask_full = np.ones(n_rows, dtype=bool)
        if retain_cand == 0:
            pruned = cand
        else:
            w_recent = min(cfg.w_recent, retain_cand)
            scores = SaliencyScores(g[cand], p_vec[cand], cfg.lambda_)
            sel = select_topS(scores, retain_cand, w_recent)
            pruned = cand[~sel.flags]
        if pruned.shape[0] == 0:
            return False
        mask_full[pruned] = False

        err = 0.0
        for ip in ip_list:
            contrib = ip[pruned]
            err += float(np.add.accumulate(contrib * contrib)[-1])
        self._errors.append(err / len(ip_list))

        records: list[MergedRecord] = []
        if cfg.merge_pruned:
            concat = np.hstack([k[pruned] for k in keys_list])
            delta_p = (g + cfg.lambda_ * p_vec)[pruned]
            assignment = cluster_pruned(concat, delta_p, cfg.knn_k,
                                        rho_merge=cfg.rho_merge)
            records = self._merge_records(layer, pruned, assignment, head)
        cache.set_sparsification(layer, mask_full, records, head=head)
        if self.keep_records:
            self._mask_snapshot.append({
                "layer": layer,
                "head": head,
                "retained": int(mask_full.sum()),
                "pruned": [int(i) for i in pruned],
                "clusters": len(records),
                "delta": [float(v) for v in (g + cfg.lambda_ * p_vec)],
                "visual_saliency": [float(v) for v in p_vec],
                "attn_error": self._errors[-1],
            })
        return True

    def _merge_records(self, layer, pruned, assignment, head) -> list[MergedRecord]:
        """One record per cluster, merged in one call from a table gathered
        at the pruned rows: per head its key, value, ``c`` and ``r``, then
        the visual flag. Per-head records leave other heads' slots zero."""
        cache, dim = self.cache, self.cache.dim
        width = 2 * dim + 2
        table = np.zeros((pruned.shape[0], cache.heads * width + 1))
        per_head = table[:, :-1].reshape(pruned.shape[0], cache.heads, width)
        for h in range(cache.heads) if head is None else [head]:
            per_head[:, h, :dim] = cache.key_rows(layer, h)[pruned]
            per_head[:, h, dim:-2] = cache.value_rows(layer, h)[pruned]
            per_head[:, h, -2] = cache.c_view(layer, h)[pruned]
            per_head[:, h, -1] = cache.r_view(layer, h)[pruned]
        table[:, -1] = cache.visual_flags(layer)[pruned]
        agg = merge_clusters(assignment, table)
        agg_heads = agg[:, :-1].reshape(agg.shape[0], cache.heads, width)
        return [MergedRecord(pruned[local], wts, list(a[:, :dim]), list(a[:, dim:-2]),
                             a[:, -2].tolist(), a[:, -1].tolist(), float(vis))
                for local, wts, a, vis in zip(assignment.members, assignment.weights,
                                              agg_heads, agg[:, -1])]


def _validate(model: ModelInterface, image: ImageDescriptor, prompt_ids,
              scfg: SparsifyConfig, dcfg: DecodeConfig) -> None:
    scfg.validate()
    dcfg.validate()
    if not prompt_ids:
        raise ConfigError("prompt must be non-empty")
    if dcfg.stop_layer > model.layers:
        raise ConfigError(
            f"stop_layer {dcfg.stop_layer} exceeds the model's {model.layers} layers")
    if dcfg.eos_id >= model.vocab:
        raise ConfigError("eos id outside the model vocabulary")
    if image.tokens_per_finding < 1:
        raise ConfigError("image must carry at least one token per finding")
    for t in prompt_ids:
        if not 0 <= int(t) < model.vocab:
            raise ConfigError(f"prompt token {t} outside the model vocabulary")


def _log_softmax(fused: np.ndarray) -> np.ndarray:
    finite = np.isfinite(fused)
    m = float(np.max(fused[finite]))
    e = np.exp(np.where(finite, fused - m, NEG_INF))
    logz = m + math.log(float(np.add.accumulate(e)[-1]))
    return fused - logz


def decode(model: ModelInterface, image: ImageDescriptor, prompt_ids,
           sparsify: SparsifyConfig | None = None,
           config: DecodeConfig | None = None,
           diag_level: str = "summary") -> DecodeResult:
    """Run one decode session; see the module docstring for the per-step flow.

    ``diag_level``: "summary" records per-token scalars, "full" additionally
    keeps masks, logits and fusion vectors.
    """
    scfg = sparsify if sparsify is not None else SparsifyConfig()
    dcfg = config if config is not None else DecodeConfig()
    prompt_ids = [int(t) for t in prompt_ids]
    _validate(model, image, prompt_ids, scfg, dcfg)
    t0 = time.perf_counter()
    keep_records = diag_level == "full"

    cache = model.new_cache(mode=scfg.mode,
                            accumulate_raw_scores=scfg.sac_input == "raw_scores")
    controller = EngineAttention(cache, model, scfg, keep_records=keep_records)
    # embedded once: prefill steps through these rows and every contrastive
    # call gathers from them
    vis_block = _block(model.embed_visual(image), model.d_model)
    prompt_block = _block(model.embed_text(prompt_ids), model.d_model)
    hidden = None
    for e in vis_block:
        hidden, _ = model.forward_step(cache, e, attend=controller.attend, visual=True)
        controller.flush_forward()
    for e in prompt_block:
        hidden, _ = model.forward_step(cache, e, attend=controller.attend)
        controller.flush_forward()
    prefill_len = cache.n_logical

    if dcfg.mode == "beam":
        result = _beam_decode(model, cache, controller, hidden, vis_block,
                              prompt_block, scfg, dcfg, keep_records)
    else:
        result = _greedy_decode(model, cache, controller, hidden, vis_block,
                                prompt_block, scfg, dcfg, keep_records)
    result.prefill_len = prefill_len
    result.wall_seconds = time.perf_counter() - t0
    result.memory_elements = (result.peak_rows * model.head_dim * 2
                              * model.layers * model.heads)
    return result


def _kept_visuals(vis_block: np.ndarray, dcfg: DecodeConfig, n_generated: int) -> np.ndarray:
    """The visual rows the contrastive branch keeps after ``n_generated``
    tokens: the mask is seeded by the step alone, so every hypothesis of
    that length shares it."""
    kept, _ = mask_visual(vis_block, dcfg.visual_mask_rate,
                          step_seed(dcfg.seed, n_generated))
    return kept


def _greedy_decode(model, cache, controller, hidden, vis_block, prompt_block,
                   scfg, dcfg, keep_records) -> DecodeResult:
    tokens: list[int] = []
    diags: list[StepDiagnostics] = []
    for step in range(dcfg.max_len):
        t_step = time.perf_counter()
        logit_theta = model.lm_head(hidden)
        p_theta = stable_softmax(logit_theta)
        plaus = plausible_set(p_theta, dcfg.gamma_apc)
        logit_phi = None
        if dcfg.alpha > 0.0:
            kept = _kept_visuals(vis_block, dcfg, len(tokens))
            logit_phi = contrastive_logits(model, prompt_block, kept, tokens,
                                           stop_layer=dcfg.stop_layer,
                                           pooling=dcfg.pooling)
        fused = fuse(logit_theta, logit_phi, dcfg.alpha, plaus)
        chosen = int(np.argmax(fused))
        is_eos = chosen == dcfg.eos_id
        detail = None
        if keep_records:
            detail = FusedStep(logit_theta, logit_phi, plaus, fused, chosen)
        diags.append(StepDiagnostics(
            step=step, chosen=chosen, is_eos=is_eos,
            p_theta_chosen=float(p_theta[chosen]),
            p_theta_max=float(np.max(p_theta)),
            plausible_size=int(plaus.sum()),
            attn_error_mean=controller.mean_error(),
            cache_rows=cache.max_rows(),
            retained_raw=controller.retained_raw(),
            logit_theta_argmax=int(np.argmax(logit_theta)),
            fused_argmax=chosen,
            step_seconds=time.perf_counter() - t_step,
            detail=detail,
        ))
        if is_eos:
            break
        tokens.append(chosen)
        emb = model.embed_text([chosen])[0]
        hidden, _ = model.forward_step(cache, emb, attend=controller.attend)
        controller.flush_forward()
    return DecodeResult(tokens=tokens, diagnostics=diags,
                        forward_records=controller.forward_records,
                        peak_rows=cache.peak_rows)


@dataclass
class _Beam:
    cache: KvCache
    controller: EngineAttention
    hidden: np.ndarray
    tokens: list[int]
    score: float
    finished: bool
    diags: list[StepDiagnostics]


def _beam_decode(model, cache, controller, hidden, vis_block, prompt_block,
                 scfg, dcfg, keep_records) -> DecodeResult:
    beams = [_Beam(cache, controller, hidden, [], 0.0, False, [])]
    audit: list[tuple[float, float]] = []
    peak_rows = cache.peak_rows
    for step in range(dcfg.max_len):
        if all(b.finished for b in beams):
            break
        # every live beam holds ``step`` tokens, so one mask serves them all
        kept_visuals = _kept_visuals(vis_block, dcfg, step) if dcfg.alpha > 0.0 else None
        candidates = []  # (score, beam_idx, token, diag)
        for bi, beam in enumerate(beams):
            if beam.finished:
                candidates.append((beam.score, bi, -1, None))
                continue
            t_beam = time.perf_counter()
            logit_theta = model.lm_head(beam.hidden)
            p_theta = stable_softmax(logit_theta)
            plaus = plausible_set(p_theta, dcfg.gamma_apc)
            logit_phi = None
            if dcfg.alpha > 0.0:
                logit_phi = contrastive_logits(model, prompt_block, kept_visuals,
                                               beam.tokens, stop_layer=dcfg.stop_layer,
                                               pooling=dcfg.pooling)
            fused = fuse(logit_theta, logit_phi, dcfg.alpha, plaus)
            log_probs = _log_softmax(fused)
            order = np.lexsort((np.arange(log_probs.shape[0]), -log_probs))
            # per-beam fields; each candidate fills in its own token
            beam_diag = StepDiagnostics(
                step=step, chosen=-1, is_eos=False, p_theta_chosen=0.0,
                p_theta_max=float(np.max(p_theta)),
                plausible_size=int(plaus.sum()),
                attn_error_mean=beam.controller.mean_error(),
                cache_rows=beam.cache.max_rows(),
                retained_raw=beam.controller.retained_raw(),
                logit_theta_argmax=int(np.argmax(logit_theta)),
                fused_argmax=int(np.argmax(fused)),
                step_seconds=time.perf_counter() - t_beam,
            )
            for t in order[: dcfg.beam_size]:
                t = int(t)
                if not np.isfinite(log_probs[t]):
                    continue
                diag = replace(beam_diag, chosen=t, is_eos=t == dcfg.eos_id,
                               p_theta_chosen=float(p_theta[t]))
                candidates.append((beam.score + float(log_probs[t]), bi, t, diag))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        kept = candidates[: dcfg.beam_size]
        dropped = candidates[dcfg.beam_size:]
        if dropped:
            audit.append((min(c[0] for c in kept), max(c[0] for c in dropped)))
        # the parent's cache is dead after this step: its last kept child
        # takes it over, and only the earlier siblings clone it
        last_child = {bi: i for i, (_, bi, token, _) in enumerate(kept) if token != -1}
        new_beams = []
        for i, (score, bi, token, diag) in enumerate(kept):
            parent = beams[bi]
            if token == -1:
                new_beams.append(parent)
                continue
            new_cache = parent.cache if last_child[bi] == i else parent.cache.clone()
            new_controller = EngineAttention(new_cache, model, scfg,
                                             keep_records=False)
            if token == dcfg.eos_id:
                new_beams.append(_Beam(new_cache, new_controller, parent.hidden,
                                       list(parent.tokens), score, True,
                                       parent.diags + [diag]))
                continue
            emb = model.embed_text([token])[0]
            new_hidden, _ = model.forward_step(new_cache, emb,
                                               attend=new_controller.attend)
            new_controller.flush_forward()
            peak_rows = max(peak_rows, new_cache.peak_rows)
            new_beams.append(_Beam(new_cache, new_controller, new_hidden,
                                   parent.tokens + [token], score, False,
                                   parent.diags + [diag]))
        beams = new_beams
    winner = min(range(len(beams)), key=lambda i: (-beams[i].score, i))
    best = beams[winner]
    peak_rows = max(peak_rows, max(b.cache.peak_rows for b in beams))
    return DecodeResult(tokens=best.tokens, diagnostics=best.diags,
                        forward_records=[], beam_audit=audit,
                        peak_rows=peak_rows)
