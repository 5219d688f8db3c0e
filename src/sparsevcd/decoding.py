"""Sparse visual-contrastive decode loop.

Per generated token: the primary branch runs calibrated (sinking-attention)
sparse (visual-aware top-S) attention through the model; the contrastive
branch stochastically masks the visual tokens and sends embeddings through
the LM head (optionally after a few decoder layers); an adaptive plausibility
constraint restricts fusion; the fused logits drive one search loop over a
list of beams, of which greedy argmax is width 1. Fully deterministic given
the configured seeds.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from sparsevcd.cache import Attention, KvCache, MergedRecords
from sparsevcd.config import IMAGE_BLOCK_MAX, DecodeConfig, SparsifyConfig
from sparsevcd.errors import ConfigError
from sparsevcd.models import ImageDescriptor, ModelInterface
from sparsevcd.numerics import NEG_INF, matvec, stable_softmax
from sparsevcd.rng import SplitMix64, combine, step_seed
from sparsevcd.sac import calibrate_scores
from sparsevcd.vats import (SaliencySums, attention_error, cluster_pruned,
                            layer_visual_saliency, merge_clusters, pairwise_distances,
                            select_topS, visual_saliency)

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
    return p >= gamma * p.max()


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


def contrastive_logits(model: ModelInterface, prompt_block, visual_embeddings,
                       history_ids, stop_layer: int = 0,
                       pooling: str = "mean") -> np.ndarray:
    """Contrastive-branch logits via the LM-head shortcut.

    ``prompt_block`` and ``visual_embeddings`` are ``(n, d_model)``
    embedding blocks. The kept visual embeddings, the prompt and the
    embedded history are joined into one block;
    ``stop_layer = 0`` pools that block and applies the head directly;
    ``stop_layer > 0`` first runs it through the leading decoder layers.
    """
    embs = np.concatenate([visual_embeddings, prompt_block, model.embed_text(history_ids)])
    if stop_layer > 0:
        hiddens = model.forward_sequence(embs, stop_layer)
        pooled = model.pool_embeddings(hiddens, pooling)
    else:
        pooled = model.pool_embeddings(embs, pooling)
    return model.lm_head(pooled)


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
    logit_theta: np.ndarray    # the primary-branch logits the step scored

    def as_record(self) -> dict:
        """The step as the diagnostics files write it: every field but the
        argmaxes, the timing and the logits."""
        return {k: getattr(self, k) for k in (
            "step", "chosen", "is_eos", "p_theta_chosen", "p_theta_max",
            "plausible_size", "attn_error_mean", "cache_rows", "retained_raw")}


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


class _DistanceTable:
    """``pairwise_distances`` between a layer's rows, over every head's keys
    head-major or over one head's, grown as rows arrive.

    For logical mode only: there rows never move and a row's key never
    changes, so an entry is filled once and any pruned set's matrix is a
    gather. Capacity doubles, so a table holds up to ``(2n)**2`` floats.
    """

    def __init__(self):
        self.n = 0
        self.d = np.empty((0, 0))

    def fork(self) -> "_DistanceTable":
        twin = _DistanceTable()
        twin.n = self.n
        twin.d = np.empty_like(self.d)
        twin.d[: self.n, : self.n] = self.d[: self.n, : self.n]
        return twin

    def gather(self, cols: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The distances among columns ``idx`` of the ``(features, n)``
        block ``cols``, after filling the rows added since the last call."""
        n0, n = self.n, cols.shape[1]
        if n > self.d.shape[0]:
            grown = np.empty((max(n, 2 * self.d.shape[0]),) * 2)
            grown[:n0, :n0] = self.d[:n0, :n0]
            self.d = grown
        if n > n0:
            fresh = pairwise_distances(cols, n0)
            self.d[n0:n, :n] = fresh
            self.d[:n0, n0:n] = fresh[:, :n0].T
            self.n = n
        # one flat take over computed offsets: fewer index passes than a
        # 2-d fancy index
        return self.d.take(idx[:, None] * self.d.shape[0] + idx)


class EngineAttention:
    """Attention policy plugged into the model's forward pass: applies
    sinking-attention calibration and per-layer visual-aware sparsification,
    and maintains the cache accumulators and diagnostics.

    A forward calls ``attend`` once per layer in layer order, so the layer-0
    call opens the forward's diagnostics: ``errors`` restarts, and with
    ``keep_records`` a new ``forward_records`` entry begins, the forward's
    only full record: its plans, and per layer and head the attention row
    the cache accumulated, with the support's visual flags. A layer's plan
    is built whole, shared or one row per head, and installed with one
    ``set_sparsification`` call. In logical mode the merge's distances come
    from one ``_DistanceTable`` per layer (per layer and head with per-head
    masks), and the saliency from row sums kept across plans
    (``vats.SaliencySums``).
    """

    def __init__(self, cache: KvCache, cfg: SparsifyConfig, keep_records: bool = False):
        self.cache = cache
        self.cfg = cfg
        n_early = max(1, math.ceil(cfg.early_layer_frac * cache.layers))
        self.early_layers = list(range(min(n_early, cache.layers)))
        self.keep_records = keep_records
        self.forward_records: list[dict] = []
        self.errors: list[float] = []  # the attention errors of the latest forward
        self.tables: dict[tuple[int, int | None], _DistanceTable] = {}
        self.saliency = SaliencySums()

    # -- plumbing used by decode -------------------------------------------

    def fork(self) -> "EngineAttention":
        """A controller over a clone of the cache, keeping the records,
        distance tables and saliency sums so far."""
        twin = EngineAttention(self.cache.clone(), self.cfg, self.keep_records)
        twin.forward_records = list(self.forward_records)
        twin.tables = {key: table.fork() for key, table in self.tables.items()}
        twin.saliency = self.saliency.fork()
        return twin

    def mean_error(self) -> float:
        return float(sum(self.errors) / len(self.errors)) if self.errors else 0.0

    def retained_raw(self) -> list[int]:
        """Per layer, the raw rows each head keeps (as many for every head)."""
        return [self.cache.retained_raw(layer) for layer in range(self.cache.layers)]

    # -- attention callback -------------------------------------------------

    def attend(self, layer: int, q) -> Attention:
        cache, cfg = self.cache, self.cfg
        if layer == 0:
            self.errors = []
            if self.keep_records:
                self.forward_records.append({"errors": self.errors, "layers": [], "rows": []})
        if cfg.mode == "logical":
            cache.clear_sparsification(layer)
        planned = cfg.sparsity_rate < 1.0 and cache.n_logical > cfg.l_min and self._plan(layer, q)
        att = cache.attend(layer, q, beta=cfg.beta)
        if self.keep_records:
            vis = att.support.visual > 0.5
            self.forward_records[-1]["rows"].extend(
                {"layer": layer, "head": h, "row": row, "visual": vis[h % vis.shape[0]]}
                for h, row in enumerate(att.rows))
        if planned and cfg.mode == "compacted":
            cache.compact()
        return att

    # -- sparsification planning ---------------------------------------------

    def _plan(self, layer: int, q) -> bool:
        """Build the layer's plan whole, one mask row scored over every head
        or one per head, and install it in one call."""
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

        # the candidate rows: every row, unless the scope or aggregates
        # leave some out
        every = cfg.prune_scope == "full" and n_raw == n_rows
        cand = None
        if not every:
            cand = cache.raw_rows(layer)
            if cfg.prune_scope == "text_only":
                cand = cand[~cache.visual_flags(layer)[cand]]
        n_cand = n_rows if every else cand.shape[0]
        retain_cand = max(0, s_budget - (n_raw - n_cand))
        if retain_cand >= n_cand:
            return False
        w_recent = min(cfg.w_recent, retain_cand)

        keys = cache.key_block(layer)
        ip = matvec(keys, q)   # (H, rows) unscaled inner products

        if cfg.lambda_ > 0.0 and cache.has_visual(layer):
            if cfg.mode == "logical":
                p_vec = visual_saliency(cache, self.early_layers, self.saliency)
            else:
                p_vec = layer_visual_saliency(cache, layer)
        else:
            p_vec = np.zeros(n_rows)

        cal = ip
        if cfg.beta > 0.0 and cfg.sac_before_vats:
            cal = calibrate_scores(ip, stable_softmax(cache.c_block(layer)), cfg.beta)
        g = cal * cal

        # one row of g per mask row; the budget and candidates are the
        # layer's. The head mean sums the heads in order: a plan has two
        # rows or more, so a reduction over the leading axis adds one head
        # to every row per pass, and its +0.0 start changes no square
        if not cfg.per_head_mask:
            g = np.add.reduce(g, axis=0, keepdims=True)
            g /= cache.heads
        masks, records = [], []
        for r, g_row in enumerate(g):
            head = r if cfg.per_head_mask else None
            heads = slice(0, cache.heads) if head is None else slice(head, head + 1)
            delta = cfg.lambda_ * p_vec
            delta += g_row
            if every:
                keep = select_topS(delta, retain_cand, w_recent)
                pruned = (~keep).nonzero()[0]
            else:
                keep = np.ones(n_rows, dtype=bool)
                pruned = cand if retain_cand == 0 else cand[
                    ~select_topS(delta[cand], retain_cand, w_recent)]
                keep[pruned] = False
            masks.append(keep)
            self.errors.append(attention_error(ip[heads], pruned))

            rec = None
            if cfg.merge_pruned:
                # a view with one column per row and head-major features:
                # head 0's key, then head 1's, ...
                cols = keys[heads].transpose(0, 2, 1).reshape(-1, n_rows)
                if cfg.mode == "logical":
                    table = self.tables.get((layer, head))
                    if table is None:
                        table = self.tables[layer, head] = _DistanceTable()
                    dist = table.gather(cols, pruned)
                else:
                    # np.take keeps the gather C-ordered (a fancy index gives
                    # an F-ordered block, which the kernel reads 2x slower)
                    dist = pairwise_distances(np.take(cols, pruned, axis=1))
                assignment = cluster_pruned(dist, delta[pruned], cfg.knn_k,
                                            rho_merge=cfg.rho_merge, precomputed=True)
                rec = MergedRecords(pruned[assignment.members], assignment.sizes,
                                    assignment.weights,
                                    merge_clusters(assignment, cache.gather(layer, pruned)).T)
            records.append(rec)
            if self.keep_records:
                self.forward_records[-1]["layers"].append({
                    "layer": layer,
                    "head": head,
                    "retained": int(np.count_nonzero(keep)),
                    "pruned": [int(i) for i in pruned],
                    "clusters": 0 if rec is None else len(rec),
                    "delta": [float(v) for v in delta],
                    "visual_saliency": [float(v) for v in p_vec],
                    "attn_error": self.errors[-1],
                })
        if cfg.per_head_mask:
            cache.set_sparsification(layer, np.stack(masks), records)
        else:
            cache.set_sparsification(layer, masks[0], records[0])
        return True


def _validate(model: ModelInterface, image: ImageDescriptor, prompt_ids,
              scfg: SparsifyConfig, dcfg: DecodeConfig) -> None:
    scfg.validate()
    dcfg.validate()
    if not prompt_ids:
        raise ConfigError("prompt must be non-empty")
    # the contrastive branch runs its stop layers through forward_sequence
    layers = model.layers if hasattr(model, "forward_sequence") else 0
    if dcfg.stop_layer > layers:
        raise ConfigError(
            f"stop_layer {dcfg.stop_layer} exceeds the model's {layers} decoder layers")
    if dcfg.eos_id >= model.vocab:
        raise ConfigError("eos id outside the model vocabulary")
    for t in prompt_ids:
        if not 0 <= int(t) < model.vocab:
            raise ConfigError(f"prompt token {t} outside the model vocabulary")
    for f in image.finding_ids:
        if not 0 <= int(f) < model.vocab:
            raise ConfigError(f"image finding id {f} outside the model vocabulary")
    if image.n_tokens * model.d_model > IMAGE_BLOCK_MAX:
        raise ConfigError(f"image's embedded block of {image.n_tokens} x {model.d_model} "
                          f"floats exceeds {IMAGE_BLOCK_MAX}")


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

    ``diag_level``: "summary" records per-token scalars and logits, "full"
    additionally keeps every forward's plans and attention rows
    (``forward_records``).
    """
    scfg = sparsify if sparsify is not None else SparsifyConfig()
    dcfg = config if config is not None else DecodeConfig()
    prompt_ids = [int(t) for t in prompt_ids]
    if diag_level not in ("summary", "full"):
        raise ConfigError(f"diag_level must be 'summary' or 'full', got {diag_level!r}")
    _validate(model, image, prompt_ids, scfg, dcfg)
    t0 = time.perf_counter()

    cache = model.new_cache(mode=scfg.mode,
                            accumulate_raw_scores=scfg.sac_input == "raw_scores")
    controller = EngineAttention(cache, scfg, keep_records=diag_level == "full")
    # embedded once: prefill steps through these rows and every contrastive
    # call gathers from them
    vis_block = model.embed_visual(image)
    prompt_block = model.embed_text(prompt_ids)
    # only the final prompt row's hidden state is read
    last = len(vis_block) + len(prompt_block) - 1
    for i, e in enumerate(itertools.chain(vis_block, prompt_block)):
        hidden = model.forward_step(cache, e, attend=controller.attend,
                                    visual=i < len(vis_block), hidden=i == last)
    prefill_len = cache.n_logical

    result = _search(model, controller, hidden, vis_block, prompt_block, dcfg)
    result.prefill_len = prefill_len
    result.wall_seconds = time.perf_counter() - t0
    result.memory_elements = (result.peak_rows * model.head_dim * 2
                              * model.layers * model.heads)
    return result


@dataclass
class _Beam:
    controller: EngineAttention
    hidden: np.ndarray
    tokens: list[int]
    diags: list[StepDiagnostics]
    score: float = 0.0
    finished: bool = False


def _search(model, controller, hidden, vis_block, prompt_block, dcfg) -> DecodeResult:
    """The step loop over a list of beams; greedy decoding is width 1.

    Every live beam fuses its primary and contrastive logits on its
    plausible set. When candidates compete (width > 1), each beam proposes
    its ``width`` best tokens by fused log-probability, ties to the lower
    id, and the ``width`` best hypotheses survive. A lone candidate is never
    ranked: at width 1 the token is ``argmax(fused)``.
    """
    width = dcfg.beam_size if dcfg.mode == "beam" else 1
    beams = [_Beam(controller, hidden, [], [])]
    audit: list[tuple[float, float]] = []
    peak_rows = controller.cache.peak_rows
    for step in range(dcfg.max_len):
        kept_visuals = None
        candidates = []  # (score, beam index, token, scoring); -1 carries a finished beam
        for bi, beam in enumerate(beams):
            if beam.finished:
                candidates.append((beam.score, bi, -1, None))
                continue
            t0 = time.perf_counter()
            logit_theta = model.lm_head(beam.hidden)
            p_theta = stable_softmax(logit_theta)
            plaus = plausible_set(p_theta, dcfg.gamma_apc)
            logit_phi = None
            if dcfg.alpha > 0.0:
                if kept_visuals is None:
                    # the mask is seeded by the step alone and every live
                    # beam holds ``step`` tokens, so one mask serves them all
                    kept_visuals, _ = mask_visual(vis_block, dcfg.visual_mask_rate,
                                                  step_seed(dcfg.seed, step))
                logit_phi = contrastive_logits(model, prompt_block, kept_visuals,
                                               beam.tokens, stop_layer=dcfg.stop_layer,
                                               pooling=dcfg.pooling)
            fused = fuse(logit_theta, logit_phi, dcfg.alpha, plaus)
            top = int(fused.argmax())
            scored = (logit_theta, p_theta, plaus, top, time.perf_counter() - t0)
            if width == 1:
                candidates.append((beam.score, bi, top, scored))
                continue
            log_probs = _log_softmax(fused)
            order = np.lexsort((np.arange(log_probs.shape[0]), -log_probs))
            for t in order[:width]:
                t = int(t)
                if np.isfinite(log_probs[t]):
                    candidates.append((beam.score + float(log_probs[t]), bi, t, scored))
        # the parent's state is dead after this step: its last kept child
        # takes it over in place, and only the earlier siblings fork it (a
        # lone candidate is its parent's last child)
        last_child = {}
        if width > 1:
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
            if len(candidates) > width:
                audit.append((min(c[0] for c in candidates[:width]),
                              max(c[0] for c in candidates[width:])))
                del candidates[width:]
            last_child = {c[1]: i for i, c in enumerate(candidates) if c[2] != -1}
        new_beams, live = [], False
        for i, (score, bi, token, scored) in enumerate(candidates):
            parent = beams[bi]
            if token == -1:
                new_beams.append(parent)
                continue
            # built once per kept candidate, from its parent's scoring and state
            logit_theta, p_theta, plaus, top, seconds = scored
            ctl = parent.controller
            diag = StepDiagnostics(
                step=step, chosen=token, is_eos=token == dcfg.eos_id,
                p_theta_chosen=float(p_theta[token]),
                p_theta_max=float(p_theta.max()),
                plausible_size=int(np.count_nonzero(plaus)),
                attn_error_mean=ctl.mean_error(),
                cache_rows=ctl.cache.max_rows(),
                retained_raw=ctl.retained_raw(),
                logit_theta_argmax=int(logit_theta.argmax()),
                fused_argmax=top,
                step_seconds=seconds,
                logit_theta=logit_theta,
            )
            if last_child.get(bi, i) == i:
                child = parent
                child.diags.append(diag)
            else:
                child = _Beam(ctl.fork(), parent.hidden, list(parent.tokens),
                              parent.diags + [diag])
            child.score = score
            if diag.is_eos:
                child.finished = True
            else:
                live = True
                child.tokens.append(token)
                child.hidden = model.forward_step(child.controller.cache,
                                                  model.embed_text([token])[0],
                                                  attend=child.controller.attend)
                peak_rows = max(peak_rows, child.controller.cache.peak_rows)
            new_beams.append(child)
        beams = new_beams
        if not live:
            break
    best = min(beams, key=lambda b: -b.score)  # the first beam on ties
    return DecodeResult(tokens=best.tokens, diagnostics=best.diags,
                        forward_records=best.controller.forward_records,
                        beam_audit=audit, peak_rows=peak_rows)
