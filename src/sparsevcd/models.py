"""Desk-scale scoring models.

Two implementations of the model contract:

* ``ToyTransformer`` — a seeded, deterministic multimodal pre-norm transformer
  (multi-head attention + ReLU feed-forward, fixed RMS normalisation, no
  learned norm parameters, no biases, no positional encoding). Used for
  identity/invariant tests and timing benchmarks.
* ``PlantedPriorComposer`` — an analytic surrogate whose finding logits are
  ``a_vis * frac_visible(y) + b_prior * prior(y) + noise``, built so that
  contrastive fusion provably amplifies the visual-evidence term.

All model state is immutable after construction; a decode session owns its
own cache and passes it in.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from sparsevcd.cache import KvCache
from sparsevcd.config import ModelConfig
from sparsevcd.errors import ConfigError
from sparsevcd.numerics import (causal_softmax, causal_weighted_sum, matvec,
                                matvec_rows, weighted_sum_rows)
from sparsevcd.rng import SplitMix64, combine

RMS_EPS = 1e-12
_VISUAL_SALT = 0x5649_5355
_NOISE_SALT = 0x4E4F_4953


def rms_normalize(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x) + RMS_EPS)


def rms_normalize_rows(x: np.ndarray) -> np.ndarray:
    """``rms_normalize`` applied to each row of a 2-d block."""
    return x / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + RMS_EPS)


@dataclass(frozen=True)
class ImageDescriptor:
    """Synthetic image: a set of finding ids, each depicted by a fixed number
    of visual tokens."""

    finding_ids: tuple[int, ...]
    tokens_per_finding: int = 3

    def __post_init__(self):
        if not self.finding_ids:
            raise ValueError("image must contain at least one finding")
        if self.tokens_per_finding < 1:
            raise ValueError("tokens_per_finding must be positive")

    @property
    def n_tokens(self) -> int:
        return len(self.finding_ids) * self.tokens_per_finding


class ModelInterface(abc.ABC):
    """Contract any scoring model implements.

    ``forward_step`` is deterministic given the cache contents and input;
    ``lm_head`` is a pure function of its argument.
    """

    layers: int
    heads: int
    head_dim: int
    d_model: int
    vocab: int

    @abc.abstractmethod
    def embed_text(self, token_ids) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def embed_visual(self, img: ImageDescriptor) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def forward_step(self, cache: KvCache, emb: np.ndarray, attend=None,
                     visual: bool = False):
        """Process one input embedding against the cache.

        ``attend``: optional callable ``(layer, qs) -> [(ctx, row, size)]``
        supplied by the decode engine to apply sparsification/calibration;
        when omitted, plain cache-masked attention is used and the attention
        rows are folded into the cache accumulators here.

        Returns ``(hidden, rows)`` with ``rows[layer][head]`` the attention
        row over that head's support.
        """

    @abc.abstractmethod
    def lm_head(self, pooled: np.ndarray) -> np.ndarray: ...

    def pool_embeddings(self, embs: list[np.ndarray], mode: str = "mean") -> np.ndarray:
        if len(embs) == 0:
            raise ValueError("cannot pool an empty embedding sequence")
        if mode == "last":
            return embs[-1]
        if mode == "mean":
            stack = np.asarray(embs)
            return np.add.accumulate(stack, axis=0)[-1] / float(len(embs))
        raise ConfigError(f"unknown pooling mode {mode!r}")

    def new_cache(self, mode: str = "logical", accumulate_raw_scores: bool = False) -> KvCache:
        return KvCache(self.layers, self.heads, self.head_dim, mode,
                       accumulate_raw_scores)

    def _plain_attend(self, cache: KvCache, layer: int, qs: list[np.ndarray]):
        out = []
        for h, q in enumerate(qs):
            sup = cache.support(layer, h)
            row, scores = cache.masked_attention(layer, h, q)
            ctx = weighted_sum_rows(row, sup.values)
            cache.record_attention(layer, h, row, scores, sup,
                                   query_row=cache.rows(layer) - 1)
            out.append((ctx, row, sup.size))
        return out


class ToyTransformer(ModelInterface):
    """Deterministic seeded multimodal transformer.

    All weights are drawn from a single SplitMix64 stream mapped to
    uniform(-1/sqrt(d_model), +1/sqrt(d_model)); the draw order is fixed
    (embedding table, then per layer: per-head W_q, W_k, W_v, W_o, then the
    feed-forward pair, finally the unembedding), so a seed pins every bit.
    """

    def __init__(self, seed: int, d_model: int = 16, layers: int = 2,
                 heads: int = 2, vocab: int = 64):
        if d_model <= 0 or layers <= 0 or heads <= 0 or vocab <= 0:
            raise ConfigError("model dimensions must be positive")
        if vocab < 8:
            raise ConfigError("vocab must be at least 8")
        if d_model % heads != 0:
            raise ConfigError("d_model must be divisible by heads")
        self.seed = seed
        self.d_model = d_model
        self.layers = layers
        self.heads = heads
        self.head_dim = d_model // heads
        self.vocab = vocab
        self.d_ff = 4 * d_model

        rng = SplitMix64(seed)
        bound = 1.0 / np.sqrt(d_model)

        def draw(shape):
            flat = np.array([rng.uniform_in(-bound, bound)
                             for _ in range(int(np.prod(shape)))])
            return flat.reshape(shape)

        self.embedding = draw((vocab, d_model))
        self.w_q, self.w_k, self.w_v, self.w_o = [], [], [], []
        self.w_ff1, self.w_ff2 = [], []
        for _ in range(layers):
            self.w_q.append([draw((self.head_dim, d_model)) for _ in range(heads)])
            self.w_k.append([draw((self.head_dim, d_model)) for _ in range(heads)])
            self.w_v.append([draw((self.head_dim, d_model)) for _ in range(heads)])
            self.w_o.append([draw((d_model, self.head_dim)) for _ in range(heads)])
            self.w_ff1.append(draw((self.d_ff, d_model)))
            self.w_ff2.append(draw((d_model, self.d_ff)))
        self.unembedding = draw((vocab, d_model))

    def weight_checksum(self) -> float:
        parts = [self.embedding, self.unembedding]
        for ell in range(self.layers):
            parts.extend(self.w_q[ell] + self.w_k[ell] + self.w_v[ell] + self.w_o[ell])
            parts.extend([self.w_ff1[ell], self.w_ff2[ell]])
        return float(sum(np.abs(p).sum() for p in parts))

    def embed_text(self, token_ids) -> list[np.ndarray]:
        out = []
        for t in token_ids:
            t = int(t)
            if not 0 <= t < self.vocab:
                raise ValueError(f"token id {t} outside vocabulary of size {self.vocab}")
            out.append(self.embedding[t].copy())
        return out

    def visual_base_embedding(self, finding_id: int) -> np.ndarray:
        if not 0 <= finding_id < self.vocab:
            raise ValueError(f"finding id {finding_id} outside vocabulary")
        rng = SplitMix64(combine(self.seed, _VISUAL_SALT, finding_id))
        bound = 1.0 / np.sqrt(self.d_model)
        return np.array([rng.uniform_in(-bound, bound) for _ in range(self.d_model)])

    def embed_visual(self, img: ImageDescriptor) -> list[np.ndarray]:
        out = []
        for f in img.finding_ids:
            base = self.visual_base_embedding(f)
            for _ in range(img.tokens_per_finding):
                out.append(base.copy())
        return out

    def forward_step(self, cache: KvCache, emb: np.ndarray, attend=None,
                     visual: bool = False):
        x = np.asarray(emb, dtype=np.float64)
        if x.shape != (self.d_model,):
            raise ValueError(f"embedding dim {x.shape} != d_model {self.d_model}")
        all_rows = []
        for ell in range(self.layers):
            xn = rms_normalize(x)
            qs = []
            for h in range(self.heads):
                q = matvec(self.w_q[ell][h], xn)
                k = matvec(self.w_k[ell][h], xn)
                v = matvec(self.w_v[ell][h], xn)
                cache.append(ell, h, k, v, visual=visual)
                qs.append(q)
            if attend is not None:
                results = attend(ell, qs)
            else:
                results = self._plain_attend(cache, ell, qs)
            attn_out = np.zeros(self.d_model)
            layer_rows = []
            for h, (ctx, row, _size) in enumerate(results):
                attn_out += matvec(self.w_o[ell][h], ctx)
                layer_rows.append(row)
            all_rows.append(layer_rows)
            x = x + attn_out
            xn2 = rms_normalize(x)
            hidden_ff = np.maximum(matvec(self.w_ff1[ell], xn2), 0.0)
            x = x + matvec(self.w_ff2[ell], hidden_ff)
        return x, all_rows

    def forward_sequence(self, embs: list[np.ndarray], n_layers: int | None = None):
        """Plain full-attention forward of a whole embedding sequence through
        the first ``n_layers`` layers; returns the per-position hidden states
        as the rows of an ``(n, d_model)`` array.

        Cache-free: used by the contrastive shortcut's stop-layer path and by
        anything needing a from-scratch forward. Runs layer-major, each layer
        over all positions at once with causal attention; the row-batched
        kernels keep every reduction order of ``forward_step``, so row ``i``
        is bit-identical to the hidden state ``forward_step`` gives position
        ``i`` over a fresh cache.
        """
        n_layers = self.layers if n_layers is None else n_layers
        if not 0 <= n_layers <= self.layers:
            raise ConfigError(f"stop layer {n_layers} outside [0, {self.layers}]")
        n = len(embs)
        if n == 0:
            return np.zeros((0, self.d_model))
        x = np.asarray(embs, dtype=np.float64)
        if x.shape != (n, self.d_model):
            raise ValueError(f"embedding block {x.shape} != ({n}, {self.d_model})")
        scale = np.sqrt(self.head_dim)
        for ell in range(n_layers):
            xn = rms_normalize_rows(x)
            attn_out = np.zeros((n, self.d_model))
            for h in range(self.heads):
                q = matvec_rows(self.w_q[ell][h], xn)
                k = matvec_rows(self.w_k[ell][h], xn)
                v = matvec_rows(self.w_v[ell][h], xn)
                row = causal_softmax(matvec_rows(k, q) / scale)
                ctx = causal_weighted_sum(row, v)
                attn_out += matvec_rows(self.w_o[ell][h], ctx)
            x = x + attn_out
            xn2 = rms_normalize_rows(x)
            hidden_ff = np.maximum(matvec_rows(self.w_ff1[ell], xn2), 0.0)
            x = x + matvec_rows(self.w_ff2[ell], hidden_ff)
        return x

    def lm_head(self, pooled: np.ndarray) -> np.ndarray:
        pooled = np.asarray(pooled, dtype=np.float64)
        if pooled.shape != (self.d_model,):
            raise ValueError(f"lm_head: dim {pooled.shape} != d_model {self.d_model}")
        return matvec(self.unembedding, pooled)


def build_toy_transformer(seed: int, d_model: int = 16, layers: int = 2,
                          heads: int = 2, vocab: int = 64) -> ToyTransformer:
    """Construct a reproducibly seeded toy transformer."""
    return ToyTransformer(seed, d_model=d_model, layers=layers, heads=heads,
                          vocab=vocab)


class PlantedPriorComposer(ModelInterface):
    """Analytic model with a planted language prior.

    Embeddings live in a 2*vocab space: the first block carries per-finding
    visual evidence (each visual token of finding ``f`` is the indicator
    ``e_f`` scaled by 1/tokens_per_finding, so summing the visible subset
    recovers the visible fraction exactly), the second block counts text
    tokens. For a not-yet-emitted finding ``y``:

        logit(y) = a_vis * frac_visible(y) + b_prior * prior(y) + noise(y)

    Already-emitted findings are additionally suppressed so reports terminate,
    the EOS token carries a fixed logit, and all other tokens a filler logit.
    Attention is degenerate (zero queries give uniform rows), which makes the
    selection and calibration mechanisms exact no-ops on this model.
    """

    def __init__(self, vocab: int, finding_ids, prior, a_vis: float = 2.0,
                 b_prior: float = 3.0, sigma: float = 0.1, seed: int = 0,
                 eos_id: int = 0, eos_logit: float = 2.1,
                 filler_logit: float = -1.0, repeat_penalty: float = 1000.0):
        if vocab < 8:
            raise ConfigError("vocab must be at least 8")
        finding_ids = [int(f) for f in finding_ids]
        if not finding_ids:
            raise ConfigError("composer needs a non-empty finding vocabulary")
        if any(not 0 <= f < vocab for f in finding_ids):
            raise ConfigError("finding ids must lie inside the vocabulary")
        if eos_id in finding_ids:
            raise ConfigError("eos id cannot be a finding id")
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape != (len(finding_ids),):
            raise ConfigError("prior must have one weight per finding id")
        if np.any(prior < 0) or not np.isclose(prior.sum(), 1.0, atol=1e-9):
            raise ConfigError("prior must be a distribution over the findings")
        self.vocab = vocab
        self.finding_ids = np.array(finding_ids, dtype=np.int64)
        self.prior = prior
        self.a_vis = a_vis
        self.b_prior = b_prior
        self.sigma = sigma
        self.seed = seed
        self.eos_id = eos_id
        self.eos_logit = eos_logit
        self.filler_logit = filler_logit
        self.repeat_penalty = repeat_penalty
        self.layers = 1
        self.heads = 1
        self.d_model = 2 * vocab
        self.head_dim = self.d_model
        self.noise = np.array([
            sigma * SplitMix64(combine(seed, _NOISE_SALT, int(f))).gauss()
            for f in finding_ids
        ])

    def prior_of(self, token_id: int) -> float:
        hits = np.nonzero(self.finding_ids == token_id)[0]
        return float(self.prior[hits[0]]) if hits.size else 0.0

    def embed_text(self, token_ids) -> list[np.ndarray]:
        out = []
        for t in token_ids:
            t = int(t)
            if not 0 <= t < self.vocab:
                raise ValueError(f"token id {t} outside vocabulary of size {self.vocab}")
            e = np.zeros(self.d_model)
            e[self.vocab + t] = 1.0
            out.append(e)
        return out

    def embed_visual(self, img: ImageDescriptor) -> list[np.ndarray]:
        out = []
        for f in img.finding_ids:
            if f not in self.finding_ids:
                raise ValueError(f"finding id {f} outside the composer's finding vocabulary")
            e = np.zeros(self.d_model)
            e[f] = 1.0 / img.tokens_per_finding
            for _ in range(img.tokens_per_finding):
                out.append(e.copy())
        return out

    def pool_embeddings(self, embs: list[np.ndarray], mode: str = "mean") -> np.ndarray:
        # sum pooling regardless of mode: the head decodes visible fractions
        # and emission counts from block sums
        if len(embs) == 0:
            raise ValueError("cannot pool an empty embedding sequence")
        stack = np.asarray(embs)
        return np.add.accumulate(stack, axis=0)[-1]

    def forward_step(self, cache: KvCache, emb: np.ndarray, attend=None,
                     visual: bool = False):
        x = np.asarray(emb, dtype=np.float64)
        if x.shape != (self.d_model,):
            raise ValueError(f"embedding dim {x.shape} != d_model {self.d_model}")
        cache.append(0, 0, x, x, visual=visual)
        q = np.zeros(self.d_model)
        if attend is not None:
            results = attend(0, [q])
        else:
            results = self._plain_attend(cache, 0, [q])
        ctx, row, size = results[0]
        hidden = ctx * float(size)
        return hidden, [[row]]

    def lm_head(self, pooled: np.ndarray) -> np.ndarray:
        pooled = np.asarray(pooled, dtype=np.float64)
        if pooled.shape != (self.d_model,):
            raise ValueError(f"lm_head: dim {pooled.shape} != d_model {self.d_model}")
        visible = pooled[: self.vocab]
        counts = pooled[self.vocab:]
        logits = np.full(self.vocab, self.filler_logit)
        logits[self.finding_ids] = (
            self.a_vis * visible[self.finding_ids]
            + self.b_prior * self.prior
            + self.noise
            - self.repeat_penalty * counts[self.finding_ids]
        )
        logits[self.eos_id] = self.eos_logit
        return logits


def default_finding_ids(n_findings: int = 16, start: int = 4) -> list[int]:
    return list(range(start, start + n_findings))


def default_prior(n_findings: int = 16, peak: float = 0.72) -> list[float]:
    """Distractor-heavy prior: the first finding takes ``peak`` mass, the rest
    share the remainder uniformly."""
    if n_findings < 2:
        raise ConfigError("need at least two findings for a planted prior")
    rest = (1.0 - peak) / (n_findings - 1)
    return [peak] + [rest] * (n_findings - 1)


def model_from_config(cfg: ModelConfig) -> ModelInterface:
    cfg.validate()
    if cfg.kind == "transformer":
        return build_toy_transformer(cfg.seed, d_model=cfg.d_model,
                                     layers=cfg.layers, heads=cfg.heads,
                                     vocab=cfg.vocab)
    finding_ids = cfg.finding_ids or default_finding_ids()
    prior = cfg.prior or default_prior(len(finding_ids))
    return PlantedPriorComposer(
        vocab=cfg.vocab, finding_ids=finding_ids, prior=prior,
        a_vis=cfg.a_vis, b_prior=cfg.b_prior, sigma=cfg.sigma, seed=cfg.seed,
        eos_logit=cfg.eos_logit, filler_logit=cfg.filler_logit,
        repeat_penalty=cfg.repeat_penalty,
    )
