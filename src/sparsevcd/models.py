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
from sparsevcd.config import IMAGE_TOKENS_MAX, ModelConfig
from sparsevcd.errors import ConfigError
from sparsevcd.numerics import _ordered_sum, causal_attention, matvec
from sparsevcd.rng import SplitMix64, combine, mix64

RMS_EPS = 1e-12
_VISUAL_SALT = 0x5649_5355
_NOISE_SALT = 0x4E4F_4953

# The composer's fixed logits: EOS sits on token 0 (the corpus layout), and an
# emitted finding is suppressed by the repeat penalty so reports terminate.
COMPOSER_EOS_ID = 0
COMPOSER_EOS_LOGIT = 2.1
COMPOSER_FILLER_LOGIT = -1.0
COMPOSER_REPEAT_PENALTY = 1000.0


def rms_normalize(x: np.ndarray) -> np.ndarray:
    """RMS-normalise a vector, or each row of a block, over the last axis (a
    vector's mean square stays a scalar, which is cheaper per token)."""
    ms = np.add.reduce(x * x, axis=-1, keepdims=x.ndim > 1) / x.shape[-1]
    return x / np.sqrt(ms + RMS_EPS)


@dataclass(frozen=True)
class ImageDescriptor:
    """Synthetic image: a set of distinct finding ids, each depicted by a
    fixed number of visual tokens, at most ``IMAGE_TOKENS_MAX`` in all."""

    finding_ids: tuple[int, ...]
    tokens_per_finding: int = 3

    def __post_init__(self):
        if not self.finding_ids:
            raise ValueError("image must contain at least one finding")
        if len(set(self.finding_ids)) != len(self.finding_ids):
            raise ValueError(f"image finding ids must be distinct, got {self.finding_ids}")
        if self.tokens_per_finding < 1:
            raise ValueError("tokens_per_finding must be positive")
        if self.n_tokens > IMAGE_TOKENS_MAX:
            raise ValueError(f"image holds {self.n_tokens} visual tokens, more than "
                             f"{IMAGE_TOKENS_MAX}")

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
    def embed_text(self, token_ids) -> np.ndarray:
        """One embedding row per token id, as an ``(n, d_model)`` block."""

    @abc.abstractmethod
    def embed_visual(self, img: ImageDescriptor) -> np.ndarray:
        """One embedding row per visual token, as an ``(n, d_model)`` block."""

    @abc.abstractmethod
    def forward_step(self, cache: KvCache, emb: np.ndarray, attend=None,
                     visual: bool = False, hidden: bool = True) -> np.ndarray | None:
        """Process one input embedding against the cache and return the
        hidden state. The toy transformer's layer is the one its
        ``forward_sequence`` runs over a block of rows, here over one token.

        ``attend`` is the attention of every layer: a callable
        ``(layer, q) -> Attention`` with ``q`` the ``(heads, head_dim)``
        query block, called once per layer in layer order after the layer's
        key and value are appended. It defaults to ``cache.attend`` (plain
        cache-masked attention, which folds its rows into the cache
        accumulators); the decode engine passes its own to apply
        sparsification and calibration.

        With ``hidden=False`` the step returns ``None`` once the last
        layer's attention has run: every append and ``attend`` call happens
        as with ``hidden=True``, so the cache and the ``attend`` callable's
        state end the same, but nothing after the last attention is
        computed. Prefill passes it for every prompt row but the last,
        whose hidden state alone is read.
        """

    @abc.abstractmethod
    def lm_head(self, pooled: np.ndarray) -> np.ndarray: ...

    def pool_embeddings(self, embs: np.ndarray, mode: str = "mean") -> np.ndarray:
        if len(embs) == 0:
            raise ValueError("cannot pool an empty embedding sequence")
        if mode == "last":
            return embs[-1]
        if mode == "mean":
            stack = np.asarray(embs)
            return _ordered_sum(-2, stack.size, stack) / float(len(embs))
        raise ConfigError(f"unknown pooling mode {mode!r}")

    def new_cache(self, accumulate_raw_scores: bool = False) -> KvCache:
        return KvCache(self.layers, self.heads, self.head_dim, accumulate_raw_scores)


class ToyTransformer(ModelInterface):
    """Deterministic seeded multimodal transformer.

    All weights are drawn from a single SplitMix64 stream mapped to
    uniform(-1/sqrt(d_model), +1/sqrt(d_model)); the draw order is fixed
    (embedding table, then per layer: per-head W_q, W_k, W_v, W_o, then the
    feed-forward pair, finally the unembedding), so a seed pins every bit.
    Each array is one block draw (``SplitMix64.uniforms``), the same bits
    as one scalar draw per weight.
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
        lo, hi = -bound, bound

        def draw(shape):
            return (lo + (hi - lo) * rng.uniforms(int(np.prod(shape)))).reshape(shape)

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
        # per layer: every head's W_q, then W_k, then W_v as one row stack
        # (each output row reduces on its own, so the bits equal per-head
        # products), and the heads' W_o as one (H, d_model, head_dim) block.
        # Products that reach numerics' einsum size (these from d_model 32)
        # are stored rows-fastest, so they need no copy to be summed in order
        self.w_qkv = [np.asfortranarray(np.vstack(self.w_q[ell] + self.w_k[ell] + self.w_v[ell]))
                      for ell in range(layers)]
        self.w_o_heads = [np.stack(self.w_o[ell]).swapaxes(1, 2).copy().swapaxes(1, 2)
                          for ell in range(layers)]
        self.w_ff1 = [np.asfortranarray(w) for w in self.w_ff1]
        self.w_ff2 = [np.asfortranarray(w) for w in self.w_ff2]
        self.unembedding = np.asfortranarray(self.unembedding)

    def embed_text(self, token_ids) -> np.ndarray:
        out = np.empty((len(token_ids), self.d_model))
        for i, t in enumerate(token_ids):
            t = int(t)
            if not 0 <= t < self.vocab:
                raise ValueError(f"token id {t} outside vocabulary of size {self.vocab}")
            out[i] = self.embedding[t]
        return out

    def visual_base_embedding(self, finding_id: int) -> np.ndarray:
        if not 0 <= finding_id < self.vocab:
            raise ValueError(f"finding id {finding_id} outside vocabulary")
        rng = SplitMix64(combine(self.seed, _VISUAL_SALT, finding_id))
        bound = 1.0 / np.sqrt(self.d_model)
        lo, hi = -bound, bound
        return lo + (hi - lo) * rng.uniforms(self.d_model)

    def embed_visual(self, img: ImageDescriptor) -> np.ndarray:
        bases = np.array([self.visual_base_embedding(f) for f in img.finding_ids])
        return np.repeat(bases, img.tokens_per_finding, axis=0)

    def forward_step(self, cache: KvCache, emb: np.ndarray, attend=None,
                     visual: bool = False, hidden: bool = True) -> np.ndarray | None:
        """Every layer on one token; with ``hidden=False`` the last layer
        stops after its attention, skipping its ``W_o`` product, head sum,
        residuals, RMS norm and feed-forward pair."""
        x = np.asarray(emb, dtype=np.float64)
        if x.shape != (self.d_model,):
            raise ValueError(f"embedding dim {x.shape} != d_model {self.d_model}")
        attend = cache.attend if attend is None else attend

        def attention(ell, q, k, v):
            cache.append(ell, k, v, visual=visual)
            return attend(ell, q).context

        return self._forward(x, self.layers, attention, hidden)

    def forward_sequence(self, embs: np.ndarray, n_layers: int | None = None):
        """Plain full-attention forward of a whole embedding sequence through
        the first ``n_layers`` layers; returns the per-position hidden states
        as the rows of an ``(n, d_model)`` array.

        Cache-free: used by the contrastive shortcut's stop-layer path and by
        anything needing a from-scratch forward. Runs ``forward_step``'s
        layers over all positions at once, as one block of rows, each head's
        attention one ``causal_attention`` call on strided views of the
        head's queries, keys and values (it lays the queries out once, in
        key-major blocks); the row-block kernels keep every reduction order,
        so row ``i`` is bit-identical to the hidden state ``forward_step``
        gives position ``i`` over a fresh cache.
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

        def attention(ell, q, k, v):
            return np.array([causal_attention(q[:, h], k[:, h], v[:, h], scale)
                             for h in range(self.heads)]).swapaxes(0, 1)

        return self._forward(x, n_layers, attention)

    def _forward(self, x: np.ndarray, n_layers: int, attention,
                 hidden: bool = True) -> np.ndarray | None:
        """The first ``n_layers`` layers over one token ``(d_model,)`` or a
        block of rows ``(m, d_model)``; ``attention(layer, q, k, v)`` returns
        the contexts in the ``(..., heads, head_dim)`` shape of ``q``. With
        ``hidden=False`` it returns ``None`` right after the last layer's
        attention."""
        shape = x.shape[:-1] + (3, self.heads, self.head_dim)
        for ell in range(n_layers):
            q, k, v = matvec(self.w_qkv[ell], rms_normalize(x)).reshape(shape).swapaxes(0, -3)
            context = attention(ell, q, k, v)
            if not hidden and ell == n_layers - 1:
                return None
            # W_o per head, then the heads summed in order from +0.0 (adding
            # +0.0 to head 0 only turns a -0.0 into +0.0, as a zero start would)
            per_head = matvec(self.w_o_heads[ell], context)
            attn_out = per_head[..., 0, :] + 0.0
            for h in range(1, self.heads):
                attn_out += per_head[..., h, :]
            x = x + attn_out
            hidden_ff = np.maximum(matvec(self.w_ff1[ell], rms_normalize(x)), 0.0)
            x = x + matvec(self.w_ff2[ell], hidden_ff)
        return x

    def lm_head(self, pooled: np.ndarray) -> np.ndarray:
        pooled = np.asarray(pooled, dtype=np.float64)
        if pooled.shape != (self.d_model,):
            raise ValueError(f"lm_head: dim {pooled.shape} != d_model {self.d_model}")
        return matvec(self.unembedding, pooled)


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
    Attention is degenerate (zero queries give uniform rows), which makes SAC
    calibration an exact no-op on this model. Selection is not: the hidden
    state is the sum over the attention support, so once an image passes
    ``l_min`` a plan that prunes visual rows, or merges them into aggregates,
    changes the visible fractions and so the report.
    """

    def __init__(self, vocab: int, finding_ids, prior, a_vis: float = 2.0,
                 b_prior: float = 3.0, sigma: float = 0.1, seed: int = 0):
        if vocab < 8:
            raise ConfigError("vocab must be at least 8")
        finding_ids = [int(f) for f in finding_ids]
        if not finding_ids:
            raise ConfigError("composer needs a non-empty finding vocabulary")
        if any(not 0 <= f < vocab for f in finding_ids):
            raise ConfigError("finding ids must lie inside the vocabulary")
        if COMPOSER_EOS_ID in finding_ids:
            raise ConfigError("eos id cannot be a finding id")
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape != (len(finding_ids),):
            raise ConfigError("prior must have one weight per finding id")
        if np.any(prior < 0) or not np.isclose(prior.sum(), 1.0, atol=1e-9):
            raise ConfigError("prior must be a distribution over the findings")
        self.vocab = vocab
        self.finding_ids = np.array(finding_ids, dtype=np.int64)
        self._finding_set = frozenset(finding_ids)   # embed_visual's membership test
        self.prior = prior
        self.a_vis = a_vis
        self.b_prior = b_prior
        self.sigma = sigma
        self.seed = seed
        self.layers = 1
        self.heads = 1
        self.d_model = 2 * vocab
        self.head_dim = self.d_model
        self._query = np.zeros((1, self.d_model))   # every step's query, never written
        self._query.flags.writeable = False
        self.noise = self._draw_noise(finding_ids)

    def _draw_noise(self, finding_ids: list[int]) -> np.ndarray:
        # combine folds left, so combine(seed, _NOISE_SALT, f) is one mix64
        # past the shared prefix (f lies in [0, vocab), inside 64 bits)
        noise_seed = combine(self.seed, _NOISE_SALT)
        return np.array([self.sigma * SplitMix64(mix64(noise_seed ^ f)).gauss()
                         for f in finding_ids])

    def reseeded(self, seed: int) -> "PlantedPriorComposer":
        """This composer with its noise drawn from ``seed``: the same model
        as a build with that seed, sharing this one's checked arrays (none
        is ever written) and drawing only its noise anew."""
        twin = PlantedPriorComposer.__new__(PlantedPriorComposer)
        twin.__dict__.update(self.__dict__)
        twin.seed = seed
        twin.noise = twin._draw_noise(self.finding_ids.tolist())
        return twin

    def embed_text(self, token_ids) -> np.ndarray:
        out = np.zeros((len(token_ids), self.d_model))
        for i, t in enumerate(token_ids):
            t = int(t)
            if not 0 <= t < self.vocab:
                raise ValueError(f"token id {t} outside vocabulary of size {self.vocab}")
            out[i, self.vocab + t] = 1.0
        return out

    def embed_visual(self, img: ImageDescriptor) -> np.ndarray:
        tpf = img.tokens_per_finding
        out = np.zeros((img.n_tokens, self.d_model))
        for i, f in enumerate(img.finding_ids):
            if f not in self._finding_set:
                raise ConfigError(f"finding id {f} outside the composer's finding vocabulary")
            out[i * tpf:(i + 1) * tpf, f] = 1.0 / tpf
        return out

    def pool_embeddings(self, embs: np.ndarray, mode: str = "mean") -> np.ndarray:
        # sum pooling regardless of mode: the head decodes visible fractions
        # and emission counts from block sums
        if len(embs) == 0:
            raise ValueError("cannot pool an empty embedding sequence")
        stack = np.asarray(embs)
        return _ordered_sum(-2, stack.size, stack)

    def forward_step(self, cache: KvCache, emb: np.ndarray, attend=None,
                     visual: bool = False, hidden: bool = True) -> np.ndarray | None:
        """The one attention over the cache, whose context times the support
        size is the hidden state; with ``hidden=False`` that product is
        skipped."""
        x = np.asarray(emb, dtype=np.float64)
        if x.shape != (self.d_model,):
            raise ValueError(f"embedding dim {x.shape} != d_model {self.d_model}")
        row = x[None]
        cache.append(0, row, row, visual=visual)
        att = (cache.attend if attend is None else attend)(0, self._query)
        if not hidden:
            return None
        return att.context[0] * float(att.support.size)

    def lm_head(self, pooled: np.ndarray) -> np.ndarray:
        pooled = np.asarray(pooled, dtype=np.float64)
        if pooled.shape != (self.d_model,):
            raise ValueError(f"lm_head: dim {pooled.shape} != d_model {self.d_model}")
        visible = pooled[: self.vocab]
        counts = pooled[self.vocab:]
        logits = np.full(self.vocab, COMPOSER_FILLER_LOGIT)
        logits[self.finding_ids] = (
            self.a_vis * visible[self.finding_ids]
            + self.b_prior * self.prior
            + self.noise
            - COMPOSER_REPEAT_PENALTY * counts[self.finding_ids]
        )
        logits[COMPOSER_EOS_ID] = COMPOSER_EOS_LOGIT
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
        return ToyTransformer(cfg.seed, d_model=cfg.d_model, layers=cfg.layers,
                              heads=cfg.heads, vocab=cfg.vocab)
    finding_ids = cfg.finding_ids or default_finding_ids()
    prior = cfg.prior or default_prior(len(finding_ids))
    return PlantedPriorComposer(
        vocab=cfg.vocab, finding_ids=finding_ids, prior=prior,
        a_vis=cfg.a_vis, b_prior=cfg.b_prior, sigma=cfg.sigma, seed=cfg.seed,
    )
