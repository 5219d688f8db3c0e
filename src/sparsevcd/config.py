"""Configuration dataclasses and JSON loading/validation for the engine and harness."""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from sparsevcd.errors import ConfigError

# The largest magnitude a calibration or fusion scale (sparsify.beta,
# decode.alpha) may take. A scale multiplies scores or logits, and SAC
# squares the calibrated scores, so every product stays far inside float64's
# range; at 1e308 they overflowed to inf and NaN.
SCALE_MAX = 1e6
# The composer's logit scales. With |a_vis| and |b_prior| at most 100 and
# sigma at most 10, a finding's logit before the repeat penalty is at most
# 100 + 100 + 10 * 8.6 (the largest Box-Muller draw) = 286 in magnitude for
# an image that names each finding once, so the penalty (1000) always puts
# an emitted finding below the EOS logit and reports terminate.
COMPOSER_SCALE_MAX = 100.0
COMPOSER_SIGMA_MAX = 10.0
# Size bounds on what one session allocates. The transformer's embedding and
# unembedding hold 2 * vocab * d_model floats (16 MiB at the largest vocab
# and the default d_model of 16). An image holds at most IMAGE_TOKENS_MAX
# visual tokens, and its embedded block, n_tokens * d_model floats (the
# composer's d_model is 2 * vocab), at most IMAGE_BLOCK_MAX (32 MiB).
VOCAB_MAX = 65_536
IMAGE_TOKENS_MAX = 1_024
IMAGE_BLOCK_MAX = 1 << 22


@dataclass
class ModelConfig:
    """Model block of the experiment JSON config."""

    kind: str = "transformer"  # "transformer" | "composer"
    seed: int = 1
    d_model: int = 16
    layers: int = 2
    heads: int = 2
    vocab: int = 64
    # composer-only fields
    a_vis: float = 2.0
    b_prior: float = 3.0
    sigma: float = 0.1
    finding_ids: list[int] = field(default_factory=list)
    prior: list[float] = field(default_factory=list)

    def validate(self) -> None:
        if self.kind not in ("transformer", "composer"):
            raise ConfigError(f"model.kind must be 'transformer' or 'composer', got {self.kind!r}")
        if self.vocab < 8:
            raise ConfigError("model.vocab must be at least 8")
        if self.vocab > VOCAB_MAX:
            raise ConfigError(f"model.vocab must be at most {VOCAB_MAX}")
        if self.kind == "transformer":
            if self.d_model <= 0 or self.layers <= 0 or self.heads <= 0:
                raise ConfigError("transformer dims must be positive")
            if self.d_model % self.heads != 0:
                raise ConfigError("model.d_model must be divisible by model.heads")
        if self.kind == "composer":
            if self.prior and self.finding_ids and len(self.prior) != len(self.finding_ids):
                raise ConfigError("model.prior must have one weight per finding id")
            if len(set(self.finding_ids)) != len(self.finding_ids):
                raise ConfigError("model.finding_ids must be distinct")
            for name in ("a_vis", "b_prior"):
                if abs(getattr(self, name)) > COMPOSER_SCALE_MAX:
                    raise ConfigError(f"model.{name} must lie in [-{COMPOSER_SCALE_MAX:g}, "
                                      f"{COMPOSER_SCALE_MAX:g}]")
            if not 0.0 <= self.sigma <= COMPOSER_SIGMA_MAX:
                raise ConfigError(f"model.sigma must be in [0, {COMPOSER_SIGMA_MAX:g}]")


@dataclass
class SparsifyConfig:
    """Token-sparsification and attention-calibration hyperparameters."""

    sparsity_rate: float = 0.8
    lambda_: float = 0.1
    w_recent: int = 8
    rho_merge: float = 0.25
    knn_k: int = 5
    early_layer_frac: float = 0.25
    per_head_mask: bool = False
    l_min: int = 16
    mode: str = "logical"  # "logical" | "compacted"
    compact_band: int = 64
    merge_pruned: bool = True
    prune_scope: str = "full"  # "full" | "text_only"
    beta: float = 0.1
    sac_input: str = "probabilities"  # "probabilities" | "raw_scores"
    sac_before_vats: bool = True

    def validate(self) -> None:
        if not 0.0 < self.sparsity_rate <= 1.0:
            raise ConfigError("sparsify.sparsity_rate must be in (0, 1]")
        if self.lambda_ < 0.0:
            raise ConfigError("sparsify.lambda_ must be non-negative")
        if self.w_recent < 0:
            raise ConfigError("sparsify.w_recent must be non-negative")
        if not 0.0 < self.rho_merge <= 1.0:
            raise ConfigError("sparsify.rho_merge must be in (0, 1]")
        if self.knn_k < 1:
            raise ConfigError("sparsify.knn_k must be at least 1")
        if not 0.0 < self.early_layer_frac <= 1.0:
            raise ConfigError("sparsify.early_layer_frac must be in (0, 1]")
        if self.l_min < 0:
            raise ConfigError("sparsify.l_min must be non-negative")
        if self.mode not in ("logical", "compacted"):
            raise ConfigError("sparsify.mode must be 'logical' or 'compacted'")
        if self.mode == "compacted" and self.per_head_mask:
            raise ConfigError("per-head masks are only supported in logical mode")
        if self.compact_band < 0:
            raise ConfigError("sparsify.compact_band must be non-negative")
        if self.prune_scope not in ("full", "text_only"):
            raise ConfigError("sparsify.prune_scope must be 'full' or 'text_only'")
        if not 0.0 <= self.beta <= SCALE_MAX:
            raise ConfigError(f"sparsify.beta must be in [0, {SCALE_MAX:g}]")
        if self.sac_input not in ("probabilities", "raw_scores"):
            raise ConfigError("sparsify.sac_input must be 'probabilities' or 'raw_scores'")


@dataclass
class DecodeConfig:
    """Contrastive-decoding loop hyperparameters."""

    alpha: float = 0.3
    gamma_apc: float = 0.1
    visual_mask_rate: float = 0.5
    stop_layer: int = 0
    beam_size: int = 2
    max_len: int = 64
    seed: int = 0
    mode: str = "greedy"  # "greedy" | "beam"
    pooling: str = "mean"  # "mean" | "last"
    eos_id: int = 0  # -1 disables EOS stopping (benchmarks)

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= SCALE_MAX:
            raise ConfigError(f"decode.alpha must be in [0, {SCALE_MAX:g}]")
        if not 0.0 <= self.gamma_apc <= 1.0:
            raise ConfigError("decode.gamma_apc must be in [0, 1]")
        if not 0.0 <= self.visual_mask_rate <= 1.0:
            raise ConfigError("decode.visual_mask_rate must be in [0, 1]")
        if self.stop_layer < 0:
            raise ConfigError("decode.stop_layer must be non-negative")
        if self.beam_size < 1:
            raise ConfigError("decode.beam_size must be positive")
        if self.max_len < 1:
            raise ConfigError("decode.max_len must be positive")
        if self.mode not in ("greedy", "beam"):
            raise ConfigError("decode.mode must be 'greedy' or 'beam'")
        if self.pooling not in ("mean", "last"):
            raise ConfigError("decode.pooling must be 'mean' or 'last'")
        if self.eos_id < -1:
            raise ConfigError("decode.eos_id must be non-negative, or -1 to disable")


@dataclass
class ExperimentConfig:
    """Top-level harness configuration."""

    model: ModelConfig = field(default_factory=ModelConfig)
    sparsify: SparsifyConfig = field(default_factory=SparsifyConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    corpus: str = ""
    seeds: list[int] = field(default_factory=lambda: [0])
    out_csv: str = "results.csv"
    out_diagnostics: str = ""
    timing: bool = False
    workers: int = 1

    def validate(self) -> None:
        self.model.validate()
        self.sparsify.validate()
        self.decode.validate()
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        # the composer has no decoder layers for the contrastive branch to run
        layers = self.model.layers if self.model.kind == "transformer" else 0
        if self.decode.stop_layer > layers:
            raise ConfigError(f"decode.stop_layer {self.decode.stop_layer} exceeds "
                              f"the model's {layers} decoder layers")
        if self.model.kind == "composer" and self.decode.eos_id not in (0, -1):
            # the composer's EOS logit sits on token 0
            raise ConfigError("decode.eos_id must be 0 (the composer's EOS) "
                              "or -1 with the composer model")


_SECTION_TYPES = {
    "model": ModelConfig,
    "sparsify": SparsifyConfig,
    "decode": DecodeConfig,
}


def _typed(value, tp, path: str):
    """``value`` if it has the declared field type ``tp``, else ConfigError.

    An int is accepted for a float; a bool is never accepted as a number,
    and NaN or an infinity never as a float.
    """
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        (item,) = typing.get_args(tp)
        for i, v in enumerate(value):
            _typed(v, item, f"{path}[{i}]")
        return value
    accepted = (int, float) if tp is float else (tp,)
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path} must be of type {tp.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return value


def _build_section(cls, data: dict, path: str):
    types = typing.get_type_hints(cls)
    # accept "lambda" as an alias since it is a Python keyword
    if cls is SparsifyConfig and "lambda" in data:
        data = dict(data)
        data["lambda_"] = data.pop("lambda")
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"unknown config field {path}.{key}")
        kwargs[key] = _typed(value, types[key], f"{path}.{key}")
    return cls(**kwargs)


def experiment_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    cfg = ExperimentConfig()
    types = typing.get_type_hints(ExperimentConfig)
    for key, value in data.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key} must be an object")
            setattr(cfg, key, _build_section(_SECTION_TYPES[key], value, key))
        elif key in types:
            setattr(cfg, key, _typed(value, types[key], key))
        else:
            raise ConfigError(f"unknown config field {key}")
    cfg.validate()
    return cfg


def load_experiment(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    return experiment_from_dict(data)


def flatten_config(cfg: ExperimentConfig) -> dict[str, object]:
    """Flattened (section.field -> value) view used for result rows."""
    out: dict[str, object] = {}
    for section in _SECTION_TYPES:
        block = getattr(cfg, section)
        for f in dataclasses.fields(block):
            value = getattr(block, f.name)
            if isinstance(value, list):
                value = ";".join(str(v) for v in value)
            out[f"{section}.{f.name}"] = value
    return out
