"""Experiment execution: metric runs over a corpus, hyperparameter sweeps,
timing benchmarks, and attention-distribution dumps.

Outputs are byte-deterministic for a fixed config and corpus: rows are
buffered, sorted, and written with a fixed column order; wall-clock columns
stay empty unless timing capture is explicitly enabled (the ``bench``
entry point covers timing questions).
"""

from __future__ import annotations

import csv
import dataclasses
import statistics
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsevcd import metrics
from sparsevcd.config import DecodeConfig, ExperimentConfig, flatten_config
from sparsevcd.corpus import TOKEN_BOS, TOKEN_NO, TOKEN_YES, Corpus, load_corpus, write_jsonl
from sparsevcd.decoding import decode
from sparsevcd.errors import ConfigError
from sparsevcd.models import ImageDescriptor, model_from_config
from sparsevcd.rng import combine

# each sweep axis and the (section, field) of the config it sets
SWEEP_AXES = {
    "alpha": ("decode", "alpha"),
    "beta": ("sparsify", "beta"),
    "lambda": ("sparsify", "lambda_"),
    "stop_layer": ("decode", "stop_layer"),
    "sparsity": ("sparsify", "sparsity_rate"),
}

METRIC_COLUMNS = [
    "seed", "n_examples", "chair", "recall", "accuracy", "attn_error_mean",
    "empty_generated", "tps", "wall_seconds", "peak_memory_elements", "error",
]


@dataclass
class ResultRow:
    """One (config, seed) aggregate over a corpus."""

    config: dict[str, object]
    seed: int
    n_examples: int = 0
    chair: float | None = None
    recall: float | None = None
    accuracy: float | None = None
    attn_error_mean: float | None = None
    empty_generated: float | None = None
    tps: float | None = None
    wall_seconds: float | None = None
    peak_memory_elements: int | None = None
    error: str = ""
    sweep_axis: str = ""
    sweep_value: object = ""
    diagnostics: list[dict] = field(default_factory=list)


def _extract_prediction(tokens, yes_id: int, no_id: int) -> str:
    for t in tokens:
        if t == yes_id:
            return "yes"
        if t == no_id:
            return "no"
    return ""


def _example_model(cfg: ExperimentConfig, shared, run_seed: int, index: int):
    if cfg.model.kind == "transformer":
        return shared
    # fresh composer noise per (run seed, example): keeps models immutable
    # while giving per-example variation inside one seed; the row's one
    # checked build lends every example its arrays
    return shared.reseeded(combine(cfg.model.seed, run_seed, index))


def run_seed_row(cfg: ExperimentConfig, corpus: Corpus, run_seed: int,
                 collect_diagnostics: bool = False) -> ResultRow:
    """Decode every corpus example under one seed and aggregate the metrics."""
    finding_set = set(corpus.finding_ids)
    yes_id = int(corpus.meta.get("yes_id", TOKEN_YES))
    no_id = int(corpus.meta.get("no_id", TOKEN_NO))
    shared = model_from_config(cfg.model)
    row = ResultRow(config=flatten_config(cfg), seed=run_seed,
                    n_examples=len(corpus.examples))
    chairs, recalls, errors, empties = [], [], [], []
    preds, labels = [], []
    total_tokens = 0
    total_wall = 0.0
    peak_mem = 0
    for idx, example in enumerate(corpus.examples):
        model = _example_model(cfg, shared, run_seed, idx)
        session = dataclasses.replace(cfg.decode, seed=combine(run_seed, idx))
        try:
            result = decode(model, example.image, example.prompt, cfg.sparsify, session)
        except ConfigError as exc:  # bad input aborts the row; engine bugs propagate
            row.error = f"{example.id}: {type(exc).__name__}: {exc}"
            row.chair = row.recall = row.accuracy = None
            return row
        generated = set(result.tokens) & finding_set
        reference = set(example.report) & finding_set
        chairs.append(metrics.chair(generated, reference))
        empties.append(1.0 if not generated else 0.0)
        if reference:
            recalls.append(metrics.recall(generated, reference))
        if example.question is not None and example.label is not None:
            preds.append(_extract_prediction(result.tokens, yes_id, no_id))
            labels.append(example.label)
        step_errors = [d.attn_error_mean for d in result.diagnostics]
        errors.append(sum(step_errors) / len(step_errors) if step_errors else 0.0)
        total_tokens += len(result.tokens)
        total_wall += result.wall_seconds
        peak_mem = max(peak_mem, result.memory_elements)
        if collect_diagnostics:
            row.diagnostics.append({
                "example": example.id,
                "tokens": result.tokens,
                "steps": [d.as_record() for d in result.diagnostics],
            })
    row.chair = sum(chairs) / len(chairs) if chairs else None
    row.recall = sum(recalls) / len(recalls) if recalls else None
    row.accuracy = (metrics.closed_ended_accuracy(preds, labels)
                    if preds else None)
    row.attn_error_mean = sum(errors) / len(errors) if errors else None
    row.empty_generated = sum(empties) / len(empties) if empties else None
    row.tps = (total_tokens / total_wall) if total_wall > 0 else 0.0
    row.wall_seconds = total_wall
    row.peak_memory_elements = peak_mem
    return row


def _row_task(cfg_dict: dict, corpus_path: str, run_seed: int,
              collect_diagnostics: bool) -> ResultRow:
    from sparsevcd.config import experiment_from_dict
    return run_seed_row(experiment_from_dict(cfg_dict), load_corpus(corpus_path),
                        run_seed, collect_diagnostics)


def _run_rows(cfg: ExperimentConfig, axis: str, grid: list,
              collect_diagnostics: bool = False) -> list[ResultRow]:
    """One row per (grid value, seed), on ``cfg.workers`` processes when
    there are more than one; ``axis=""`` runs the base config once per seed.
    Rows come back sorted by (grid position, seed)."""
    if cfg.decode.seed != DecodeConfig.seed:
        raise ConfigError("decode.seed does not apply to run or sweep, which seed each "
                          "session from the run seed and the example's index; leave it "
                          "at its default")
    tasks = []
    for value in grid:
        varied = apply_axis(cfg, axis, value) if axis else cfg
        for seed in cfg.seeds:
            tasks.append((value, varied, seed))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_row_task, dataclasses.asdict(varied), cfg.corpus,
                                   seed, collect_diagnostics)
                       for (_value, varied, seed) in tasks]
            rows = [f.result() for f in futures]
    else:
        corpus = load_corpus(cfg.corpus)
        rows = [run_seed_row(varied, corpus, seed, collect_diagnostics)
                for (_value, varied, seed) in tasks]
    for row, (value, _varied, _seed) in zip(rows, tasks):
        row.sweep_axis = axis
        row.sweep_value = value
    rows.sort(key=lambda r: (grid.index(r.sweep_value), r.seed))
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """One row per seed over the configured corpus."""
    cfg.validate()
    return _run_rows(cfg, "", [""], collect_diagnostics=bool(cfg.out_diagnostics))


def axis_field(axis: str) -> tuple[str, str, type]:
    """The section and field a sweep axis sets, and the field's declared type."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {tuple(SWEEP_AXES)}")
    section, name = SWEEP_AXES[axis]
    section_type = typing.get_type_hints(ExperimentConfig)[section]
    return section, name, typing.get_type_hints(section_type)[name]


def apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """A copy of ``cfg`` whose field ``axis`` sets is ``value``, converted to
    the field's type."""
    section, name, tp = axis_field(axis)
    block = dataclasses.replace(getattr(cfg, section), **{name: tp(value)})
    return dataclasses.replace(cfg, **{section: block})


def sweep(cfg: ExperimentConfig, axis: str, grid) -> list[ResultRow]:
    """Cartesian product of the grid with the base config; rows come back
    sorted by (grid position, seed)."""
    cfg.validate()
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    # every grid point is checked before any row runs
    for value in grid:
        varied = apply_axis(cfg, axis, value)
        try:
            varied.validate()
        except ConfigError as exc:
            raise ConfigError(f"sweep {axis}={value!r}: {exc}") from exc
    return _run_rows(cfg, axis, grid)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(path: str | Path, rows: list[ResultRow],
                   timing: bool = False) -> list[str]:
    """Write result rows with a fixed column order; returns the header.

    Timing columns are left empty unless ``timing`` is set, keeping default
    outputs byte-identical across runs.
    """
    if not rows:
        raise ValueError("write_rows_csv: no rows")
    config_cols = sorted(rows[0].config.keys())
    header = ["sweep_axis", "sweep_value"] + config_cols + METRIC_COLUMNS
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            record = [_fmt(row.sweep_axis), _fmt(row.sweep_value)]
            record += [_fmt(row.config[c]) for c in config_cols]
            for col in METRIC_COLUMNS:
                if col in ("tps", "wall_seconds") and not timing:
                    record.append("")
                else:
                    record.append(_fmt(getattr(row, col)))
            writer.writerow(record)
    return header


def write_diagnostics(path: str | Path, rows: list[ResultRow]) -> None:
    write_jsonl(path, ({**rec, "seed": row.seed} for row in rows for rec in row.diagnostics))


# --------------------------------------------------------------------- bench

def _bench_inputs(cfg: ExperimentConfig, prefix_len: int, repeats: int):
    """The transformer model, an image and a BOS prompt padding the image
    to ``prefix_len`` positions, for a bench of ``repeats`` sessions per arm."""
    if cfg.model.kind != "transformer":
        raise ConfigError("bench requires the transformer model")
    if repeats < 1:
        raise ConfigError(f"bench repeats must be positive, got {repeats}")
    image = ImageDescriptor((4, 5), tokens_per_finding=4)
    if prefix_len <= image.n_tokens:
        raise ConfigError(f"bench prefix length must exceed the bench image's "
                          f"{image.n_tokens} tokens, got {prefix_len}")
    prompt = [TOKEN_BOS] * (prefix_len - image.n_tokens)
    return model_from_config(cfg.model), image, prompt


def bench_sparse_vs_full(cfg: ExperimentConfig, prefix_len: int = 2048,
                         decode_len: int = 16, repeats: int = 5) -> dict:
    """Paired wall-time comparison: compacted sparse decoding at rate 0.5
    versus full decoding over the same prefix. Contrastive fusion and
    calibration are off in both arms to isolate the sparsification cost.
    Each repeat times both arms, the first arm alternating, and sparse wins
    when the median per-repeat sparse/full ratio is below 1."""
    model, image, prompt = _bench_inputs(cfg, prefix_len, repeats)
    base = dataclasses.replace(cfg.decode, alpha=0.0, gamma_apc=0.0,
                               max_len=decode_len, mode="greedy", eos_id=-1)
    full_s = dataclasses.replace(cfg.sparsify, sparsity_rate=1.0, beta=0.0, mode="logical")
    sparse_s = dataclasses.replace(cfg.sparsify, sparsity_rate=0.5, beta=0.0, mode="compacted")
    full, sparse = [], []
    arms = [(full, full_s), (sparse, sparse_s)]
    for rep in range(repeats):
        dcfg = dataclasses.replace(base, seed=rep)
        for results, scfg in (arms if rep % 2 else arms[::-1]):
            results.append(decode(model, image, prompt, scfg, dcfg))
    ratio = statistics.median(a.wall_seconds / b.wall_seconds for a, b in zip(sparse, full))
    return {
        "prefix_len": prefix_len,
        "decode_len": decode_len,
        "repeats": repeats,
        "full_median_seconds": statistics.median(r.wall_seconds for r in full),
        "sparse_median_seconds": statistics.median(r.wall_seconds for r in sparse),
        "sparse_full_ratio_median": ratio,
        "sparse_faster": ratio < 1.0,
        "full_peak_rows": max(r.peak_rows for r in full),
        "sparse_peak_rows": max(r.peak_rows for r in sparse),
    }


def bench_stop_layers(cfg: ExperimentConfig, repeats: int = 5,
                      prefix_len: int = 96, decode_len: int = 24) -> dict:
    """Median decoding throughput per contrastive-branch stop layer.

    Each repeat times every stop layer in turn, so a change in host load
    during one repeat reaches all the layers, not one layer's block."""
    model, image, prompt = _bench_inputs(cfg, prefix_len, repeats)
    scfg = dataclasses.replace(cfg.sparsify, sparsity_rate=1.0, beta=0.0, mode="logical")
    tps = {ell: [] for ell in range(model.layers + 1)}
    for rep in range(repeats):
        for ell, times in tps.items():
            dcfg = dataclasses.replace(cfg.decode, alpha=0.3, gamma_apc=0.0,
                                       stop_layer=ell, max_len=decode_len,
                                       mode="greedy", eos_id=-1, seed=rep)
            result = decode(model, image, prompt, scfg, dcfg)
            times.append(len(result.tokens) / result.wall_seconds)
    return {ell: statistics.median(times) for ell, times in tps.items()}


# ------------------------------------------------------------- attention stats

DENSITY_BINS = 20


def dump_attention_stats(cfg: ExperimentConfig, out_dir: str | Path,
                         corpus: Corpus | None = None) -> dict:
    """Per-step sorted attention scores and visual-vs-text density histograms.

    Requires the transformer model (the composer's attention is degenerate
    and carries no information)."""
    if cfg.model.kind != "transformer":
        raise ConfigError("attention stats require the transformer model; "
                          "the composer has no meaningful attention")
    model = model_from_config(cfg.model)
    if corpus is not None and corpus.examples:
        example = corpus.examples[0]
        image, prompt = example.image, example.prompt
    else:
        image = ImageDescriptor((4, 5, 6), tokens_per_finding=3)
        prompt = [TOKEN_BOS]
    result = decode(model, image, prompt, cfg.sparsify, cfg.decode, diag_level="full")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scores_path = out_dir / "sorted_scores.csv"
    density_path = out_dir / "attention_density.csv"

    final_layer = model.layers - 1
    vis_counts = np.zeros(DENSITY_BINS, dtype=np.int64)
    txt_counts = np.zeros(DENSITY_BINS, dtype=np.int64)
    n_rows_written = 0
    with open(scores_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "rank", "score"])
        for step_idx, rec in enumerate(result.forward_records):
            per_head = [r for r in rec["rows"] if r["layer"] == final_layer]
            if not per_head:
                continue
            stacked = np.asarray([r["row"] for r in per_head])
            mean_row = np.add.accumulate(stacked, axis=0)[-1] / len(per_head)
            vis = per_head[0]["visual"]
            order = np.argsort(mean_row, kind="stable")
            for rank, idx in enumerate(order):
                writer.writerow([step_idx, rank, repr(float(mean_row[idx]))])
                n_rows_written += 1
            bins = np.minimum((mean_row * DENSITY_BINS).astype(np.int64),
                              DENSITY_BINS - 1)
            for b, is_vis in zip(bins, vis):
                if is_vis:
                    vis_counts[b] += 1
                else:
                    txt_counts[b] += 1
    with open(density_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_lo", "bin_hi", "visual_count", "text_count"])
        for b in range(DENSITY_BINS):
            writer.writerow([repr(b / DENSITY_BINS), repr((b + 1) / DENSITY_BINS),
                             int(vis_counts[b]), int(txt_counts[b])])
    return {
        "sorted_scores": str(scores_path),
        "density": str(density_path),
        "rows_written": n_rows_written,
        "steps": len(result.forward_records),
    }
