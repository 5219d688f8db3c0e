"""Command-line entry point.

Subcommands: gen-corpus, decode, run, sweep, bench, attn-stats. A JSON config
document (``--config``) supplies the model/sparsify/decode blocks;
``--set section.field=value`` overrides any field. Exit codes: 0 success,
1 config error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path

from sparsevcd import experiment
from sparsevcd.config import (ExperimentConfig, experiment_from_dict,
                              load_experiment)
from sparsevcd.corpus import (TOKEN_BOS, GeneratorSpec, gen_corpus, load_corpus,
                              write_corpus)
from sparsevcd.decoding import decode
from sparsevcd.errors import ConfigError, CorpusError
from sparsevcd.models import ImageDescriptor, model_from_config


def _apply_overrides(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    if not overrides:
        return cfg
    data = dataclasses.asdict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects section.field=value, got {item!r}")
        key, raw = item.split("=", 1)
        parts = key.split(".")
        if parts[-1] == "lambda":
            parts[-1] = "lambda_"
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError:
            parsed = raw
        node = data
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"--set: unknown config section {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"--set: unknown config field {key!r}")
        node[parts[-1]] = parsed
    return experiment_from_dict(data)


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_experiment(args.config) if args.config else ExperimentConfig()
    cfg = _apply_overrides(cfg, getattr(args, "set", None))
    if getattr(args, "corpus", None) is not None:
        cfg.corpus = args.corpus
    if getattr(args, "out", None) is not None:
        cfg.out_csv = args.out
    if getattr(args, "diagnostics", None) is not None:
        cfg.out_diagnostics = args.diagnostics
    if getattr(args, "seeds", None) is not None:
        try:
            cfg.seeds = [int(s) for s in args.seeds.split(",") if s != ""]
        except ValueError as exc:
            raise ConfigError(f"--seeds expects comma-separated integers, "
                              f"got {args.seeds!r}") from exc
    if getattr(args, "timing", False):
        cfg.timing = True
    if getattr(args, "workers", None) is not None:
        cfg.workers = args.workers
    cfg.validate()
    return cfg


def _check_out_file(flag: str, path) -> None:
    """An output file must go into an existing directory and not be one.
    An empty path is refused: ``Path("")`` would be the working directory."""
    if not path:
        raise ConfigError(f"{flag}: empty path")
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"{flag}: {str(path)!r} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"{flag}: directory {str(out.parent)!r} does not exist")


def _check_out_dir(flag: str, path) -> None:
    """An output directory, or its nearest existing ancestor, must be a
    directory (the missing ones are created). An empty path is refused:
    ``Path("")`` would be the working directory."""
    if not path:
        raise ConfigError(f"{flag}: empty path")
    out = Path(path)
    while not out.exists() and out != out.parent:
        out = out.parent
    if not out.is_dir():
        raise ConfigError(f"{flag}: {str(out)!r} is not a directory")


def _cmd_gen_corpus(args) -> int:
    _check_out_file("--out", args.out)
    spec = GeneratorSpec(
        n_findings=args.findings,
        tokens_per_finding=args.tokens_per_finding,
        findings_per_image=args.findings_per_image,
        prior_rate=args.prior_rate,
        include_questions=args.include_questions,
        distractor_in_images=args.distractor_in_images,
    )
    corpus = gen_corpus(spec, seed=args.seed, n=args.n)
    write_corpus(args.out, corpus)
    print(f"wrote {len(corpus.examples)} examples to {args.out}")
    return 0


def _parse_ids(flag: str, text: str, vocab: int) -> list[int]:
    """Comma-separated token ids, each inside the model vocabulary."""
    try:
        ids = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integer ids, got {text!r}") from exc
    if any(not 0 <= t < vocab for t in ids):
        raise ConfigError(f"{flag}: ids {text!r} outside the model vocabulary of size {vocab}")
    return ids


def _cmd_decode(args) -> int:
    cfg = _load_cfg(args)
    if args.diagnostics is not None:
        _check_out_file("--diagnostics", args.diagnostics)
    model = model_from_config(cfg.model)
    if args.image is not None:
        finding_ids = tuple(_parse_ids("--image", args.image, model.vocab))
        try:
            image = ImageDescriptor(finding_ids, args.tokens_per_finding)
        except ValueError as exc:
            raise ConfigError(f"--image: {exc}") from exc
        prompt = ([TOKEN_BOS] if args.prompt is None
                  else _parse_ids("--prompt", args.prompt, model.vocab))
    elif cfg.corpus:
        corpus = load_corpus(cfg.corpus)
        if not 0 <= args.example_index < len(corpus.examples):
            raise ConfigError(f"--example-index {args.example_index} outside the corpus's "
                              f"{len(corpus.examples)} examples")
        example = corpus.examples[args.example_index]
        image = example.image
        prompt = example.question or [TOKEN_BOS]
    else:
        raise ConfigError("decode needs --image or a corpus in the config")
    level = "full" if args.full_diag else "summary"
    result = decode(model, image, prompt, cfg.sparsify, cfg.decode, diag_level=level)
    print("tokens:", " ".join(str(t) for t in result.tokens))
    for d in result.diagnostics:
        print(f"step {d.step}: chosen={d.chosen} p_theta={d.p_theta_chosen:.6f} "
              f"plausible={d.plausible_size} rows={d.cache_rows} "
              f"attn_err={d.attn_error_mean:.6g}")
    if args.diagnostics is not None:
        payload = {"steps": [d.as_record() for d in result.diagnostics]}
        if args.full_diag:
            payload["forwards"] = [{
                "errors": rec["errors"],
                "layers": rec["layers"],
            } for rec in result.forward_records]
        Path(args.diagnostics).write_text(json.dumps(payload, sort_keys=True,
                                                     separators=(",", ":")))
        print(f"diagnostics written to {args.diagnostics}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    if not cfg.corpus:
        raise ConfigError("run needs a corpus (--corpus or config field)")
    _check_out_file("--out", cfg.out_csv)
    if args.diagnostics is not None or cfg.out_diagnostics:
        _check_out_file("--diagnostics", cfg.out_diagnostics)
    rows = experiment.run_experiment(cfg)
    experiment.write_rows_csv(cfg.out_csv, rows, timing=cfg.timing)
    if cfg.out_diagnostics:
        experiment.write_diagnostics(cfg.out_diagnostics, rows)
    failed = [r for r in rows if r.error]
    print(f"wrote {len(rows)} rows to {cfg.out_csv}"
          + (f" ({len(failed)} with errors)" if failed else ""))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    if not cfg.corpus:
        raise ConfigError("sweep needs a corpus (--corpus or config field)")
    _check_out_file("--out", cfg.out_csv)
    raw_values = [v for v in args.grid.split(",") if v.strip() != ""]
    if not raw_values:
        raise ConfigError("sweep grid must be non-empty")
    try:
        if args.axis == "stop_layer":
            grid = [int(v) for v in raw_values]
        else:
            grid = [float(v) for v in raw_values]
    except ValueError as exc:
        raise ConfigError(f"bad sweep grid value: {exc}") from exc
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError(f"sweep grid values must be finite, got {args.grid!r}")
    rows = experiment.sweep(cfg, args.axis, grid)
    experiment.write_rows_csv(cfg.out_csv, rows, timing=cfg.timing)
    print(f"wrote {len(rows)} rows to {cfg.out_csv}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    if args.out is not None:
        _check_out_file("--out", args.out)
    report = experiment.bench_sparse_vs_full(
        cfg, prefix_len=args.prefix_len, decode_len=args.decode_len,
        repeats=args.repeats)
    if args.stop_layers:
        report["tps_by_stop_layer"] = experiment.bench_stop_layers(
            cfg, repeats=args.repeats)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    return 0


def _cmd_attn_stats(args) -> int:
    cfg = _load_cfg(args)
    _check_out_dir("--out-dir", args.out_dir)
    corpus = load_corpus(cfg.corpus) if cfg.corpus else None
    report = experiment.dump_attention_stats(cfg, args.out_dir, corpus)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsevcd",
        description="Sparse visual-contrastive decoding benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--set", action="append", metavar="SECTION.FIELD=VALUE",
                       help="override any config field (repeatable)")

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--findings", type=int, default=16)
    p.add_argument("--tokens-per-finding", type=int, default=3)
    p.add_argument("--findings-per-image", type=int, default=3)
    p.add_argument("--prior-rate", type=float, default=0.8)
    p.add_argument("--include-questions", action="store_true")
    p.add_argument("--distractor-in-images", action="store_true")
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("decode", help="decode one example and print diagnostics")
    add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--image", help="comma-separated finding ids")
    p.add_argument("--tokens-per-finding", type=int, default=3)
    p.add_argument("--prompt", help="comma-separated prompt token ids")
    p.add_argument("--example-index", type=int, default=0)
    p.add_argument("--diagnostics", help="write per-step JSON records here")
    p.add_argument("--full-diag", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("run", help="run an experiment over a corpus")
    add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--diagnostics")
    p.add_argument("--seeds", help="comma-separated run seeds")
    p.add_argument("--timing", action="store_true",
                   help="fill the (non-deterministic) timing columns")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="hyperparameter sweep")
    add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--axis", required=True, choices=experiment.SWEEP_AXES)
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--out")
    p.add_argument("--seeds")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bench", help="sparse-vs-full timing comparison")
    add_common(p)
    p.add_argument("--prefix-len", type=int, default=2048)
    p.add_argument("--decode-len", type=int, default=16)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--stop-layers", action="store_true",
                   help="also measure throughput per contrastive stop layer")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("attn-stats", help="attention distribution dumps")
    add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_attn_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CorpusError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - last-resort boundary
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
