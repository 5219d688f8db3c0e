import dataclasses
import hashlib
import json

import pytest

from sparsevcd import experiment, metrics
from sparsevcd.cli import main
from sparsevcd.config import (DecodeConfig, ExperimentConfig, ModelConfig,
                              SparsifyConfig)
from sparsevcd.corpus import (TOKEN_BOS, GeneratorSpec, gen_corpus, load_corpus,
                              write_corpus)
from sparsevcd.decoding import decode
from sparsevcd.experiment import (run_experiment, run_seed_row, sweep,
                                  write_diagnostics, write_rows_csv)
from sparsevcd.models import ToyTransformer, model_from_config
from sparsevcd.oracle import reference_full_decode
from sparsevcd.rng import combine


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_corpus(path, gen_corpus(GeneratorSpec(), seed=20, n=6))
    return str(path)


def test_all_mechanisms_off_matches_reference_pipeline(corpus_path):
    cfg = ExperimentConfig(
        model=ModelConfig(kind="transformer", seed=7),
        sparsify=SparsifyConfig(sparsity_rate=1.0, beta=0.0, w_recent=0),
        decode=DecodeConfig(alpha=0.0, gamma_apc=0.0, visual_mask_rate=0.0,
                            max_len=8),
        corpus=corpus_path,
        seeds=[0],
    )
    corpus = load_corpus(corpus_path)
    row = run_experiment(cfg)[0]

    # reference pipeline: oracle decode + the same metric functions
    model = model_from_config(cfg.model)
    finding_set = set(corpus.finding_ids)
    chairs, recalls = [], []
    for ex in corpus.examples:
        tokens = reference_full_decode(model, [TOKEN_BOS], ex.image, max_len=8)
        generated = set(tokens) & finding_set
        reference = set(ex.report) & finding_set
        chairs.append(metrics.chair(generated, reference))
        recalls.append(metrics.recall(generated, reference))
    assert row.chair == sum(chairs) / len(chairs)
    assert row.recall == sum(recalls) / len(recalls)


def test_failed_session_produces_error_record(tmp_path):
    # finding id outside the composer vocabulary (> 20) makes embedding fail
    corpus = gen_corpus(GeneratorSpec(n_findings=30), seed=1, n=3)
    path = tmp_path / "wide.jsonl"
    write_corpus(path, corpus)
    cfg = ExperimentConfig(
        model=ModelConfig(kind="composer", vocab=20, seed=5),
        decode=DecodeConfig(max_len=4),
        corpus=str(path),
        seeds=[0],
    )
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].error != ""
    assert rows[0].chair is None
    write_rows_csv(tmp_path / "err.csv", rows)
    text = (tmp_path / "err.csv").read_text()
    assert "ConfigError" in text


def test_engine_errors_propagate_out_of_a_row(corpus_path, monkeypatch):
    # only bad input (a ConfigError) becomes a row's error text; a plain
    # ValueError from inside the engine is a bug, and run_seed_row raises it
    def broken(*args, **kwargs):
        raise ValueError("matvec: shape mismatch")

    monkeypatch.setattr(ToyTransformer, "forward_step", broken)
    cfg = ExperimentConfig(model=ModelConfig(kind="transformer", seed=7),
                           decode=DecodeConfig(max_len=4), corpus=corpus_path, seeds=[0])
    with pytest.raises(ValueError, match="shape mismatch"):
        run_seed_row(cfg, load_corpus(corpus_path), 0)


def test_questions_populate_accuracy(tmp_path):
    corpus = gen_corpus(GeneratorSpec(include_questions=True), seed=4, n=10)
    path = tmp_path / "q.jsonl"
    write_corpus(path, corpus)
    cfg = ExperimentConfig(
        model=ModelConfig(kind="composer", vocab=20, seed=5),
        decode=DecodeConfig(max_len=4),
        corpus=str(path),
        seeds=[0],
    )
    row = run_experiment(cfg)[0]
    assert row.accuracy is not None
    assert 0.0 <= row.accuracy <= 1.0


def test_parallel_sweep_matches_sequential(corpus_path):
    base = ExperimentConfig(
        model=ModelConfig(kind="composer", vocab=20, seed=5),
        decode=DecodeConfig(max_len=4),
        corpus=corpus_path,
        seeds=[0, 1],
    )
    seq = sweep(base, "alpha", [0.0, 0.3])
    par = sweep(dataclasses.replace(base, workers=2), "alpha", [0.0, 0.3])
    assert [(r.sweep_value, r.seed, r.chair, r.recall) for r in seq] == \
           [(r.sweep_value, r.seed, r.chair, r.recall) for r in par]


def test_vats_off_uses_attention_order_without_clustering(corpus_path):
    # VATS off is lambda_ = 0 (attention order alone) with merging off
    model = model_from_config(ModelConfig(kind="transformer", seed=9))
    example = load_corpus(corpus_path).examples[0]
    dcfg = DecodeConfig(alpha=0.0, gamma_apc=0.0, max_len=4)

    def plans(**sparsify_kw):
        scfg = SparsifyConfig(sparsity_rate=0.6, l_min=8, **sparsify_kw)
        result = decode(model, example.image, example.question or [TOKEN_BOS], scfg, dcfg,
                        diag_level="full")
        return [plan for rec in result.forward_records for plan in rec["layers"]]

    off = plans(lambda_=0.0, merge_pruned=False)
    assert off and all(plan["clusters"] == 0 for plan in off)
    assert any(plan["clusters"] > 0 for plan in plans(lambda_=0.0))


def test_diagnostics_written_as_jsonl(corpus_path, tmp_path):
    cfg = ExperimentConfig(
        model=ModelConfig(kind="composer", vocab=20, seed=5),
        decode=DecodeConfig(max_len=4),
        corpus=corpus_path,
        seeds=[0],
        out_diagnostics=str(tmp_path / "diag.jsonl"),
    )
    rows = run_experiment(cfg)
    write_diagnostics(cfg.out_diagnostics, rows)
    lines = (tmp_path / "diag.jsonl").read_text().splitlines()
    assert len(lines) == 6  # one record per example
    first = json.loads(lines[0])
    assert "steps" in first and "tokens" in first and first["seed"] == 0
    assert all("p_theta_chosen" in s for s in first["steps"])


def test_session_seeds_shared_across_alpha(corpus_path):
    # the per-example session seed must not depend on alpha, so contrastive
    # comparisons are paired
    corpus = load_corpus(corpus_path)
    cfg_a = ExperimentConfig(model=ModelConfig(kind="composer", vocab=20, seed=5),
                             decode=DecodeConfig(max_len=4, alpha=0.0),
                             corpus=corpus_path, seeds=[3])
    cfg_b = dataclasses.replace(
        cfg_a, decode=dataclasses.replace(cfg_a.decode, alpha=0.3))
    row_a = run_seed_row(cfg_a, corpus, 3)
    row_b = run_seed_row(cfg_b, corpus, 3)
    assert row_a.error == "" and row_b.error == ""
    assert combine(3, 0) == combine(3, 0)  # session seed derivation is stable


def test_engine_bug_in_session_propagates(corpus_path, monkeypatch):
    # only bad input (ValueError and its ConfigError/CorpusError subclasses)
    # becomes a row's error cell; anything else is an engine bug
    def broken_decode(*args, **kwargs):
        raise TypeError("engine bug")

    monkeypatch.setattr(experiment, "decode", broken_decode)
    cfg = ExperimentConfig(model=ModelConfig(kind="composer", vocab=20, seed=5),
                           decode=DecodeConfig(max_len=4), corpus=corpus_path,
                           seeds=[0])
    with pytest.raises(TypeError, match="engine bug"):
        run_seed_row(cfg, load_corpus(corpus_path), 0)


def test_row_timing_adds_up_the_sessions_own_timings(corpus_path, monkeypatch):
    # a row's wall time is the sum of its sessions' DecodeResult.wall_seconds,
    # not a second clock around each call
    real_decode, results = experiment.decode, []

    def keeping_decode(*args, **kwargs):
        results.append(real_decode(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiment, "decode", keeping_decode)
    cfg = ExperimentConfig(model=ModelConfig(kind="composer", vocab=20, seed=5),
                           decode=DecodeConfig(max_len=4), corpus=corpus_path,
                           seeds=[0])
    row = run_seed_row(cfg, load_corpus(corpus_path), 0)
    assert len(results) == row.n_examples == 6
    wall = sum(r.wall_seconds for r in results)
    assert row.wall_seconds == wall > 0.0
    assert row.tps == sum(len(r.tokens) for r in results) / wall


def test_decode_diagnostics_file_shares_the_run_step_record(corpus_path, tmp_path):
    common = ["--corpus", corpus_path, "--set", "decode.max_len=4"]
    summary_path, full_path, run_path = (tmp_path / n for n in ("summary.json", "full.json",
                                                                 "run.jsonl"))
    assert main(["decode", *common, "--diagnostics", str(summary_path)]) == 0
    assert main(["decode", *common, "--diagnostics", str(full_path), "--full-diag"]) == 0
    assert main(["run", *common, "--out", str(tmp_path / "rows.csv"),
                 "--diagnostics", str(run_path)]) == 0
    summary, full = json.loads(summary_path.read_text()), json.loads(full_path.read_text())
    assert set(summary) == {"steps"}
    assert set(full) == {"steps", "forwards"} and full["forwards"]
    assert full["steps"] == summary["steps"]
    run_steps = json.loads(run_path.read_text().splitlines()[0])["steps"]
    assert summary["steps"] and run_steps
    keys = list(run_steps[0])
    assert "is_eos" in keys
    assert all(list(step) == keys for step in summary["steps"] + run_steps)


# The full-diagnostics outputs of ``attn-stats`` and ``decode --full-diag``,
# pinned by sha256 with a shared mask and with per-head masks (greedy, then
# width-3 beam): these read every attention row the engine records.
FULL_DIAG_ARGS = ["--set", "sparsify.l_min=4", "--set", "sparsify.sparsity_rate=0.5"]
PER_HEAD = ["--set", "sparsify.per_head_mask=true"]
FULL_DIAG_PINS = [
    ("attn-stats", [], {
        "sorted_scores.csv": "c90fa2c7a50f149e8d8875269f371667147d73ea055d2ea8cd1f70382dec45de",
        "attention_density.csv":
            "688a6bc70bcf4a4b7cf91503878caa9bd895c2f5fc73f7d327996e609bce7e03"}),
    ("attn-stats", PER_HEAD, {
        "sorted_scores.csv": "ff7f554848c93f64e7e57fac7a48717b5cd8c590213c4619784894a6cfc4fa7e",
        "attention_density.csv":
            "1882217784ea3c63d87099aad34a5acca56ee83c6d9ad87c3d15b1b6db39804c"}),
    ("decode", [], {
        "diag.json": "5fd3d76d509b022d6a158e7bd6d95dd79997c530cdf82cf96c2e500d12ab20c4"}),
    # re-captured when ``retained_raw`` began counting each head's own mask
    # (it counted every raw row under per-head masks); no other byte moved
    ("decode", PER_HEAD + ["--set", "decode.mode=beam", "--set", "decode.beam_size=3"], {
        "diag.json": "22ca84a7750d9e151be16d0ad26f93cadd8b52b6e86fb8762f3d314611952050"}),
]


def test_full_diagnostics_outputs_match_pins(tmp_path):
    for i, (command, extra, pins) in enumerate(FULL_DIAG_PINS):
        out = tmp_path / str(i)
        out.mkdir()
        if command == "attn-stats":
            argv = ["attn-stats", "--out-dir", str(out)]
        else:
            argv = ["decode", "--image", "4,5,6", "--prompt", "1,7,9,11", "--full-diag",
                    "--diagnostics", str(out / "diag.json")]
        assert main(argv + FULL_DIAG_ARGS + extra) == 0
        for name, digest in pins.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, \
                (command, extra, name)
