import dataclasses
import json
import subprocess
import sys
from concurrent.futures import Future

import pytest

from sparsevcd import experiment
from sparsevcd.cli import main
from sparsevcd.config import (DecodeConfig, ExperimentConfig, ModelConfig,
                              SparsifyConfig, experiment_from_dict, flatten_config,
                              load_experiment)
from sparsevcd.corpus import GeneratorSpec, gen_corpus, load_corpus, write_corpus
from sparsevcd.errors import ConfigError
from sparsevcd.experiment import (apply_axis, dump_attention_stats, run_experiment,
                                  run_seed_row, sweep, write_rows_csv)
from sparsevcd.rng import combine


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_corpus(path, gen_corpus(GeneratorSpec(), seed=2, n=8))
    return str(path)


def composer_cfg(small_corpus, **decode_kw):
    return ExperimentConfig(
        model=ModelConfig(kind="composer", vocab=20, seed=5),
        sparsify=SparsifyConfig(),
        decode=DecodeConfig(max_len=6, **decode_kw),
        corpus=small_corpus,
        seeds=[0, 1],
    )


def transformer_cfg(small_corpus):
    return ExperimentConfig(
        model=ModelConfig(kind="transformer", seed=5),
        sparsify=SparsifyConfig(l_min=8),
        decode=DecodeConfig(max_len=5),
        corpus=small_corpus,
        seeds=[0],
    )


def test_run_rows_have_metrics(small_corpus):
    rows = run_experiment(composer_cfg(small_corpus))
    assert len(rows) == 2
    for row in rows:
        assert row.error == ""
        assert 0.0 <= row.chair <= 1.0
        assert 0.0 <= row.recall <= 1.0
        assert row.n_examples == 8


def test_composer_row_builds_once_and_reseeds_each_example(small_corpus, tmp_path,
                                                           monkeypatch, capsys):
    # one checked composer build per row; each example's composer carries the
    # seed and the noise bytes of a build with the example's own seed
    cfg, corpus = composer_cfg(small_corpus), load_corpus(small_corpus)
    build, real_decode = experiment.model_from_config, experiment.decode
    builds, models = [], []

    def counting_build(model_cfg):
        builds.append(model_cfg)
        return build(model_cfg)

    def keeping_decode(model, *args, **kwargs):
        models.append(model)
        return real_decode(model, *args, **kwargs)

    monkeypatch.setattr(experiment, "model_from_config", counting_build)
    monkeypatch.setattr(experiment, "decode", keeping_decode)
    for run_seed in (0, 7):
        builds.clear()
        models.clear()
        assert experiment.run_seed_row(cfg, corpus, run_seed).error == ""
        assert builds == [cfg.model]
        assert len(models) == len(corpus.examples) == 8
        for idx, model in enumerate(models):
            own = build(dataclasses.replace(
                cfg.model, seed=combine(cfg.model.seed, run_seed, idx)))
            assert model.seed == own.seed
            assert model.noise.tobytes() == own.noise.tobytes()
    # a composer config the model rejects (its prior does not sum to 1) still
    # fails run as a config error, before any example
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"kind": "composer", "vocab": 20,
                                          "finding_ids": [4, 5], "prior": [0.5, 0.4]}}))
    models.clear()
    assert main(["run", "--config", str(path), "--corpus", small_corpus,
                 "--out", str(tmp_path / "rows.csv")]) == 1
    assert "config error" in capsys.readouterr().err
    assert models == [] and not (tmp_path / "rows.csv").exists()


def test_decode_seed_does_not_reach_run_sessions(small_corpus, tmp_path, capsys):
    # run_seed_row seeds each session from the run seed and the example's
    # index, so run and sweep refuse a decode.seed their rows would record
    # but no session would use
    cfg = composer_cfg(small_corpus, seed=99)
    with pytest.raises(ConfigError, match="decode.seed"):
        run_experiment(cfg)
    with pytest.raises(ConfigError, match="decode.seed"):
        sweep(cfg, "alpha", [0.0])
    path, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    path.write_text(json.dumps(dataclasses.asdict(composer_cfg(small_corpus))))
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--set", "decode.seed=99"]) == 1
    assert "decode.seed" in capsys.readouterr().err and not out.exists()
    # run_seed_row itself still takes any decode.seed, and ignores it
    corpus = load_corpus(small_corpus)
    a, b = (run_seed_row(composer_cfg(small_corpus, seed=s), corpus, 1) for s in (0, 99))
    assert b.config["decode.seed"] == 99

    def outcome(r):
        return r.seed, r.chair, r.recall, r.attn_error_mean, r.empty_generated, r.error

    assert outcome(a) == outcome(b)


def test_run_byte_identical(small_corpus, tmp_path):
    cfg = composer_cfg(small_corpus)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(a, run_experiment(cfg))
    write_rows_csv(b, run_experiment(cfg))
    assert a.read_bytes() == b.read_bytes()


def test_run_workers_go_through_the_pool_with_the_same_bytes(small_corpus, tmp_path,
                                                          monkeypatch):
    pools = []

    class InlinePool:
        """Runs each submitted task at once, in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dataclasses.asdict(composer_cfg(small_corpus))))
    outputs = []
    for workers in ("1", "2"):
        out, diag = tmp_path / f"rows{workers}.csv", tmp_path / f"diag{workers}.jsonl"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--diagnostics", str(diag), "--workers", workers]) == 0
        outputs.append((out.read_bytes(), diag.read_bytes()))
    assert pools == [2]
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"\n") == 2 * 8  # two seeds of eight examples


def test_sweep_single_point_equals_run(small_corpus):
    cfg = composer_cfg(small_corpus)
    run_rows = run_experiment(cfg)
    sweep_rows = sweep(cfg, "alpha", [cfg.decode.alpha])
    assert len(sweep_rows) == len(run_rows)
    for a, b in zip(sweep_rows, run_rows):
        assert a.chair == b.chair and a.recall == b.recall and a.seed == b.seed


def test_sweep_cardinality_and_order(small_corpus):
    cfg = composer_cfg(small_corpus)
    grid = [0.0, 0.3, 0.6]
    rows = sweep(cfg, "alpha", grid)
    assert len(rows) == len(grid) * len(cfg.seeds)
    expected = [(g, s) for g in grid for s in sorted(cfg.seeds)]
    assert [(r.sweep_value, r.seed) for r in rows] == expected


def test_sweep_unknown_axis(small_corpus):
    with pytest.raises(ConfigError):
        sweep(composer_cfg(small_corpus), "temperature", [1.0])
    with pytest.raises(ConfigError):
        apply_axis(composer_cfg(small_corpus), "nope", 1)


# each axis, the one flatten_config column it sets, a value of another
# numeric type, and that value in the field's type
@pytest.mark.parametrize("axis,column,value,expected", [
    ("alpha", "decode.alpha", 1, 1.0),
    ("beta", "sparsify.beta", 0, 0.0),
    ("lambda", "sparsify.lambda_", 1, 1.0),
    ("stop_layer", "decode.stop_layer", 1.0, 1),
    ("sparsity", "sparsify.sparsity_rate", 1, 1.0),
])
def test_each_sweep_axis_sets_its_one_column(small_corpus, axis, column, value, expected):
    cfg = transformer_cfg(small_corpus)
    before = flatten_config(cfg)
    after = flatten_config(apply_axis(cfg, axis, value))
    assert [k for k in before if before[k] != after[k]] == [column]
    assert type(after[column]) is type(expected) and after[column] == expected
    assert flatten_config(cfg) == before


def test_sweep_alpha_reduces_chair(small_corpus):
    cfg = dataclasses.replace(composer_cfg(small_corpus), seeds=[0, 1, 2])
    rows = sweep(cfg, "alpha", [0.0, 0.3])
    by_alpha = {}
    for r in rows:
        by_alpha.setdefault(r.sweep_value, {})[r.seed] = r.chair
    wins = sum(1 for s in cfg.seeds if by_alpha[0.3][s] < by_alpha[0.0][s])
    assert wins >= 2


def test_csv_timing_columns_empty_by_default(small_corpus, tmp_path):
    cfg = composer_cfg(small_corpus)
    rows = run_experiment(cfg)
    path = tmp_path / "rows.csv"
    header = write_rows_csv(path, rows, timing=False)
    lines = path.read_text().splitlines()
    tps_idx = header.index("tps")
    wall_idx = header.index("wall_seconds")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[tps_idx] == "" and cells[wall_idx] == ""
    header2 = write_rows_csv(tmp_path / "t.csv", rows, timing=True)
    line = (tmp_path / "t.csv").read_text().splitlines()[1].split(",")
    assert line[header2.index("tps")] != ""


def test_attention_stats_outputs(tmp_path, small_corpus):
    cfg = transformer_cfg(small_corpus)
    report = dump_attention_stats(cfg, tmp_path / "stats", load_corpus(small_corpus))
    scores = (tmp_path / "stats" / "sorted_scores.csv").read_text().splitlines()
    assert len(scores) - 1 == report["rows_written"]
    # sorted non-decreasing within each step
    by_step = {}
    for line in scores[1:]:
        step, rank, score = line.split(",")
        by_step.setdefault(int(step), []).append(float(score))
    total = 0
    for step, vals in by_step.items():
        assert vals == sorted(vals)
        total += len(vals)
    assert total == report["rows_written"]
    density = (tmp_path / "stats" / "attention_density.csv").read_text().splitlines()
    assert density[0] == "bin_lo,bin_hi,visual_count,text_count"
    assert len(density) == 21


def test_attention_stats_refuses_composer(tmp_path, small_corpus):
    cfg = composer_cfg(small_corpus)
    with pytest.raises(ConfigError):
        dump_attention_stats(cfg, tmp_path / "x")


def test_config_document_roundtrip(tmp_path):
    doc = {
        "model": {"kind": "composer", "vocab": 20, "seed": 3},
        "sparsify": {"lambda": 0.2, "sparsity_rate": 0.9},
        "decode": {"alpha": 0.4, "max_len": 7},
        "seeds": [1, 2],
        "timing": True,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    cfg = load_experiment(p)
    assert cfg.sparsify.lambda_ == 0.2
    assert cfg.decode.alpha == 0.4
    with pytest.raises(ConfigError):
        experiment_from_dict({"unknown_section": {}})
    with pytest.raises(ConfigError):
        experiment_from_dict({"decode": {"alpha": -1}})
    # a mechanism is switched off by its own neutral value; there is no
    # second toggle block
    with pytest.raises(ConfigError, match="unknown config field ablation"):
        experiment_from_dict({"ablation": {"sac": False}})
    assert main(["decode", "--image", "4", "--set", "ablation.sac=false"]) == 1


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "sparsevcd.cli", *args],
                          capture_output=True, text=True)


def test_cli_end_to_end(tmp_path):
    corpus = tmp_path / "c.jsonl"
    out = _cli("gen-corpus", "--out", str(corpus), "--n", "6", "--seed", "4")
    assert out.returncode == 0, out.stderr

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "composer", "vocab": 20, "seed": 5},
        "decode": {"max_len": 5},
        "seeds": [0],
    }))
    res_csv = tmp_path / "rows.csv"
    out = _cli("run", "--config", str(cfg), "--corpus", str(corpus),
               "--out", str(res_csv))
    assert out.returncode == 0, out.stderr
    assert res_csv.exists()

    out = _cli("sweep", "--config", str(cfg), "--corpus", str(corpus),
               "--axis", "alpha", "--grid", "0,0.3",
               "--out", str(tmp_path / "sweep.csv"))
    assert out.returncode == 0, out.stderr

    out = _cli("decode", "--config", str(cfg), "--image", "4,7",
               "--prompt", "1")
    assert out.returncode == 0, out.stderr
    assert "tokens:" in out.stdout

    out = _cli("run", "--config", str(cfg), "--corpus",
               str(tmp_path / "missing.jsonl"), "--out", str(res_csv))
    assert out.returncode == 2

    out = _cli("sweep", "--config", str(cfg), "--corpus", str(corpus),
               "--axis", "alpha", "--grid", "", "--out", str(res_csv))
    assert out.returncode == 1

    out = _cli("run", "--config", str(cfg), "--corpus", str(corpus),
               "--out", str(res_csv), "--set", "decode.alpha=-3")
    assert out.returncode == 1


def test_cli_bench_and_attn_stats(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "transformer", "seed": 3}}))
    out = _cli("bench", "--config", str(cfg), "--prefix-len", "64",
               "--decode-len", "4", "--repeats", "1",
               "--out", str(tmp_path / "bench.json"))
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "bench.json").read_text())
    assert "full_median_seconds" in report and "sparse_median_seconds" in report
    assert report["sparse_faster"] == (report["sparse_full_ratio_median"] < 1.0)

    out = _cli("attn-stats", "--config", str(cfg), "--out-dir",
               str(tmp_path / "stats"))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "stats" / "sorted_scores.csv").exists()

    composer_cfg_path = tmp_path / "comp.json"
    composer_cfg_path.write_text(json.dumps(
        {"model": {"kind": "composer", "vocab": 20, "seed": 3}}))
    out = _cli("attn-stats", "--config", str(composer_cfg_path), "--out-dir",
               str(tmp_path / "nope"))
    assert out.returncode == 1  # refused for the composer


def test_beam_mode_on_composer(tmp_path):
    corpus = tmp_path / "c.jsonl"
    assert _cli("gen-corpus", "--out", str(corpus), "--n", "3",
                "--seed", "2").returncode == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "composer", "vocab": 20, "seed": 5},
        "decode": {"max_len": 4, "mode": "beam", "beam_size": 2},
        "seeds": [0],
    }))
    out = _cli("run", "--config", str(cfg), "--corpus", str(corpus),
               "--out", str(tmp_path / "beam.csv"))
    assert out.returncode == 0, out.stderr


def test_cli_determinism(tmp_path):
    corpus = tmp_path / "c.jsonl"
    assert _cli("gen-corpus", "--out", str(corpus), "--n", "5",
                "--seed", "1").returncode == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "composer", "vocab": 20, "seed": 5},
        "decode": {"max_len": 4},
        "seeds": [0, 1],
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _cli("run", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(a)).returncode == 0
    assert _cli("run", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
