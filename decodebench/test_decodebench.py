"""Tests of the benchmark itself: inputs, the output gate, the session clock
and the tracer.

    PYTHONPATH=src python3 -m pytest -q decodebench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from decodebench import run  # noqa: E402
from decodebench.tracer import Tracer  # noqa: E402
from decodebench.workloads import (WORKLOADS, PrefillClock, SessionLog,  # noqa: E402
                                   load_pinned, permutation)
from sparsevcd import decoding, models, numerics, vats  # noqa: E402
from sparsevcd.cache import KvCache  # noqa: E402
from sparsevcd.config import ModelConfig  # noqa: E402


def _layer0_keys(model, tokens):
    kv = model.new_cache()
    for emb in model.embed_text(tokens):
        model.forward_step(kv, emb)
    return np.unique(kv.key_rows(0, 0), axis=0).shape[0]


def test_inputs_are_seeded_and_not_all_bos():
    w = WORKLOADS["logical-512"]
    case = w.case(3)
    assert case == w.case(3)
    assert case != w.case(4)
    assert case.image.n_tokens == 128
    assert case.image.n_tokens + len(case.prompt) == 512
    assert len(set(case.prompt)) > 32
    # no positional encoding: repeated tokens give one distinct layer-0 key
    model = models.model_from_config(ModelConfig())
    assert _layer0_keys(model, [1] * 8) == 1
    assert _layer0_keys(model, case.prompt[:8]) == len(set(case.prompt[:8]))


def test_case_order_is_a_seeded_permutation():
    order = permutation(16, 5, 1)
    assert order == permutation(16, 5, 1)
    assert sorted(order) == list(range(16))
    assert order != permutation(16, 6, 1)


def test_prefill_clock_forwards_attributes_and_keeps_outputs():
    transformer = models.model_from_config(ModelConfig())
    composer = models.model_from_config(WORKLOADS["composer-corpus"].config.model)
    assert hasattr(PrefillClock(transformer), "forward_sequence")
    assert not hasattr(PrefillClock(composer), "forward_sequence")

    w = WORKLOADS["contrastive-deep-256"]
    state = {"model": transformer}
    case = w.case(0, scale=8)
    log = SessionLog()
    clocked = w.run_case(state, case, log, max_len=4)
    bare = w.run_case(state, case, max_len=4)
    assert clocked.tokens == bare.tokens
    assert 0 < log.prefill[0] < log.session[0]
    assert log.tokens == [4] and log.peak_rows == [bare.peak_rows]


def test_tracer_restores_bindings_and_self_times_fit_the_session():
    before = (decoding.cluster_pruned, models.matvec, KvCache.__dict__["clone"])
    w = WORKLOADS["logical-512"]
    model = models.model_from_config(ModelConfig())
    tracer = Tracer()
    tracer.install()
    try:
        assert decoding.cluster_pruned.__wrapped__ is vats.cluster_pruned.__wrapped__
        assert models.matvec is numerics.matvec is not before[1]
        tracer.op = 0
        t0 = time.perf_counter()
        result = w.run_case({"model": model}, w.case(0, scale=8), max_len=3)
        wall = time.perf_counter() - t0
        tracer.op = -1
    finally:
        tracer.uninstall()
    assert Tracer.leftover_wrappers() == []
    assert (decoding.cluster_pruned, models.matvec, KvCache.__dict__["clone"]) == before
    assert tracer.missing == []

    totals = tracer.totals()
    assert totals["decoding.decode"][0] == 1
    assert totals["models.forward_step.prefill"][0] == 64
    assert totals["models.forward_step.decode"][0] == len(result.tokens) == 3
    assert totals["vats.cluster_pruned"][0] > 0
    assert tracer.work["vats.cluster_pruned.points"] > 0
    assert tracer.self_ns().min() >= 0
    assert tracer.sessions == 1
    assert 0 < tracer.session_self_seconds()[0] <= wall


def test_gate_counts_a_changed_output_as_a_failed_operation():
    w = WORKLOADS["composer-corpus"]
    state = w.setup(0)
    pinned = load_pinned()[w.name]
    assert run.run_one(w, state, pinned, 0, None).ok
    run_seed = state["run_seeds"][0]
    tampered = [list(rows) for rows in pinned]
    chair, recall, error = tampered[state["key"]][run_seed]
    tampered[state["key"]][run_seed] = [chair + 1e-12, recall, error]
    assert not run.run_one(w, state, tampered, 0, None).ok


def test_transformer_session_matches_its_pin():
    w = WORKLOADS["contrastive-deep-256"]
    state = {"model": models.model_from_config(ModelConfig()),
             "cases": [(5, w.case(5))]}
    pinned = load_pinned()[w.name]
    assert w.run_op(state, 0, pinned, None) == (1, True)
    assert w.run_op(state, 0, ["0" * 64] * len(pinned), None) == (1, False)


def test_times_are_scaled_by_the_probe(monkeypatch):
    import decodebench.probe
    # a probe twice as slow as nominal: the host runs at half speed
    monkeypatch.setattr(decodebench.probe, "probe", lambda: 2 * decodebench.probe.NOMINAL_S)
    w = WORKLOADS["composer-corpus"]
    report = {}
    ops, metrics = run.untraced(w, 0, 0.5, load_pinned()[w.name], report)
    raw = report["unscaled"]
    assert all(op.ok for op in ops)
    for name in ("setup_s", "session_s_p50", "prefill_s_p50"):
        assert metrics[name][0] == pytest.approx(raw[name] / 2)
    for name in ("decode_tok_per_s", "examples_per_s"):
        assert metrics[name][0] == pytest.approx(raw[name] * 2)


def test_benchmark_json_lists_what_the_driver_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "decodebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_untraced_and_traced_runs_print_a_result_last():
    for trace, names in (("0", run.END_TO_END), ("1", run.per_layer_units())):
        out = _cli("--workload", "composer-corpus", "--seed", "1", "--seconds", "0.5",
                   "--trace", trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_cli_fails_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "decodebench", tmp_path / "decodebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli("--workload", "logical-512", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
