"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sparsevcd.cache import KvCache
from sparsevcd.config import (DecodeConfig, ExperimentConfig, ModelConfig,
                              SparsifyConfig)
from sparsevcd.corpus import GeneratorSpec, gen_corpus, write_corpus
from sparsevcd.decoding import decode
from sparsevcd.experiment import bench_sparse_vs_full, bench_stop_layers, run_seed_row
from sparsevcd.models import ImageDescriptor, ToyTransformer
from sparsevcd.numerics import stable_softmax
from sparsevcd.oracle import (brute_force_mask, objective_value, reference_clustering,
                              reference_full_decode)
from sparsevcd.sac import calibrate_scores
from sparsevcd.vats import (cluster_pruned, pairwise_distances, select_topS,
                            visual_saliency)


def distances(points):
    """The ``(n, n)`` matrix ``cluster_pruned`` takes, of ``(n, features)`` points."""
    return pairwise_distances(np.ascontiguousarray(points.T))


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_c01_vats_exact_optimality():
    with criterion("C1 exact optimality of top-S selection vs brute force"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for length in range(4, 13):
            for s in range(1, length + 1):
                for _ in range(100):
                    keys = rng.normal(size=(length, 4))
                    q = rng.normal(size=4)
                    p_raw = rng.random(length)
                    p = p_raw / p_raw.sum()
                    lam = float(rng.random())
                    ip = np.array([float(np.dot(keys[i], q)) for i in range(length)])
                    g = ip * ip
                    mask = select_topS(g + lam * p, s, 0)
                    engine_obj = objective_value(mask, g, p, lam)
                    _, best_obj = brute_force_mask(q, keys, p, lam, s)
                    assert abs(engine_obj - best_obj) < 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c02_disabled_mechanism_identity():
    with criterion("C2 disabled-mechanism decode identical to reference (50 seeds x 128)"):
        scfg = SparsifyConfig(sparsity_rate=1.0, beta=0.0, w_recent=0)
        dcfg = DecodeConfig(alpha=0.0, gamma_apc=0.0, visual_mask_rate=0.0,
                            max_len=128, eos_id=-1, seed=0)
        for seed in range(50):
            model = ToyTransformer(1000 + seed, d_model=16, layers=2,
                                   heads=2, vocab=64)
            img = ImageDescriptor((4 + seed % 8,), tokens_per_finding=2)
            prompt = [1, 2 + seed % 4]
            engine = decode(model, img, prompt, scfg, dcfg)
            reference = reference_full_decode(model, prompt, img, max_len=128,
                                              eos_id=-1)
            assert engine.tokens == reference, f"seed {seed} diverged"
            assert len(engine.tokens) == 128


def test_c03_normalization_suite():
    with criterion("C3 normalisation: P, w, attention rows, merge weights sum to 1"):
        rng = np.random.default_rng(33)

        cache = KvCache(1, 1, 2)
        for i in range(12):
            cache.append(0, [rng.normal(size=2)], [rng.normal(size=2)],
                         visual=(i < 3))
        for _ in range(1000):
            cache.r_view(0, 0)[:] = rng.normal(size=12) * 4
            p = visual_saliency(cache, [0])
            assert abs(p.sum() - 1.0) < 1e-9

        for _ in range(1000):
            w = stable_softmax(rng.normal(size=int(rng.integers(1, 40))) * 5)
            assert abs(w.sum() - 1.0) < 1e-9

        acache = KvCache(1, 1, 4)
        for _ in range(24):
            acache.append(0, [rng.normal(size=4)], [rng.normal(size=4)])
        for _ in range(1000):
            mask = rng.random(24) < 0.7
            if not mask.any():
                mask[0] = True
            acache.set_sparsification(0, mask)
            row = acache.attend(0, rng.normal(size=(1, 4))).rows[0]
            assert abs(row.sum() - 1.0) < 1e-9
            assert np.all(row >= 0.0)

        total_clusters = 0
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            out = cluster_pruned(distances(rng.normal(size=(n, 3))), rng.random(n), k=5)
            for w in np.split(out.weights, np.cumsum(out.sizes)[:-1]):
                assert abs(w.sum() - 1.0) < 1e-9
                total_clusters += 1
        assert total_clusters >= 1000


def test_c04_sac_identities():
    with criterion("C4 calibration identities and penalty monotonicity"):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            s = rng.normal(size=int(rng.integers(1, 30)))
            out = calibrate_scores(s, rng.dirichlet(np.ones(s.shape[0])), 0.0)
            assert np.array_equal(out, s)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            s_val = float(rng.random() * 9 + 0.05)
            w = rng.dirichlet(np.ones(n))
            beta = float(rng.random() * 1.5 + 0.01)
            out = calibrate_scores(np.full(n, s_val), w, beta)
            i, j = np.argsort(w)[[0, -1]]
            if w[j] > w[i]:
                assert out[j] < out[i]


def test_c05_apc_safety():
    with criterion("C5 APC safety: emitted tokens never below gamma * max"):
        scfg = SparsifyConfig(l_min=8)
        audited = 0
        run = 0
        for gamma in (0.05, 0.1, 0.5):
            for k in range(17):
                if run >= 50:
                    break
                run += 1
                model = ToyTransformer(500 + run, d_model=16, layers=2,
                                       heads=2, vocab=64)
                img = ImageDescriptor((4 + run % 6, 11), tokens_per_finding=2)
                dcfg = DecodeConfig(alpha=0.3, gamma_apc=gamma, max_len=16,
                                    seed=run, eos_id=-1)
                res = decode(model, img, [1], scfg, dcfg)
                assert res.diagnostics
                for d in res.diagnostics:
                    assert d.p_theta_chosen >= gamma * d.p_theta_max - 1e-15
                    audited += 1
        assert run == 50 and audited >= 50 * 16


def test_c06_clustering_conformance():
    with criterion("C6 clustering matches the independent reference exactly"):
        rng = np.random.default_rng(66)
        for trial in range(200):
            n = int(rng.integers(1, 33))
            dim = int(rng.integers(2, 6))
            pts = rng.normal(size=(n, dim)) * float(rng.random() * 3 + 0.5)
            deltas = rng.random(n)
            k = int(rng.integers(1, 8))
            n_clusters = max(1, int(np.ceil(0.25 * n)))
            engine = cluster_pruned(distances(pts), deltas, k, rho_merge=0.25)
            ref_labels, ref_centers = reference_clustering(pts, k, n_clusters)
            assert list(engine.labels) == list(ref_labels), f"trial {trial}"
            assert list(engine.centers) == list(ref_centers)
            seen = engine.members
            assert sorted(seen.tolist()) == list(range(n))
            assert engine.n_clusters <= n
            for w in np.split(engine.weights, np.cumsum(engine.sizes)[:-1]):
                assert abs(w.sum() - 1.0) < 1e-9


def test_c07_hallucination_reduction():
    with criterion("C7 contrast lowers CHAIR on the planted-prior corpus"):
        t0 = time.perf_counter()
        corpus = gen_corpus(GeneratorSpec(prior_rate=0.8), seed=7, n=200)
        mc = ModelConfig(kind="composer", vocab=20, seed=11,
                         a_vis=2.0, b_prior=3.0, sigma=0.1)

        def run(alpha, run_seed):
            row = run_seed_row(ExperimentConfig(
                model=mc, decode=DecodeConfig(alpha=alpha, max_len=6)), corpus, run_seed)
            return row.chair, row.recall

        wins = 0
        recalls_0, recalls_3 = [], []
        for seed in range(50):
            c0, r0 = run(0.0, seed)
            c3, r3 = run(0.3, seed)
            wins += c3 < c0
            recalls_0.append(r0)
            recalls_3.append(r3)
        elapsed = time.perf_counter() - t0
        mean_r0 = sum(recalls_0) / len(recalls_0)
        mean_r3 = sum(recalls_3) / len(recalls_3)
        assert wins >= 40, f"CHAIR improved in only {wins}/50 seeds"
        assert mean_r3 >= mean_r0 - 0.02, f"recall dropped {mean_r0} -> {mean_r3}"
        assert elapsed < 300.0, f"took {elapsed:.0f}s"


def test_c08_efficiency_direction():
    with criterion("C8 sparse decoding wins wall time; tps falls with stop layer"):
        cfg = ExperimentConfig(model=ModelConfig(d_model=32, layers=2, heads=2,
                                                 vocab=64))
        report = bench_sparse_vs_full(cfg, prefix_len=2048, decode_len=32,
                                      repeats=5)
        assert report["sparse_faster"], report
        assert report["sparse_peak_rows"] < report["full_peak_rows"]
        tps = bench_stop_layers(cfg, repeats=5, prefix_len=96, decode_len=24)
        layers_sorted = sorted(tps)
        for lo, hi in zip(layers_sorted[:-1], layers_sorted[1:]):
            assert tps[hi] <= tps[lo], f"tps rose from stop layer {lo} to {hi}: {tps}"


def test_c09_error_monotonicity():
    with criterion("C9 attention error non-increasing in the retention budget"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            length = int(rng.integers(4, 24))
            g = rng.normal(size=length) ** 2
            previous = None
            for s in range(1, length + 1):
                mask = select_topS(g, s, 0)
                err = float(g[~mask].sum())
                if previous is not None:
                    assert err <= previous + 1e-15
                previous = err


def test_c10_run_and_sweep_determinism(tmp_path):
    with criterion("C10 run and sweep outputs byte-identical across executions"):
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, gen_corpus(GeneratorSpec(), seed=3, n=10))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": {"kind": "composer", "vocab": 20, "seed": 5},
            "decode": {"max_len": 5},
            "seeds": [0, 1, 2],
        }))

        def cli(*args):
            out = subprocess.run([sys.executable, "-m", "sparsevcd.cli", *args],
                                 capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            return out

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli("run", "--config", str(cfg_path), "--corpus", str(corpus_path),
            "--out", str(a))
        cli("run", "--config", str(cfg_path), "--corpus", str(corpus_path),
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

        sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
        cli("sweep", "--config", str(cfg_path), "--corpus", str(corpus_path),
            "--axis", "alpha", "--grid", "0,0.3", "--out", str(sa))
        cli("sweep", "--config", str(cfg_path), "--corpus", str(corpus_path),
            "--axis", "alpha", "--grid", "0,0.3", "--out", str(sb))
        assert sa.read_bytes() == sb.read_bytes()
