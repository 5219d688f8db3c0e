import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd import oracle
from sparsevcd.models import ImageDescriptor, ToyTransformer
from sparsevcd.oracle import (brute_force_mask, reference_clustering,
                              reference_full_decode, reference_hidden_states)


def test_bruteforce_two_tokens_hand_enumeration():
    # g = [4, 1]: retaining token 0 leaves error 1
    keys = np.array([[2.0, 0.0], [1.0, 0.0]])
    q = np.array([1.0, 0.0])
    mask, obj = brute_force_mask(q, keys, np.array([0.5, 0.5]), 0.0, 1)
    assert list(mask) == [True, False]
    assert obj == 1.0


def test_bruteforce_forced_full_retention():
    keys = np.random.default_rng(1).normal(size=(3, 2))
    q = np.array([1.0, 2.0])
    p = np.array([0.2, 0.3, 0.5])
    lam = 0.7
    mask, obj = brute_force_mask(q, keys, p, lam, 3)
    assert mask.all()
    assert abs(obj - (-lam)) < 1e-12


def test_bruteforce_dual_algebraic_form():
    rng = np.random.default_rng(8)
    for _ in range(20):
        keys = rng.normal(size=(10, 3))
        q = rng.normal(size=3)
        p = rng.dirichlet(np.ones(10))
        lam = float(rng.random())
        _, obj = brute_force_mask(q, keys, p, lam, 8)
        g = np.array([float(np.dot(keys[i], q)) ** 2 for i in range(10)])
        delta = g + lam * p
        top8 = np.sort(np.argsort(-delta)[:8])
        algebraic = g.sum() - delta[top8].sum()
        assert abs(obj - algebraic) < 1e-12


def test_bruteforce_refuses_large_instances():
    with pytest.raises(ValueError):
        brute_force_mask(np.zeros(2), np.zeros((21, 2)), np.zeros(21), 0.0, 3)


def test_reference_decode_deterministic_and_bounded():
    model = ToyTransformer(9, d_model=16, layers=2, heads=2, vocab=64)
    img = ImageDescriptor((5,), 2)
    a = reference_full_decode(model, [1], img, max_len=12)
    b = reference_full_decode(model, [1], img, max_len=12)
    assert a == b
    assert len(a) <= 12


def test_reference_decode_rejects_other_models():
    class NotATransformer:
        pass

    with pytest.raises(TypeError):
        reference_full_decode(NotATransformer(), [1],
                              ImageDescriptor((4,), 1), 4)


def test_reference_clustering_hand_checked_four_points():
    # two tight pairs far apart; k=1, two clusters
    pts = [[0.0, 0.0], [0.1, 0.0], [9.0, 9.0], [9.1, 9.0]]
    labels, centers = reference_clustering(pts, 1, 2)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]
    assert len(centers) == 2


def test_oracle_imports_no_engine_module():
    """The oracle checks the engine only while it shares none of its code."""
    engine = {"cache", "vats", "sac", "decoding", "numerics"}
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    assert not {f"sparsevcd.{m}" for m in engine} & imported


@given(st.sampled_from([(4, 1), (8, 2), (12, 3), (16, 2)]), st.integers(1, 3),
       st.integers(1, 150), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sequence_forward_rows_are_oracle_hidden_states_bitwise(dims, layers, n, seed):
    d_model, heads = dims
    model = ToyTransformer(seed % 1000, d_model=d_model, layers=layers,
                           heads=heads, vocab=64)
    rng = np.random.default_rng(seed)
    embs = [model.visual_base_embedding(int(t)) if is_visual else model.embed_text([int(t)])[0]
            for is_visual, t in zip(rng.random(n) < 0.4, rng.integers(0, 64, n))]
    want = reference_hidden_states(model, embs)
    assert want.shape == (n, d_model)
    assert model.forward_sequence(embs).tobytes() == want.tobytes()
