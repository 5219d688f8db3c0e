import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd.metrics import chair, closed_ended_accuracy, recall


def test_chair_subset_is_zero():
    assert chair({4, 5}, {4, 5, 6}) == 0.0


def test_chair_half_hallucinated():
    assert chair({"a", "b"}, {"b"}) == 0.5


def test_chair_empty_generated_is_zero():
    assert chair(set(), {1, 2}) == 0.0


def test_chair_matches_naive_recount():
    rng = random.Random(3)
    for _ in range(200):
        g = {rng.randrange(12) for _ in range(rng.randrange(8))}
        s = {rng.randrange(12) for _ in range(rng.randrange(8))}
        expected = (sum(1 for x in g if x not in s) / len(g)) if g else 0.0
        assert chair(g, s) == expected


def test_recall_examples():
    assert recall({1, 2}, {1, 2}) == 1.0
    assert recall({3}, {1, 2}) == 0.0
    assert recall({"a"}, {"a", "b"}) == 0.5
    with pytest.raises(ValueError):
        recall({1}, set())


def test_accuracy_examples():
    assert closed_ended_accuracy(["yes", "no"], ["yes", "no"]) == 1.0
    assert closed_ended_accuracy(["yes", "yes"], ["no", "no"]) == 0.0
    assert closed_ended_accuracy(["yes", "no", "yes", "yes"],
                                 ["yes", "no", "yes", "no"]) == 0.75
    with pytest.raises(ValueError):
        closed_ended_accuracy(["yes"], ["yes", "no"])
    with pytest.raises(ValueError):
        closed_ended_accuracy([], [])


@given(st.sets(st.integers(0, 20), min_size=1),
       st.sets(st.integers(0, 20)))
@settings(max_examples=200, deadline=None)
def test_chair_complement_identity(g, s):
    assert abs(chair(g, s) + len(g & s) / len(g) - 1.0) < 1e-12


@given(st.lists(st.integers(0, 20), min_size=1),
       st.lists(st.integers(0, 20), min_size=1))
@settings(max_examples=100, deadline=None)
def test_metrics_permutation_invariant(g_list, s_list):
    g1, g2 = list(g_list), list(reversed(g_list))
    s1, s2 = list(s_list), list(reversed(s_list))
    assert chair(g1, s1) == chair(g2, s2)
    assert recall(g1, s1) == recall(g2, s2)
