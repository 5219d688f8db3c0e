"""Hallucination/quality metrics over generated finding sets."""

from __future__ import annotations


def chair(generated, reference) -> float:
    """Hallucination rate |G - S| / |G| over finding sets.

    An empty generated set scores 0: no claims means no hallucinated claims
    (callers that care can test ``len(generated) == 0`` themselves).
    """
    g = set(generated)
    s = set(reference)
    if not g:
        return 0.0
    return len(g - s) / len(g)


def recall(generated, reference) -> float:
    """Key-findings recall |G ∩ S| / |S|."""
    g = set(generated)
    s = set(reference)
    if not s:
        raise ValueError("recall: reference finding set is empty")
    return len(g & s) / len(s)


def closed_ended_accuracy(predictions, labels) -> float:
    """Fraction of exact matches between yes/no predictions and labels."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError("closed_ended_accuracy: length mismatch")
    if not predictions:
        raise ValueError("closed_ended_accuracy: empty inputs")
    hits = sum(1 for p, l in zip(predictions, labels) if p == l)
    return hits / len(predictions)
