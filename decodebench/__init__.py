"""Seeded decode benchmark for sparsevcd; see README.md."""
