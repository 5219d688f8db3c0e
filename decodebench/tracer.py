"""Span tracer that wraps the engine's public functions from outside.

Each target function is wrapped once and the wrapper is installed at every
binding the engine calls it through: every ``sparsevcd.*`` module attribute
that holds the function (``decoding.cluster_pruned``, ``models.matvec``, ...)
and the class attribute for methods (``KvCache.clone``,
``ToyTransformer.forward_step``, ...). ``uninstall`` puts every original back.

A span is (name, parent span, operation, session, start ns, end ns); the
session is the ``decode()`` call the span ran in, numbered from 0 among the
calls inside operations, or -1 outside one. Spans are kept in
flat integer arrays and written out once, when the run ends. A span's self
time is its duration minus the durations of its direct children, so the
wrapper's own bookkeeping is charged to the caller's span.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from sparsevcd import cache, corpus, decoding, experiment, models, numerics, sac, vats

_MARK = "__decodebench_span__"


def _rows(i):
    return lambda args, out: len(args[i])


def _cache_bytes(args, out):
    """Bytes of the live rows of the cache being cloned (computed)."""
    kv = args[0]
    return sum(kv.key_rows(l, h).nbytes + kv.value_rows(l, h).nbytes
               + kv.c_view(l, h).nbytes + kv.r_view(l, h).nbytes
               for l in range(kv.layers) for h in range(kv.heads))


# (span name, owner, attribute, {work metric: counter(args, result)})
FUNCTIONS = [
    ("numerics.matvec", numerics, "matvec", {"rows": _rows(0)}),
    ("numerics.weighted_sum_rows", numerics, "weighted_sum_rows", {"rows": _rows(1)}),
    ("numerics.stable_softmax", numerics, "stable_softmax", {"rows": _rows(0)}),
    ("cache.append", cache.KvCache, "append", {}),
    ("cache.support", cache.KvCache, "support", {"rows": lambda a, out: out.size}),
    ("cache.record_attention", cache.KvCache, "record_attention", {}),
    ("cache.compact", cache.KvCache, "compact",
     {"evicted": lambda a, out: out.evicted, "aggregates": lambda a, out: out.aggregates}),
    ("cache.clone", cache.KvCache, "clone", {"bytes": _cache_bytes}),
    ("cache.set_sparsification", cache.KvCache, "set_sparsification", {}),
    ("cache.clear_sparsification", cache.KvCache, "clear_sparsification", {}),
    ("vats.cluster_pruned", vats, "cluster_pruned", {"points": _rows(0)}),
    ("vats.select_topS", vats, "select_topS", {}),
    ("vats.visual_saliency", vats, "visual_saliency", {}),
    ("vats.layer_visual_saliency", vats, "layer_visual_saliency", {}),
    ("sac.calibrate_scores", sac, "calibrate_scores", {}),
    ("models.forward_step", models.ToyTransformer, "forward_step", {}),
    ("models.forward_step", models.PlantedPriorComposer, "forward_step", {}),
    ("models.lm_head", models.ToyTransformer, "lm_head", {}),
    ("models.lm_head", models.PlantedPriorComposer, "lm_head", {}),
    ("models.forward_sequence", models.ToyTransformer, "forward_sequence",
     {"positions": _rows(1)}),
    ("models.model_from_config", models, "model_from_config", {}),
    ("decoding.decode", decoding, "decode", {}),
    ("decoding.EngineAttention.attend", decoding.EngineAttention, "attend", {}),
    ("decoding.contrastive_logits", decoding, "contrastive_logits", {}),
    ("decoding.mask_visual", decoding, "mask_visual", {}),
    ("decoding.fuse", decoding, "fuse", {}),
    ("decoding.plausible_set", decoding, "plausible_set", {}),
    ("experiment.run_seed_row", experiment, "run_seed_row", {}),
    ("corpus.gen_corpus", corpus, "gen_corpus", {}),
]

# forward_step spans are named by phase: a call before the session's first
# lm_head call is prefill
PREFILL, DECODE = "models.forward_step.prefill", "models.forward_step.decode"


class Tracer:
    """Records spans for every wrapped call while installed.

    ``op`` is the index of the operation in progress, or -1 outside
    operations (set-up); work counters only count inside operations.
    """

    FIELDS = ("name", "parent", "op", "session", "start", "end")

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = {field: array("q") for field in self.FIELDS}
        self.stack = [-1]
        self.op = -1
        self.session = -1
        self.sessions = 0
        self.in_prefill = False
        self.work: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, work: dict):
        tracer = self
        names, parents, ops, sessions, starts, ends = (self.spans[f] for f in self.FIELDS)
        stack = self.stack
        now = time.perf_counter_ns
        nid = self._id(name)
        prefill_id, decode_id = self._id(PREFILL), self._id(DECODE)
        split = name == "models.forward_step"
        opens_session = name == "decoding.decode"
        ends_prefill = name == "models.lm_head"
        counters = [(f"{name}.{metric}", count) for metric, count in work.items()]

        def wrapper(*args, **kwargs):
            if opens_session:
                tracer.in_prefill = True
                if tracer.op >= 0:
                    tracer.session = tracer.sessions
                    tracer.sessions += 1
            elif ends_prefill:
                tracer.in_prefill = False
            idx = len(starts)
            names.append((prefill_id if tracer.in_prefill else decode_id) if split else nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            sessions.append(tracer.session)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if opens_session:
                    tracer.session = -1
            if counters and tracer.op >= 0:
                for key, count in counters:
                    tracer.work[key] += count(args, out)
            return out

        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sparsevcd" or n.startswith("sparsevcd."))]
        for name, owner, attr, work in FUNCTIONS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, work)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Bindings in any ``sparsevcd`` module or class that still hold a
        tracer wrapper; empty after a clean ``uninstall``."""
        found = []
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "sparsevcd" or modname.startswith("sparsevcd.")):
                continue
            for key, value in vars(module).items():
                if getattr(value, _MARK, False):
                    found.append(f"{modname}.{key}")
                if isinstance(value, type) and value.__module__ == modname:
                    found += [f"{modname}.{key}.{a}" for a, v in vars(value).items()
                              if getattr(v, _MARK, False)]
        return found

    # ------------------------------------------------------------ analysis

    def __len__(self) -> int:
        return len(self.spans["start"])

    def arrays(self) -> dict[str, np.ndarray]:
        return {f: np.frombuffer(a, dtype=np.int64) for f, a in self.spans.items()}

    def self_ns(self) -> np.ndarray:
        """Per-span self time: duration minus the direct children's durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.shape[0])
        return dur - covered.astype(np.int64)

    def totals(self, scope: str = "op") -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, over operation spans
        (``scope="op"``) or set-up spans (``scope="setup"``)."""
        a = self.arrays()
        sel = a["op"] >= 0 if scope == "op" else a["op"] < 0
        self_s = self.self_ns()[sel] / 1e9
        ids = a["name"][sel]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        secs = np.bincount(ids, weights=self_s, minlength=n)
        return {name: (int(calls[i]), float(secs[i])) for i, name in enumerate(self.names)}

    def session_self_seconds(self) -> list[float]:
        """Sum of span self times per session, in session order."""
        a = self.arrays()
        sel = a["session"] >= 0
        sums = np.bincount(a["session"][sel], weights=self.self_ns()[sel],
                           minlength=self.sessions)
        return [float(s) / 1e9 for s in sums]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
