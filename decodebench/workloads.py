"""Workload definitions, seeded inputs, timed operations and the output gate.

Every workload draws its inputs from a fixed pool of cases whose outputs are
pinned in ``pinned.json``; the run's ``--seed`` picks the order in which the
pool is visited (and, for the corpus workload, which corpus is used). That way
every timed operation of every seed is checked against a pinned reference,
and the same seed always gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# engine functions are looked up through their modules at call time, so
# the tracer's wrappers see the benchmark's own calls too
from sparsevcd import corpus, decoding, experiment, models
from sparsevcd.config import DecodeConfig, ExperimentConfig, ModelConfig, SparsifyConfig
from sparsevcd.corpus import Corpus, GeneratorSpec
from sparsevcd.models import ImageDescriptor
from sparsevcd.rng import SplitMix64, combine

PINNED_PATH = Path(__file__).with_name("pinned.json")

TOKENS_PER_FINDING = 16
FIRST_FINDING = 4          # ids 0-3 are EOS/BOS/yes/no in the corpus layout
CASES = 16                 # pinned input cases per transformer workload
CORPORA = 4                # pinned corpora for the corpus workload
RUN_SEEDS = 32             # pinned run seeds per corpus
CORPUS_SIZE = 200
WARMUP_EXAMPLES = 10
_INPUT_SALT = 0x494E_5055
_ORDER_SALT = 0x4F52_4452


def permutation(n: int, seed: int, salt: int) -> list[int]:
    """Seeded Fisher-Yates permutation of ``range(n)``."""
    stream = SplitMix64(combine(seed, salt, _ORDER_SALT))
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def token_digest(tokens) -> str:
    return hashlib.sha256(",".join(str(int(t)) for t in tokens).encode()).hexdigest()


def row_outcome(row) -> list:
    """The pinned part of a corpus row: exact CHAIR, recall and error text."""
    return [row.chair, row.recall, row.error]


# --------------------------------------------------------------- session clock

class PrefillClock:
    """Delegating model wrapper that timestamps the session's first
    ``lm_head`` call, which is where prefill ends.

    Every other attribute is forwarded, so ``hasattr(model,
    "forward_sequence")`` in the engine sees the wrapped model's answer.
    """

    def __init__(self, model):
        self._model = model
        self.now = time.process_time
        self.first_head: float | None = None

    def __getattr__(self, name):
        # models are immutable after construction, so each attribute is
        # looked up once and then read from the instance directly
        value = getattr(self._model, name)
        setattr(self, name, value)
        return value

    def lm_head(self, pooled):
        if self.first_head is None:
            self.first_head = self.now()
        return self._model.lm_head(pooled)


@dataclass
class SessionLog:
    """Per-session samples of one run: session and prefill time on ``clock``
    (the process's CPU time unless given another), generated tokens, rows."""

    clock: Callable[[], float] = time.process_time
    session: list[float] = field(default_factory=list)
    prefill: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    peak_rows: list[int] = field(default_factory=list)

    def timed_decode(self, model, *args, **kwargs):
        """``decoding.decode`` timed around the call, through a PrefillClock."""
        clock = model if isinstance(model, PrefillClock) else PrefillClock(model)
        clock.first_head = None
        clock.now = self.clock
        t0 = self.clock()
        result = decoding.decode(clock, *args, **kwargs)
        t1 = self.clock()
        self.session.append(t1 - t0)
        self.prefill.append((clock.first_head if clock.first_head is not None else t1) - t0)
        self.tokens.append(len(result.tokens))
        self.peak_rows.append(result.peak_rows)
        return result


# ------------------------------------------------------------------ workloads

@dataclass(frozen=True)
class DecodeCase:
    image: ImageDescriptor
    prompt: list[int]
    seed: int


class DecodeWorkload:
    """One ``decode()`` session per operation on the default toy transformer."""

    def __init__(self, name: str, salt: int, prefix_len: int, n_visual: int,
                 sparsify: SparsifyConfig, decode: DecodeConfig):
        self.name = name
        self.salt = salt
        self.prefix_len = prefix_len
        self.n_visual = n_visual
        self.sparsify = sparsify
        self.decode = decode

    def case(self, key: int, scale: int = 1) -> DecodeCase:
        """Seeded inputs for pool case ``key``: distinct finding ids at
        ``TOKENS_PER_FINDING`` visual tokens each, then uniform random text.

        The text is random, not all-BOS: the toy transformer has no
        positional encoding, so a run of identical tokens gives identical
        layer-0 keys and the clustering would time a degenerate all-ties
        input.
        """
        vocab = ModelConfig().vocab
        stream = SplitMix64(combine(_INPUT_SALT, self.salt, key, scale))
        pool = list(range(FIRST_FINDING, vocab))
        findings = []
        for _ in range(max(1, self.n_visual // scale // TOKENS_PER_FINDING)):
            findings.append(pool.pop(stream.next_u64() % len(pool)))
        image = ImageDescriptor(tuple(findings), TOKENS_PER_FINDING)
        n_text = self.prefix_len // scale - image.n_tokens
        prompt = [int(stream.next_u64() % vocab) for _ in range(n_text)]
        return DecodeCase(image, prompt, combine(_INPUT_SALT, self.salt, key, 0xDEC0DE))

    def setup(self, seed: int) -> dict:
        model = models.model_from_config(ModelConfig())
        order = permutation(CASES, seed, self.salt)
        cases = [(key, self.case(key)) for key in order]
        state = {"model": model, "cases": cases}
        # warm-up: an eighth-size session over the same configuration, so
        # every code path has run once before the first timed session
        self.run_case(state, self.case(CASES, scale=8), max_len=4)
        return state

    def run_case(self, state, case: DecodeCase, log: SessionLog | None = None,
                 max_len: int | None = None):
        dcfg = dataclasses.replace(self.decode, seed=case.seed)
        if max_len is not None:
            dcfg.max_len = max_len
        args = (case.image, case.prompt, self.sparsify, dcfg)
        if log is None:
            return decoding.decode(state["model"], *args)
        return log.timed_decode(state["model"], *args)

    def run_op(self, state, i: int, pinned, log: SessionLog | None):
        """Run operation ``i``; returns (examples decoded, output matches pin)."""
        key, case = state["cases"][i % len(state["cases"])]
        result = self.run_case(state, case, log)
        return 1, token_digest(result.tokens) == pinned[key]

    def pin(self) -> list[str]:
        state = {"model": models.model_from_config(ModelConfig())}
        return [token_digest(self.run_case(state, self.case(key)).tokens)
                for key in range(CASES)]


class CorpusWorkload:
    """One ``experiment.run_seed_row`` call (one run seed over the corpus)
    per operation on the planted-prior composer."""

    name = "composer-corpus"
    salt = 4

    def __init__(self):
        self.config = ExperimentConfig(model=ModelConfig(
            kind="composer", vocab=20, seed=11, a_vis=2.0, b_prior=3.0, sigma=0.1))

    @staticmethod
    def make_corpus(key: int) -> Corpus:
        return corpus.gen_corpus(GeneratorSpec(prior_rate=0.8), n=CORPUS_SIZE,
                                 seed=combine(_INPUT_SALT, CorpusWorkload.salt, key))

    def setup(self, seed: int) -> dict:
        key = permutation(CORPORA, seed, self.salt)[0]
        examples = self.make_corpus(key)
        state = {"key": key, "corpus": examples,
                 "run_seeds": permutation(RUN_SEEDS, seed, self.salt + 1)}
        warm = Corpus(examples.meta, examples.examples[:WARMUP_EXAMPLES])
        experiment.run_seed_row(self.config, warm, RUN_SEEDS)
        return state

    def run_op(self, state, i: int, pinned, log: SessionLog | None):
        run_seed = state["run_seeds"][i % len(state["run_seeds"])]
        if log is None:
            row = experiment.run_seed_row(self.config, state["corpus"], run_seed)
        else:
            with session_clock(log):
                row = experiment.run_seed_row(self.config, state["corpus"], run_seed)
        state.setdefault("rows", {})[run_seed] = row
        return row.n_examples, row_outcome(row) == pinned[state["key"]][run_seed]

    def pin(self) -> list[list[list]]:
        return [[row_outcome(experiment.run_seed_row(self.config, self.make_corpus(key), rs))
                 for rs in range(RUN_SEEDS)] for key in range(CORPORA)]


@contextmanager
def session_clock(log: SessionLog):
    """Routes ``run_seed_row``'s sessions through ``log.timed_decode`` by
    swapping its ``decode`` and ``model_from_config`` bindings."""
    saved = (experiment.decode, experiment.model_from_config)
    experiment.decode = log.timed_decode
    experiment.model_from_config = lambda cfg: PrefillClock(saved[1](cfg))
    try:
        yield
    finally:
        experiment.decode, experiment.model_from_config = saved


# why each workload is in the benchmark: README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in [
    DecodeWorkload(
        "logical-512", 1, 512, 128, SparsifyConfig(),
        DecodeConfig(max_len=32, eos_id=-1)),
    DecodeWorkload(
        "compacted-2048-beam4", 2, 2048, 128,
        SparsifyConfig(mode="compacted", sparsity_rate=0.5, compact_band=64),
        DecodeConfig(mode="beam", beam_size=4, max_len=32, eos_id=-1)),
    DecodeWorkload(
        "contrastive-deep-256", 3, 256, 64, SparsifyConfig(sparsity_rate=1.0),
        DecodeConfig(stop_layer=2, max_len=16, eos_id=-1)),
    CorpusWorkload(),
]}


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())
