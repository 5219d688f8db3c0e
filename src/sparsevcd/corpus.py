"""Synthetic corpus generation and JSON-lines I/O.

Token-id conventions: 0 = EOS, 1 = BOS/prompt, 2 = yes, 3 = no, finding ids
start at 4. Reports list the image findings plus, with the configured
probability, a planted distractor that follows a trigger finding regardless
of image content; this is the language prior the composer model absorbs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from sparsevcd.config import IMAGE_TOKENS_MAX
from sparsevcd.errors import ConfigError, CorpusError
from sparsevcd.models import ImageDescriptor
from sparsevcd.rng import SplitMix64, combine

TOKEN_EOS = 0
TOKEN_BOS = 1
TOKEN_YES = 2
TOKEN_NO = 3
FINDINGS_START = 4
DISTRACTOR_ID = FINDINGS_START       # the planted distractor: the first finding
TRIGGER_ID = FINDINGS_START + 1      # the finding the distractor follows


@dataclass
class GeneratorSpec:
    n_findings: int = 16
    tokens_per_finding: int = 3
    findings_per_image: int = 3
    prior_rate: float = 0.8
    include_questions: bool = False
    distractor_in_images: bool = False

    def validate(self) -> None:
        if self.n_findings < 4:
            raise ConfigError("generator: finding vocabulary must have at least 4 findings")
        if self.tokens_per_finding < 1:
            raise ConfigError("generator: tokens_per_finding must be positive")
        if not 1 <= self.findings_per_image < self.n_findings:
            raise ConfigError("generator: findings_per_image outside [1, n_findings)")
        if self.findings_per_image * self.tokens_per_finding > IMAGE_TOKENS_MAX:
            raise ConfigError(f"generator: an image holds more than {IMAGE_TOKENS_MAX} "
                              f"visual tokens")
        if not 0.0 <= self.prior_rate <= 1.0:
            raise ConfigError("generator: prior_rate must be in [0, 1]")

    @property
    def finding_ids(self) -> list[int]:
        return list(range(FINDINGS_START, FINDINGS_START + self.n_findings))


@dataclass
class CorpusExample:
    id: str
    image: ImageDescriptor
    report: list[int]
    question: list[int] | None = None
    label: str | None = None

    @property
    def prompt(self) -> list[int]:
        """The prompt a session decodes after the image: the question, or
        BOS if there is none."""
        return self.question or [TOKEN_BOS]


@dataclass
class Corpus:
    meta: dict
    examples: list[CorpusExample] = field(default_factory=list)

    @property
    def finding_ids(self) -> list[int]:
        return list(self.meta["finding_ids"])


def _sample_without_replacement(stream: SplitMix64, pool: list[int], count: int) -> list[int]:
    pool = list(pool)
    out = []
    for _ in range(count):
        idx = stream.next_u64() % len(pool)
        out.append(pool.pop(idx))
    return sorted(out)


def gen_corpus(spec: GeneratorSpec, seed: int, n: int) -> Corpus:
    """Deterministically generate ``n`` examples with the planted
    trigger-to-distractor co-occurrence prior."""
    spec.validate()
    if n < 1:
        raise ConfigError("gen_corpus: n must be at least 1")
    meta = {
        "type": "meta",
        "version": 1,
        "n": n,
        "seed": seed,
        "n_findings": spec.n_findings,
        "finding_ids": spec.finding_ids,
        "tokens_per_finding": spec.tokens_per_finding,
        "findings_per_image": spec.findings_per_image,
        "prior_rate": spec.prior_rate,
        "distractor_id": DISTRACTOR_ID,
        "trigger_id": TRIGGER_ID,
        "eos_id": TOKEN_EOS,
        "bos_id": TOKEN_BOS,
        "yes_id": TOKEN_YES,
        "no_id": TOKEN_NO,
        "min_vocab": FINDINGS_START + spec.n_findings,
    }
    pool_all = spec.finding_ids
    image_pool = [f for f in pool_all
                  if spec.distractor_in_images or f != DISTRACTOR_ID]
    examples = []
    for i in range(n):
        stream = SplitMix64(combine(seed, i))
        chosen = _sample_without_replacement(stream, image_pool,
                                             spec.findings_per_image)
        image = ImageDescriptor(tuple(chosen), spec.tokens_per_finding)
        report = list(chosen)
        if TRIGGER_ID in chosen and stream.uniform() < spec.prior_rate:
            if DISTRACTOR_ID not in report:
                report.append(DISTRACTOR_ID)
        question = None
        label = None
        if spec.include_questions:
            asked = pool_all[stream.next_u64() % len(pool_all)]
            question = [TOKEN_BOS, asked]
            label = "yes" if asked in chosen else "no"
        examples.append(CorpusExample(
            id=f"ex-{i:05d}", image=image, report=report,
            question=question, label=label,
        ))
    return Corpus(meta=meta, examples=examples)


def dumps(obj: dict) -> str:
    """``obj`` as one line of compact JSON with sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str | Path, records) -> None:
    """One ``dumps`` line per record, each ending in a newline."""
    Path(path).write_text("".join(dumps(rec) + "\n" for rec in records))


def write_corpus(path: str | Path, corpus: Corpus) -> None:
    write_jsonl(path, [corpus.meta] + [{
        "type": "example",
        "id": ex.id,
        "image": {
            "finding_ids": list(ex.image.finding_ids),
            "tokens_per_finding": ex.image.tokens_per_finding,
        },
        "report": ex.report,
        "question": ex.question,
        "label": ex.label,
    } for ex in corpus.examples])


def _int(value, what: str) -> int:
    """``value`` if it is an integer (never a bool), else TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(values, what: str) -> list[int]:
    """``values`` if it is a list of integers, else TypeError."""
    if not isinstance(values, list):
        raise TypeError(f"{what} must be a list of integers, got {values!r}")
    return [_int(v, f"{what} entry") for v in values]


def load_corpus(path: str | Path) -> Corpus:
    p = Path(path)
    if not p.exists():
        raise CorpusError(f"corpus file not found: {p}")
    meta = None
    examples = []
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{p}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise CorpusError(f"{p}:{lineno}: record must be a JSON object, got {rec!r}")
        kind = rec.get("type")
        if kind not in ("meta", "example"):
            raise CorpusError(f"{p}:{lineno}: unknown record type {kind!r}")
        try:
            if kind == "meta":
                _ints(rec["finding_ids"], "finding_ids")
                _int(rec.get("yes_id", TOKEN_YES), "yes_id")
                _int(rec.get("no_id", TOKEN_NO), "no_id")
                meta = rec
                continue
            image = rec["image"]
            question = rec.get("question")
            label = rec.get("label")
            if not isinstance(rec["id"], str):
                raise TypeError(f"id must be a string, got {rec['id']!r}")
            if label not in ("yes", "no", None):
                raise ValueError(f'label must be "yes", "no" or null, got {label!r}')
            finding_ids = _ints(image["finding_ids"], "finding_ids")
            if any(f < 0 for f in finding_ids):
                raise ValueError(f"finding ids must be non-negative, got {finding_ids}")
            examples.append(CorpusExample(
                id=rec["id"],
                image=ImageDescriptor(tuple(finding_ids),
                                      _int(image["tokens_per_finding"], "tokens_per_finding")),
                report=_ints(rec["report"], "report"),
                question=None if question is None else _ints(question, "question"),
                label=label,
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{p}:{lineno}: malformed {kind} record: {exc}") from exc
    if meta is None:
        raise CorpusError(f"{p}: missing meta record")
    if not examples:
        raise CorpusError(f"{p}: corpus holds no examples")
    return Corpus(meta=meta, examples=examples)
