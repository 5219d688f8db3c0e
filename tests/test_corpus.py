import pytest

from sparsevcd.corpus import (DISTRACTOR_ID, TRIGGER_ID, GeneratorSpec,
                              gen_corpus, load_corpus, write_corpus)
from sparsevcd.errors import ConfigError, CorpusError


def test_regeneration_is_byte_identical(tmp_path):
    spec = GeneratorSpec()
    a_path = tmp_path / "a.jsonl"
    b_path = tmp_path / "b.jsonl"
    write_corpus(a_path, gen_corpus(spec, seed=9, n=25))
    write_corpus(b_path, gen_corpus(spec, seed=9, n=25))
    assert a_path.read_bytes() == b_path.read_bytes()


def test_single_example_deterministic(tmp_path):
    spec = GeneratorSpec()
    p = tmp_path / "one.jsonl"
    write_corpus(p, gen_corpus(spec, seed=1, n=1))
    first = p.read_bytes()
    write_corpus(p, gen_corpus(spec, seed=1, n=1))
    assert p.read_bytes() == first


def test_prior_rate_zero_no_cooccurrence():
    spec = GeneratorSpec(prior_rate=0.0)
    corpus = gen_corpus(spec, seed=4, n=200)
    d = DISTRACTOR_ID
    for ex in corpus.examples:
        assert d not in ex.report


def test_prior_rate_binomial_bound():
    spec = GeneratorSpec(prior_rate=0.8)
    corpus = gen_corpus(spec, seed=7, n=1000)
    t, d = TRIGGER_ID, DISTRACTOR_ID
    triggered = [ex for ex in corpus.examples if t in ex.image.finding_ids]
    assert triggered
    rate = sum(1 for ex in triggered if d in ex.report) / len(triggered)
    assert 0.74 <= rate <= 0.86


def test_reports_subset_of_image_plus_distractor():
    spec = GeneratorSpec()
    corpus = gen_corpus(spec, seed=2, n=100)
    for ex in corpus.examples:
        allowed = set(ex.image.finding_ids) | {DISTRACTOR_ID}
        assert set(ex.report) <= allowed
    ids = [ex.id for ex in corpus.examples]
    assert len(set(ids)) == len(ids)


def test_questions_and_labels():
    spec = GeneratorSpec(include_questions=True)
    corpus = gen_corpus(spec, seed=3, n=50)
    for ex in corpus.examples:
        assert ex.question is not None
        asked = ex.question[-1]
        expected = "yes" if asked in ex.image.finding_ids else "no"
        assert ex.label == expected


def test_roundtrip(tmp_path):
    spec = GeneratorSpec(include_questions=True)
    corpus = gen_corpus(spec, seed=11, n=10)
    p = tmp_path / "c.jsonl"
    write_corpus(p, corpus)
    loaded = load_corpus(p)
    assert loaded.meta["n_findings"] == spec.n_findings
    assert len(loaded.examples) == 10
    for a, b in zip(corpus.examples, loaded.examples):
        assert a.id == b.id
        assert a.image.finding_ids == b.image.finding_ids
        assert a.report == b.report
        assert a.question == b.question
        assert a.label == b.label


def test_load_errors(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "missing.jsonl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(CorpusError):
        load_corpus(bad)
    no_meta = tmp_path / "nometa.jsonl"
    no_meta.write_text('{"type":"example","id":"x","image":{"finding_ids":[4],'
                       '"tokens_per_finding":1},"report":[4]}\n')
    with pytest.raises(CorpusError, match="meta"):
        load_corpus(no_meta)
    # each of these exited 3 with a stray AttributeError, TypeError, KeyError
    # or ValueError, raised while loading, decoding or scoring; the last three
    # loaded silently (a label of 5 then scored accuracy 0.0, an image id of
    # -3 exited 3 in decoding)
    meta = '{"type":"meta","finding_ids":[4,5]}\n'
    example = ('{"type":"example","id":"x","image":{"finding_ids":%s,'
               '"tokens_per_finding":%s},"report":[4],"question":%s}\n')
    valid = example % ("[4]", "1", "null")
    for text in [meta + "[1]\n",
                 meta + example % ("[4]", "1", "5"),
                 meta + example % ('["a"]', "1", "null"),
                 meta + example % ("[4]", "1.5", "null"),
                 '{"type":"meta"}\n' + example % ("[4]", "1", "null"),
                 '{"type":"meta","finding_ids":[4],"yes_id":"yes"}\n'
                 + example % ("[4]", "1", "null"),
                 meta + valid.replace("}\n", ',"label":5}\n'),
                 meta + valid.replace('"id":"x"', '"id":[1]'),
                 meta + example % ("[-3]", "1", "null"),
                 # a repeated finding id, and one visual token past the bound
                 meta + example % ("[4, 4]", "1", "null"),
                 meta + example % ("[4]", "1025", "null")]:
        bad.write_text(text)
        with pytest.raises(CorpusError):
            load_corpus(bad)
    bad.write_text(meta + example % ("[4]", "1", "[1, 4]"))
    assert load_corpus(bad).examples[0].question == [1, 4]
    # each of these loaded as its int() and ran, before report ids were typed
    for report in ("[4, 1.5]", "[4, true]", '[4, "7"]', "4"):
        bad.write_text(meta + (example % ("[4]", "1", "null")).replace(
            '"report":[4]', '"report":' + report))
        with pytest.raises(CorpusError, match="report"):
            load_corpus(bad)


def test_generator_validation():
    with pytest.raises(ConfigError):
        GeneratorSpec(n_findings=3).validate()
    with pytest.raises(ConfigError):
        GeneratorSpec(findings_per_image=16).validate()
    with pytest.raises(ConfigError):
        GeneratorSpec(prior_rate=1.5).validate()
    with pytest.raises(ConfigError, match="visual tokens"):
        GeneratorSpec(findings_per_image=1, tokens_per_finding=1025).validate()
    with pytest.raises(ConfigError):
        gen_corpus(GeneratorSpec(), seed=1, n=0)
