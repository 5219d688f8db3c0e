import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from sparsevcd.cli import main
from sparsevcd.corpus import GeneratorSpec, gen_corpus, write_corpus
from sparsevcd.config import (COMPOSER_SCALE_MAX, COMPOSER_SIGMA_MAX, SCALE_MAX,
                              DecodeConfig, ModelConfig, SparsifyConfig,
                              experiment_from_dict)
from sparsevcd.decoding import decode
from sparsevcd.errors import ConfigError
from sparsevcd.models import ImageDescriptor, ToyTransformer


def test_default_hyperparameters():
    s = SparsifyConfig()
    d = DecodeConfig()
    assert s.sparsity_rate == 0.8  # retained budget = ceil(0.8 * L)
    assert s.lambda_ == 0.1
    assert s.beta == 0.1
    assert d.alpha == 0.3
    assert d.visual_mask_rate == 0.5
    assert d.beam_size == 2
    assert s.w_recent == 8
    assert s.rho_merge == 0.25
    assert s.knn_k == 5
    assert s.l_min == 16


def test_readme_config_example_names_every_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = experiment_from_dict(doc)
    for block, cls in (("sparsify", SparsifyConfig), ("decode", DecodeConfig)):
        named = {"lambda_" if k == "lambda" else k for k in doc[block]}
        assert named == {f.name for f in dataclasses.fields(cls)}, block
        assert getattr(cfg, block) == cls(), block


def test_validation_ranges():
    with pytest.raises(ConfigError):
        SparsifyConfig(sparsity_rate=1.2).validate()
    with pytest.raises(ConfigError):
        SparsifyConfig(lambda_=-0.1).validate()
    with pytest.raises(ConfigError):
        SparsifyConfig(sac_input="scores").validate()
    with pytest.raises(ConfigError):
        DecodeConfig(gamma_apc=1.5).validate()
    with pytest.raises(ConfigError):
        DecodeConfig(beam_size=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(kind="rnn").validate()
    # a negative noise scale flipped the noise's sign while the CSV recorded it
    with pytest.raises(ConfigError, match="sigma"):
        ModelConfig(kind="composer", sigma=-1.0).validate()
    ModelConfig(kind="composer", sigma=0.0).validate()
    # each scale has a magnitude bound, inclusive; past it products overflowed
    # (or, for the composer, outgrew the repeat penalty)
    SparsifyConfig(beta=SCALE_MAX).validate()
    with pytest.raises(ConfigError, match="beta"):
        SparsifyConfig(beta=SCALE_MAX * 1.001).validate()
    DecodeConfig(alpha=SCALE_MAX).validate()
    with pytest.raises(ConfigError, match="alpha"):
        DecodeConfig(alpha=SCALE_MAX * 1.001).validate()
    for field, lo, hi in [("a_vis", -COMPOSER_SCALE_MAX, COMPOSER_SCALE_MAX),
                          ("b_prior", -COMPOSER_SCALE_MAX, COMPOSER_SCALE_MAX),
                          ("sigma", 0.0, COMPOSER_SIGMA_MAX)]:
        for ok in (lo, hi):
            ModelConfig(kind="composer", **{field: ok}).validate()
        for bad in (lo - 0.5, hi + 0.5, 1e308):
            with pytest.raises(ConfigError, match=field):
                ModelConfig(kind="composer", **{field: bad}).validate()
        # the composer's fields do not bind the transformer
        ModelConfig(kind="transformer", **{field: 1e308}).validate()


def _toy_run(scfg, seed=41, max_len=6):
    model = ToyTransformer(seed, d_model=16, layers=2, heads=2, vocab=64)
    img = ImageDescriptor((4, 5), 3)
    dcfg = DecodeConfig(alpha=0.0, gamma_apc=0.0, visual_mask_rate=0.0,
                        max_len=max_len, seed=1)
    return decode(model, img, [1] * 14, scfg, dcfg)


def test_raw_score_accumulation_mode_runs_and_differs():
    base = SparsifyConfig(l_min=8, sparsity_rate=0.6)
    probs = _toy_run(base)
    raw = _toy_run(dataclasses.replace(base, sac_input="raw_scores"))
    assert probs.tokens and raw.tokens
    again = _toy_run(dataclasses.replace(base, sac_input="raw_scores"))
    assert raw.tokens == again.tokens


def test_sac_after_vats_ordering_flag():
    base = SparsifyConfig(l_min=8, sparsity_rate=0.6, beta=0.4)
    before = _toy_run(base)
    after = _toy_run(dataclasses.replace(base, sac_before_vats=False))
    assert before.tokens and after.tokens
    assert after.tokens == _toy_run(dataclasses.replace(base, sac_before_vats=False)).tokens


def test_recency_window_keeps_recent_tokens_retained():
    scfg = SparsifyConfig(l_min=8, sparsity_rate=0.5, w_recent=4)
    model = ToyTransformer(43, d_model=16, layers=2, heads=2, vocab=64)
    img = ImageDescriptor((4,), 2)
    res = decode(model, img, [1] * 14, scfg,
                 DecodeConfig(alpha=0.0, gamma_apc=0.0, max_len=4, seed=0),
                 diag_level="full")
    checked = 0
    for rec in res.forward_records:
        for snap in rec["layers"]:
            pruned = set(snap["pruned"])
            n_rows = snap["retained"] + len(pruned)  # logical mode: all raw
            for recent in range(n_rows - 4, n_rows):
                assert recent not in pruned
            checked += 1
    assert checked > 0


# each of these was accepted, or crashed with a stray TypeError, before the
# section fields were checked against their declared types; the next two were
# accepted before a negative l_min and repeated composer finding ids were
# refused, the next four before non-finite floats were, and the last while the
# composer's EOS logit was a setting rather than a constant
@pytest.mark.parametrize("doc", [
    {"sparsify": {"per_head_mask": "false"}},
    {"decode": {"max_len": 2.5}},
    {"seeds": "012"},
    {"sparsify": {"sparsity_rate": "0.5"}},
    {"sparsify": {"l_min": -3}},
    {"model": {"kind": "composer", "finding_ids": [4, 4]}},
    {"decode": {"alpha": float("nan")}},
    {"sparsify": {"beta": float("nan")}},
    {"decode": {"alpha": float("inf")}},
    {"model": {"kind": "composer", "prior": [float("-inf")] + [0.1] * 15}},
    {"model": {"kind": "composer", "eos_logit": 2.1}},
])
def test_mistyped_config_values_fail_as_config_errors(doc, tmp_path):
    with pytest.raises(ConfigError):
        experiment_from_dict(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 1


def test_config_types_int_for_float_but_never_bool_for_number():
    cfg = experiment_from_dict({"decode": {"alpha": 1}, "sparsify": {"lambda": 0}})
    assert cfg.decode.alpha == 1 and cfg.sparsify.lambda_ == 0
    for doc in [{"decode": {"max_len": True}}, {"decode": {"alpha": False}},
                {"seeds": [0, True]}, {"timing": 1}, {"workers": 2.0},
                {"model": {"prior": [0.5, "0.5"]}}, {"corpus": 3}]:
        with pytest.raises(ConfigError):
            experiment_from_dict(doc)


# each of these exited 3, or ran with a non-finite value, a clamped prefix
# or an invalid grid point and exited 0, before the numbers were checked
# where parsed (a sweep checks every grid point's config before any row)
@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "alpha", "--grid", "nan"],
    ["sweep", "--axis", "beta", "--grid", "0.1,inf"],
    ["run", "--seeds", "a"],
    ["bench", "--repeats", "0"],
    ["bench", "--prefix-len", "-3", "--decode-len", "2", "--repeats", "1"],
    ["bench", "--prefix-len", "8", "--decode-len", "2", "--repeats", "1"],
    ["sweep", "--axis", "alpha", "--grid", "0.3,-1"],
    ["sweep", "--axis", "stop_layer", "--grid", "0,5"],
    # the composer has no decoder layers: stop layer 1 ran as stop layer 0
    ["sweep", "--set", 'model.kind="composer"', "--axis", "stop_layer", "--grid", "0,1"],
])
def test_cli_rejects_bad_numbers_as_config_errors(argv, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, gen_corpus(GeneratorSpec(), seed=0, n=3))
    if argv[0] != "bench":
        argv = argv + ["--corpus", str(corpus), "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


# each of these exited 3 with FileNotFoundError or FileExistsError, most
# after all the work, before the destinations were checked where parsed
# (bench --out "" exited 0 and wrote nothing, before --out was tested
# against None); "{missing}" is a path in a missing directory, "{file}" an
# existing file
@pytest.mark.parametrize("argv", [
    ["gen-corpus", "--n", "3", "--out", "{missing}"],
    ["decode", "--image", "4", "--diagnostics", "{missing}"],
    ["run", "--corpus", "{corpus}", "--out", "{missing}"],
    ["run", "--corpus", "{corpus}", "--out", "{tmp}/rows.csv", "--diagnostics", "{missing}"],
    ["sweep", "--corpus", "{corpus}", "--axis", "alpha", "--grid", "0.3", "--out", "{missing}"],
    ["bench", "--prefix-len", "16", "--decode-len", "2", "--repeats", "1", "--out", "{missing}"],
    ["attn-stats", "--out-dir", "{file}"],
    ["attn-stats", "--out-dir", "{file}/stats"],
    ["bench", "--prefix-len", "16", "--decode-len", "2", "--repeats", "1", "--out", ""],
])
def test_cli_rejects_unwritable_outputs_before_any_work(argv, tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, gen_corpus(GeneratorSpec(), seed=0, n=3))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the outputs were checked")

    for target in ("cli.gen_corpus", "cli.decode", "experiment.decode"):
        monkeypatch.setattr("sparsevcd." + target, no_work)
    names = {"missing": tmp_path / "no" / "such" / "out.txt", "file": corpus,
             "corpus": corpus, "tmp": tmp_path}
    argv = [a.format(**{k: str(v) for k, v in names.items()}) for a in argv]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "no").exists() and not (tmp_path / "rows.csv").exists()


# each of these exited 0 with the config's value in place of the one given
# (--out "" wrote ./results.csv, decode --image "" decoded corpus example 0,
# --prompt "" became [BOS], --diagnostics "" wrote nothing), before the flags
# were tested against None; attn-stats --out-dir "" wrote its two CSVs into
# the working directory; run --diagnostics "" wrote the CSV and no diagnostics
@pytest.mark.parametrize("argv", [
    ["run", "--workers", "0", "--out", "{tmp}/rows.csv"],
    ["sweep", "--axis", "alpha", "--grid", "0.3", "--workers", "0", "--out", "{tmp}/rows.csv"],
    ["run", "--seeds", "", "--out", "{tmp}/rows.csv"],
    ["run", "--out", ""],
    ["decode", "--image", ""],
    ["decode", "--image", "4", "--prompt", ""],
    ["decode", "--image", "4", "--diagnostics", ""],
    ["attn-stats", "--out-dir", ""],
    ["run", "--out", "{tmp}/rows.csv", "--diagnostics", ""],
])
def test_cli_rejects_falsy_flag_values_as_config_errors(argv, tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, gen_corpus(GeneratorSpec(), seed=0, n=3))
    monkeypatch.chdir(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv + ["--corpus", str(corpus), "--set", "decode.max_len=2"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_composer_rejects_eos_id_it_cannot_emit():
    with pytest.raises(ConfigError):
        experiment_from_dict({"model": {"kind": "composer"}, "decode": {"eos_id": 5}})
    for eos_id in (0, -1):
        experiment_from_dict({"model": {"kind": "composer"}, "decode": {"eos_id": eos_id}})
    experiment_from_dict({"model": {"kind": "transformer"}, "decode": {"eos_id": 5}})


# each of these exited 3 (a stray ValueError or IndexError), or decoded the
# wrong example, before the decode arguments were checked where parsed (the
# composer checks its own finding ids when it embeds the image); the last
# exited 0, the composer's noise flipped in sign by a negative sigma. Of the
# overflowing scales, beta and sigma at 1e308 exited 3 (NaN scores or logits
# reached stable_softmax), a_vis and b_prior at 1e308 exited 0 after emitting
# one finding 64 times, and alpha at 1e308 exited 0 with an empty report
@pytest.mark.parametrize("argv", [
    ["--image", "4,99999,9"],
    ["--image", ","],
    ["--image", "4", "--prompt", "x"],
    ["--image", "4", "--tokens-per-finding", "0"],
    ["--example-index", "7"],
    ["--example-index", "-1"],
    ["--set", 'model.kind="composer"', "--set", "decode.eos_id=0", "--image", "2"],
    ["--set", "decode.alpha=NaN", "--image", "4"],
    ["--set", "sparsify.beta=NaN", "--image", "4"],
    ["--set", "decode.alpha=Infinity", "--image", "4"],
    ["--set", "model.vocab=8", "--example-index", "0"],  # corpus image id 8
    ["--set", 'model.kind="composer"', "--set", "model.sigma=-1", "--image", "4"],
    ["--set", "sparsify.beta=1e308", "--image", "4"],
    ["--set", 'model.kind="composer"', "--set", "model.sigma=1e308", "--image", "4"],
    ["--set", 'model.kind="composer"', "--set", "model.a_vis=1e308",
     "--set", "model.b_prior=1e308", "--image", "4"],
    ["--set", 'model.kind="composer"', "--set", "decode.alpha=1e308", "--image", "4"],
    # a repeated finding id; then one past each size bound: the vocabulary,
    # an image's visual tokens, and the composer's embedded image block
    # (513 x 8192 floats, 2**22 + 8192)
    ["--image", "4,4,4", "--set", 'model.kind="composer"'],
    ["--set", "model.vocab=65537", "--image", "4"],
    ["--image", "4", "--tokens-per-finding", "1025"],
    ["--set", 'model.kind="composer"', "--set", "model.vocab=4096", "--image", "4",
     "--tokens-per-finding", "513"],
])
def test_decode_rejects_bad_arguments_as_config_errors(argv, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, gen_corpus(GeneratorSpec(), seed=0, n=3))
    if "--example-index" in argv:
        argv = ["--corpus", str(corpus)] + argv
    assert main(["decode", "--set", "decode.max_len=2"] + argv) == 1
    assert "config error" in capsys.readouterr().err
