import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd.config import DecodeConfig, ModelConfig, SparsifyConfig
from sparsevcd.corpus import TOKEN_BOS, GeneratorSpec, gen_corpus
from sparsevcd.decoding import (contrastive_logits, decode, fuse, mask_visual,
                                plausible_set)
from sparsevcd.errors import ConfigError
from sparsevcd.models import ImageDescriptor, build_toy_transformer, model_from_config
from sparsevcd.numerics import NEG_INF, stable_softmax
from sparsevcd.oracle import reference_full_decode
from sparsevcd.rng import combine
from sparsevcd.vats import cluster_pruned


def transformer(seed=1):
    return build_toy_transformer(seed, d_model=16, layers=2, heads=2, vocab=64)


def disabled_sparsify():
    return SparsifyConfig(sparsity_rate=1.0, beta=0.0, sac_enabled=False, w_recent=0)


def disabled_decode(**kw):
    base = dict(alpha=0.0, gamma_apc=0.0, visual_mask_rate=0.0, max_len=16, seed=0)
    base.update(kw)
    return DecodeConfig(**base)


# ------------------------------------------------------------- mask_visual

def test_mask_visual_rate_zero_keeps_all():
    embs = [np.zeros(2) for _ in range(5)]
    kept, idx = mask_visual(embs, 0.0, seed=1)
    assert idx == [0, 1, 2, 3, 4]
    assert len(kept) == 5


def test_mask_visual_rate_one_single_survivor():
    embs = [np.zeros(2) for _ in range(7)]
    kept, idx = mask_visual(embs, 1.0, seed=9)
    assert len(kept) == 1
    again_kept, again_idx = mask_visual(embs, 1.0, seed=9)
    assert idx == again_idx


def test_mask_visual_binomial_bound():
    embs = [np.zeros(1) for _ in range(1000)]
    kept, _ = mask_visual(embs, 0.5, seed=123)
    frac = len(kept) / 1000
    assert 0.44 <= frac <= 0.56


def test_mask_visual_deterministic_per_seed():
    embs = [np.zeros(1) for _ in range(20)]
    _, a = mask_visual(embs, 0.5, seed=5)
    _, b = mask_visual(embs, 0.5, seed=5)
    _, c = mask_visual(embs, 0.5, seed=6)
    assert a == b
    assert a != c


def test_mask_visual_accepts_an_embedding_block():
    embs = [np.full(3, float(i)) for i in range(20)]
    kept, idx = mask_visual(np.array(embs), 0.5, seed=5)
    from_list, idx_from_list = mask_visual(embs, 0.5, seed=5)
    assert idx == idx_from_list
    assert np.array_equal(kept, np.array(embs)[idx])
    assert np.array_equal(from_list, kept)
    with pytest.raises(ValueError):
        mask_visual(np.zeros((0, 3)), 0.5, seed=5)


# ---------------------------------------------------------- plausible_set

def test_plausible_gamma_zero_full_vocab():
    p = np.array([0.7, 0.2, 0.1, 0.0])
    assert plausible_set(p, 0.0).all()


def test_plausible_gamma_one_argmax_only():
    p = np.array([0.7, 0.2, 0.1])
    mask = plausible_set(p, 1.0)
    assert list(mask) == [True, False, False]


def test_plausible_threshold_example():
    mask = plausible_set(np.array([0.5, 0.3, 0.2]), 0.5)
    assert list(mask) == [True, True, False]


# ------------------------------------------------------------------- fuse

def test_fuse_alpha_zero_identity_on_support():
    lt = np.array([1.0, -2.0, 0.5])
    plaus = np.array([True, False, True])
    out = fuse(lt, None, 0.0, plaus)
    assert out[0] == 1.0 and out[2] == 0.5
    assert out[1] == NEG_INF


def test_fuse_direct_evaluation():
    out = fuse(np.array([1.0, 2.0]), np.array([2.0, 1.0]), 0.3,
               np.array([True, True]))
    assert np.allclose(out, [1.3 * 1 - 0.3 * 2, 1.3 * 2 - 0.3 * 1], atol=1e-12)
    assert np.allclose(out, [0.7, 2.3], atol=1e-12)


def test_fuse_defaults():
    assert DecodeConfig().alpha == 0.3
    assert DecodeConfig().gamma_apc == 0.1
    assert DecodeConfig().visual_mask_rate == 0.5
    assert DecodeConfig().beam_size == 2


def test_fusion_linearity_on_shared_support():
    rng = np.random.default_rng(4)
    for _ in range(20):
        lt1, lt2 = rng.normal(size=8), rng.normal(size=8)
        lp1, lp2 = rng.normal(size=8), rng.normal(size=8)
        plaus = rng.random(8) < 0.8
        a = fuse(lt1, lp1, 0.3, plaus) + fuse(lt2, lp2, 0.3, plaus)
        b = fuse(lt1 + lt2, lp1 + lp2, 0.3, plaus)
        finite = np.isfinite(b)
        assert np.allclose(a[finite], b[finite], atol=1e-12)
        assert np.all(~np.isfinite(a[~finite]))


def test_alpha_continuity_piecewise_constant():
    rng = np.random.default_rng(6)
    lt = rng.normal(size=12)
    lp = rng.normal(size=12)
    plaus = np.ones(12, dtype=bool)
    grid = np.linspace(0.0, 1.0, 201)
    chosen = [int(np.argmax(fuse(lt, lp, a, plaus))) for a in grid]
    changes = sum(1 for a, b in zip(chosen[:-1], chosen[1:]) if a != b)
    assert changes <= 12  # finitely many switch points, far fewer than grid size
    again = [int(np.argmax(fuse(lt, lp, a, plaus))) for a in grid]
    assert chosen == again  # no numerical chatter on repeated evaluation


# ------------------------------------------------------- contrastive branch

def test_contrastive_composer_masked_all_gives_prior_argmax():
    cfg = ModelConfig(kind="composer", vocab=20, seed=2, sigma=0.0)
    model = model_from_config(cfg)
    logits = contrastive_logits(model, model.embed_text([TOKEN_BOS]), [], [],
                                stop_layer=0)
    findings = model.finding_ids
    best = findings[int(np.argmax(model.prior))]
    assert int(np.argmax(logits[findings])) == list(findings).index(best)


def test_contrastive_full_stop_layer_equals_theta_logits():
    m = transformer(3)
    img = ImageDescriptor((4, 5), 2)
    prompt = [1, 7]
    res = decode(m, img, prompt, disabled_sparsify(),
                 disabled_decode(max_len=1, pooling="last"))
    # theta logits for the same prefix: full forward, last hidden
    embs = m.embed_visual(img) + m.embed_text(prompt)
    phi = contrastive_logits(m, m.embed_text(prompt), m.embed_visual(img), [],
                             stop_layer=m.layers, pooling="last")
    hiddens = m.forward_sequence(embs)
    theta = m.lm_head(hiddens[-1])
    assert np.array_equal(phi, theta)
    assert res.diagnostics[0].logit_theta_argmax == int(np.argmax(theta))


def test_contrastive_stop_layers_differ_and_finite():
    m = transformer(3)
    img = ImageDescriptor((4, 5), 2)
    vis = m.embed_visual(img)
    prompt = m.embed_text([1])
    l0 = contrastive_logits(m, prompt, vis, [2, 3], stop_layer=0)
    l1 = contrastive_logits(m, prompt, vis, [2, 3], stop_layer=1)
    assert np.all(np.isfinite(l0)) and np.all(np.isfinite(l1))
    assert not np.allclose(l0, l1)
    assert np.array_equal(l1, contrastive_logits(m, prompt, vis, [2, 3], stop_layer=1))


# ------------------------------------------------------------- decode loop

def test_disabled_mechanisms_match_reference_decode():
    m = transformer(17)
    img = ImageDescriptor((6,), 2)
    prompt = [1, 2]
    res = decode(m, img, prompt, disabled_sparsify(), disabled_decode(max_len=24))
    ref = reference_full_decode(m, prompt, img, max_len=24)
    assert res.tokens == ref


def test_decode_deterministic():
    m = transformer(29)
    img = ImageDescriptor((4, 9), 3)
    scfg = SparsifyConfig(l_min=4)
    dcfg = DecodeConfig(max_len=12, seed=5)
    a = decode(m, img, [1], scfg, dcfg)
    b = decode(m, img, [1], scfg, dcfg)
    assert a.tokens == b.tokens


def test_decode_validation_errors():
    m = transformer(1)
    img = ImageDescriptor((4,), 2)
    with pytest.raises(ConfigError):
        decode(m, img, [], disabled_sparsify(), disabled_decode())
    with pytest.raises(ConfigError):
        decode(m, img, [1], disabled_sparsify(), disabled_decode(stop_layer=99))
    with pytest.raises(ConfigError):
        decode(m, img, [1], SparsifyConfig(sparsity_rate=0.0), disabled_decode())


def test_apc_no_emitted_token_below_threshold():
    m = transformer(7)
    img = ImageDescriptor((5, 8), 2)
    for gamma in (0.05, 0.1, 0.5):
        dcfg = DecodeConfig(alpha=0.3, gamma_apc=gamma, max_len=12, seed=3)
        res = decode(m, img, [1], SparsifyConfig(l_min=8), dcfg)
        for d in res.diagnostics:
            assert d.p_theta_chosen >= gamma * d.p_theta_max - 1e-15


def test_beam_width_one_equals_greedy():
    m = transformer(13)
    img = ImageDescriptor((4, 5), 2)
    greedy = decode(m, img, [1], disabled_sparsify(),
                    disabled_decode(max_len=10, mode="greedy"))
    beam1 = decode(m, img, [1], disabled_sparsify(),
                   disabled_decode(max_len=10, mode="beam", beam_size=1))
    assert greedy.tokens == beam1.tokens


def test_beam_diagnostics_record_step_time():
    m = transformer(23)
    img = ImageDescriptor((4, 9), 3)
    res = decode(m, img, [1, 2, 3], SparsifyConfig(l_min=4),
                 DecodeConfig(max_len=6, mode="beam", beam_size=3, seed=2, eos_id=-1))
    assert len(res.diagnostics) == 6
    assert all(d.step_seconds > 0.0 for d in res.diagnostics)


def test_beam_monotonicity_audit():
    m = transformer(19)
    img = ImageDescriptor((4, 6), 2)
    dcfg = DecodeConfig(alpha=0.3, gamma_apc=0.0, max_len=8, mode="beam",
                        beam_size=3, seed=2)
    res = decode(m, img, [1], SparsifyConfig(l_min=8), dcfg)
    assert res.beam_audit, "beam pruning should happen with width 3"
    for kept_min, pruned_max in res.beam_audit:
        assert kept_min >= pruned_max - 1e-12


def test_composer_hallucinated_count_drops_with_contrast():
    # planted-prior setup: image findings boost under fusion and crowd the
    # distractor out of the length budget
    spec = GeneratorSpec()
    corpus = gen_corpus(spec, seed=5, n=20)
    mc = ModelConfig(kind="composer", vocab=20, seed=11)
    scfg = SparsifyConfig()

    def halluc(alpha, run_seed):
        total = 0
        for idx, ex in enumerate(corpus.examples):
            m = model_from_config(dataclasses.replace(
                mc, seed=combine(mc.seed, run_seed, idx)))
            dcfg = DecodeConfig(alpha=alpha, max_len=3, seed=combine(run_seed, idx))
            res = decode(m, ex.image, [TOKEN_BOS], scfg, dcfg)
            total += len(set(res.tokens) - set(ex.image.finding_ids) - {0})
        return total

    wins = sum(1 for s in range(50) if halluc(0.3, s) < halluc(0.0, s))
    assert wins >= 40  # at least 80% of 50 seeds


def test_logical_sparsification_recomputed_each_step():
    m = transformer(23)
    img = ImageDescriptor((4, 5, 6), 3)
    scfg = SparsifyConfig(sparsity_rate=0.6, l_min=8, w_recent=2)
    dcfg = disabled_decode(max_len=10)
    res = decode(m, img, [1] * 6, scfg, dcfg)
    assert len(res.tokens) > 0
    retained = res.diagnostics[-1].retained_raw
    rows = res.diagnostics[-1].cache_rows
    assert all(r < rows for r in retained)


def test_compacted_decode_prunes_rows():
    m = transformer(23)
    img = ImageDescriptor((4, 5), 3)
    scfg = SparsifyConfig(sparsity_rate=0.5, l_min=8, mode="compacted",
                          compact_band=4)
    res = decode(m, img, [1] * 26, scfg, disabled_decode(max_len=6))
    full_rows = 26 + 6 + 6  # prompt + visual + generated
    assert res.peak_rows < full_rows
    assert res.tokens  # still decodes


def test_per_head_mask_mode_runs():
    m = transformer(31)
    img = ImageDescriptor((4, 5), 3)
    scfg = SparsifyConfig(sparsity_rate=0.7, l_min=8, per_head_mask=True)
    res = decode(m, img, [1] * 12, scfg, disabled_decode(max_len=5))
    assert len(res.tokens) > 0
    with pytest.raises(ConfigError):
        SparsifyConfig(mode="compacted", per_head_mask=True).validate()


def test_text_only_prune_scope_protects_visuals():
    m = transformer(37)
    img = ImageDescriptor((4, 5, 6), 4)
    scfg = SparsifyConfig(sparsity_rate=0.5, l_min=8, prune_scope="text_only",
                          w_recent=0)
    res = decode(m, img, [1] * 10, scfg, disabled_decode(max_len=4),
                 diag_level="full")
    for rec in res.forward_records:
        for snap in rec["layers"]:
            assert all(p >= 12 for p in snap["pruned"])  # visual rows 0..11 kept


# ------------------------------------------------ engine pins off the bench

# Paths the benchmark's workloads never take, pinned at their tokens and the
# bytes of every step's primary-branch logits: (SparsifyConfig overrides,
# tokens, sha256 of the concatenated ``logit_theta``).
ENGINE_PINS = {
    "per_head_mask": (
        dict(sparsity_rate=0.7, per_head_mask=True),
        [63, 23, 44, 63, 23, 44, 35, 53, 22, 9, 49, 23],
        "9c839885df8fceddb0d2bf38f2af4ce81af161aacae1215c2f13d24364051109"),
    "text_only": (
        dict(sparsity_rate=0.5, prune_scope="text_only"),
        [22, 9, 23, 44, 23, 44, 23, 44, 23, 44, 23, 44],
        "43310df7b47efb26a556d6d0c8a89f16e53f33f6c7a71d3dec45811088410453"),
    "logical_knn10": (
        dict(knn_k=10),
        [63, 23, 44, 23, 44, 23, 44, 23, 44, 51, 14, 23],
        "395127647c4f6a2fdd1654fe51b88aabbfd5edad328ceb75123cba1ba2e4cbfa"),
}


def pinned_session(overrides):
    """A seeded 100-token prefix (64 visual, 36 random text) and 12 steps."""
    rng = np.random.default_rng(97)
    m = transformer(35)
    img = ImageDescriptor((3, 9, 14, 20), 16)
    prompt = [int(t) for t in rng.integers(1, 64, size=36)]
    scfg = SparsifyConfig(l_min=8, **overrides)
    dcfg = DecodeConfig(max_len=12, seed=7, eos_id=-1)
    res = decode(m, img, prompt, scfg, dcfg, diag_level="full")
    theta = b"".join(d.detail.logit_theta.tobytes() for d in res.diagnostics)
    return res.tokens, hashlib.sha256(theta).hexdigest()


@pytest.mark.parametrize("name", sorted(ENGINE_PINS))
def test_engine_paths_match_pins(name):
    overrides, tokens, digest = ENGINE_PINS[name]
    assert pinned_session(overrides) == (tokens, digest)


# Compacted beam search with the visual mask on, pinned per (stop_layer,
# eos_id): tokens, sha256 of the ``beam_audit`` float bytes, sha256 of the
# winner's diagnostics (all fields but the timing) and peak rows. EOS 23
# ends the winning beam after one token, so finished beams are carried.
BEAM_PINS = {
    (0, -1): ([40, 37, 55, 55, 55, 37, 55, 37, 55, 37],
              "b69c65a91fd763aabb03d1af86e9765c36a5b32dd51e62c5fb80a0e01b303162",
              "6a75828577ad68ff34c8a41a86aaa7679448d80b45819a68ba59935a698d4671", 90),
    (0, 23): ([40],
              "0ba1d60d36b21abca54d4a40d93901993eea5f9bad09e67258fc3d54dff8e31b",
              "f3e206bc1b1321597e646da5ca1450ffbf5eb9a0fdff961d099dd30b9506c60e", 90),
    (1, -1): ([40, 37, 55, 55, 55, 55, 55, 37, 6, 37],
              "2d3fcd5b49febf4acb07b3fec1ec428fba56137279d3ab413a106426c7990f65",
              "8f639e89c9809ba90245ba1bbad96af393cb5ddbd729b20cbfbf5d98c3f8f95b", 90),
    (1, 23): ([40],
              "480895c3f747dfee966844f42cd623b86f5af6d64db3fe74fb9ff84f3e7d8f99",
              "f3e206bc1b1321597e646da5ca1450ffbf5eb9a0fdff961d099dd30b9506c60e", 90),
}


def beam_pinned_session(stop_layer, eos_id):
    """A 120-token prefix (48 visual, 72 random text) compacted down to 90
    rows, then 10 beam steps of width 4 with half the visuals masked."""
    rng = np.random.default_rng(211)
    m = transformer(41)
    img = ImageDescriptor((5, 11, 17, 30), 12)
    prompt = [int(t) for t in rng.integers(1, 64, size=72)]
    scfg = SparsifyConfig(mode="compacted", sparsity_rate=0.5, compact_band=8, l_min=8)
    dcfg = DecodeConfig(mode="beam", beam_size=4, visual_mask_rate=0.5, max_len=10,
                        seed=13, stop_layer=stop_layer, eos_id=eos_id)
    res = decode(m, img, prompt, scfg, dcfg)
    audit = np.array(res.beam_audit, dtype=np.float64).tobytes()
    diags = repr([(d.step, d.chosen, d.is_eos, d.p_theta_chosen, d.p_theta_max,
                   d.plausible_size, d.attn_error_mean, d.cache_rows, d.retained_raw,
                   d.logit_theta_argmax, d.fused_argmax) for d in res.diagnostics])
    return (res.tokens, hashlib.sha256(audit).hexdigest(),
            hashlib.sha256(diags.encode()).hexdigest(), res.peak_rows)


@pytest.mark.parametrize("stop_layer,eos_id", sorted(BEAM_PINS))
def test_compacted_beam_matches_pins(stop_layer, eos_id):
    assert beam_pinned_session(stop_layer, eos_id) == BEAM_PINS[(stop_layer, eos_id)]


# ----------------------------------------------------- pinned equivalences

sessions = st.fixed_dictionaries({
    "model_seed": st.integers(0, 2**16),
    "findings": st.lists(st.integers(1, 63), min_size=1, max_size=4, unique=True),
    "per_finding": st.integers(1, 6),
    "prompt": st.lists(st.integers(1, 63), min_size=8, max_size=24),
    "decode_seed": st.integers(0, 2**16),
})


def session_inputs(draw):
    m = transformer(draw["model_seed"])
    img = ImageDescriptor(tuple(draw["findings"]), draw["per_finding"])
    return m, img, draw["prompt"]


@settings(max_examples=12, deadline=None)
@given(sessions, st.sampled_from(["logical", "compacted"]), st.sampled_from([0, 1]))
def test_beam_width_one_equals_greedy_in_both_cache_modes(draw, mode, stop_layer):
    m, img, prompt = session_inputs(draw)
    scfg = SparsifyConfig(sparsity_rate=0.6, l_min=8, mode=mode, compact_band=2)
    greedy = decode(m, img, prompt, scfg,
                    DecodeConfig(max_len=8, seed=draw["decode_seed"],
                                 stop_layer=stop_layer))
    beam1 = decode(m, img, prompt, scfg,
                   DecodeConfig(max_len=8, seed=draw["decode_seed"],
                                stop_layer=stop_layer, mode="beam", beam_size=1))
    assert greedy.tokens == beam1.tokens


@settings(max_examples=12, deadline=None)
@given(sessions)
def test_logical_equals_compacted_when_nothing_is_pruned(draw):
    m, img, prompt = session_inputs(draw)
    dcfg = DecodeConfig(max_len=8, seed=draw["decode_seed"], eos_id=-1)
    runs = [decode(m, img, prompt, SparsifyConfig(sparsity_rate=1.0, l_min=8, mode=mode),
                   dcfg, diag_level="full")
            for mode in ("logical", "compacted")]
    assert runs[0].tokens == runs[1].tokens
    for a, b in zip(runs[0].diagnostics, runs[1].diagnostics, strict=True):
        assert np.array_equal(a.detail.logit_theta, b.detail.logit_theta)


@settings(max_examples=12, deadline=None)
@given(sessions, st.sampled_from(["logical", "compacted"]))
def test_logits_finite_and_attention_and_merge_weights_normalised(draw, mode):
    m, img, prompt = session_inputs(draw)
    scfg = SparsifyConfig(sparsity_rate=0.5, l_min=8, mode=mode, compact_band=2)
    dcfg = DecodeConfig(max_len=8, seed=draw["decode_seed"], eos_id=-1)
    merge_weights = []

    def spy(*args, **kwargs):
        assignment = cluster_pruned(*args, **kwargs)
        merge_weights.extend(assignment.weights)
        return assignment

    with mock.patch("sparsevcd.decoding.cluster_pruned", spy):
        res = decode(m, img, prompt, scfg, dcfg, diag_level="full")
    for d in res.diagnostics:
        assert np.all(np.isfinite(d.detail.logit_theta))
    rows = [snap["row"] for rec in res.forward_records for snap in rec["rows"]]
    assert rows
    for row in rows:
        assert abs(np.add.accumulate(row)[-1] - 1.0) <= 1e-12
    assert merge_weights
    for w in merge_weights:
        assert abs(np.add.accumulate(w)[-1] - 1.0) <= 1e-12
