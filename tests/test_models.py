import copy
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd import numerics
from sparsevcd.config import ModelConfig
from sparsevcd.errors import ConfigError
from sparsevcd.models import (_NOISE_SALT, ImageDescriptor, PlantedPriorComposer,
                              ToyTransformer, default_finding_ids,
                              default_prior, model_from_config)
from sparsevcd.rng import SplitMix64, combine


def small_model(seed=1):
    return ToyTransformer(seed, d_model=16, layers=2, heads=2, vocab=64)


def weights(model):
    """Every weight array of a toy transformer, in a fixed order."""
    out = [model.embedding, model.unembedding]
    for ell in range(model.layers):
        out += model.w_q[ell] + model.w_k[ell] + model.w_v[ell] + model.w_o[ell]
        out += [model.w_ff1[ell], model.w_ff2[ell]]
    return out


def composer(sigma=0.1, seed=3, **kw):
    ids = default_finding_ids()
    return PlantedPriorComposer(vocab=20, finding_ids=ids,
                                prior=default_prior(len(ids)),
                                sigma=sigma, seed=seed, **kw)


def test_same_seed_bit_identical_weights():
    a, b = small_model(1), small_model(1)
    assert all(np.array_equal(x, y) for x, y in zip(weights(a), weights(b)))
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.w_q[1][0], b.w_q[1][0])


def test_different_seeds_differ():
    a, b = small_model(1), small_model(2)
    assert not all(np.array_equal(x, y) for x, y in zip(weights(a), weights(b)))


def test_bad_dims_rejected():
    with pytest.raises(ConfigError):
        ToyTransformer(1, d_model=0)
    with pytest.raises(ConfigError):
        ToyTransformer(1, vocab=4)
    with pytest.raises(ConfigError):
        ToyTransformer(1, d_model=10, heads=4)


def forward_with_rows(model, cache, emb):
    """One ``forward_step`` through ``cache.attend``; returns the hidden state
    and, per layer, the attention rows (one per head)."""
    rows = []

    def attend(layer, q):
        att = cache.attend(layer, q)
        rows.append(list(att.rows))
        return att

    return model.forward_step(cache, emb, attend=attend), rows


def test_first_forward_attention_row_is_singleton():
    m = small_model()
    cache = m.new_cache()
    emb = m.embed_text([1])[0]
    _, rows = forward_with_rows(m, cache, emb)
    for layer_rows in rows:
        for row in layer_rows:
            assert row.shape == (1,)
            assert row[0] == 1.0


def test_attention_rows_sum_to_one():
    m = small_model()
    cache = m.new_cache()
    for t in [1, 5, 9, 13, 2, 2, 7]:
        _, rows = forward_with_rows(m, cache, m.embed_text([t])[0])
        for layer_rows in rows:
            for row in layer_rows:
                assert np.all(row >= 0.0)
                assert abs(row.sum() - 1.0) < 1e-9


def test_forward_step_deterministic():
    def run():
        m = small_model(11)
        cache = m.new_cache()
        hidden = None
        for t in [3, 1, 4, 1, 5]:
            hidden = m.forward_step(cache, m.embed_text([t])[0])
        return hidden

    assert np.array_equal(run(), run())


@lru_cache(maxsize=None)
def sized_model(d_model, heads, layers):
    return ToyTransformer(7, d_model=d_model, layers=layers, heads=heads,
                          vocab=64)


def step_hiddens(model, embs, visual, n_layers):
    """Hidden states from ``forward_step`` over a fresh cache, through the
    first ``n_layers`` layers (zero layers leave the embeddings as they are)."""
    if n_layers == 0:
        return embs
    stepper = model
    if n_layers != model.layers:
        stepper = copy.copy(model)
        stepper.layers = n_layers
    cache = stepper.new_cache()
    return [stepper.forward_step(cache, e, visual=v) for e, v in zip(embs, visual)]


@given(st.sampled_from([(4, 1), (8, 2), (12, 3), (16, 2), (16, 4), (32, 2)]),
       st.integers(1, 3), st.lists(st.tuples(st.booleans(), st.integers(0, 63)),
                                   min_size=1, max_size=48),
       st.data())
@settings(max_examples=100, deadline=None)
def test_sequence_forward_equals_step_forward_bitwise(dims, layers, tokens, data):
    d_model, heads = dims
    m = sized_model(d_model, heads, layers)
    n_layers = data.draw(st.integers(0, layers))
    visual = [is_visual for is_visual, _ in tokens]
    embs = [m.visual_base_embedding(t) if is_visual else m.embed_text([t])[0]
            for is_visual, t in tokens]
    seq = m.forward_sequence(embs, n_layers)
    assert seq.shape == (len(embs), d_model)
    # a small block takes these prefixes across several causal blocks
    with mock.patch.object(numerics, "CAUSAL_BLOCK", 5):
        assert m.forward_sequence(embs, n_layers).tobytes() == seq.tobytes()
    for i, step in enumerate(step_hiddens(m, embs, visual, n_layers)):
        assert np.array_equal(seq[i], step)


def test_embed_visual_repetition_and_determinism():
    m = small_model()
    img = ImageDescriptor((5,), tokens_per_finding=2)
    embs = m.embed_visual(img)
    assert len(embs) == 2
    assert np.array_equal(embs[0], embs[1])
    again = m.embed_visual(img)
    assert all(np.array_equal(a, b) for a, b in zip(embs, again))


def test_embed_visual_disjoint_images_have_distinct_embeddings():
    m = small_model()
    a = m.embed_visual(ImageDescriptor((4, 6, 8), 1))
    b = m.embed_visual(ImageDescriptor((5, 7, 9), 1))
    for ea in a:
        for eb in b:
            assert not np.array_equal(ea, eb)


def test_embed_visual_exhaustive_pairwise_distinct_over_findings():
    m = small_model()
    ids = default_finding_ids()
    bases = [m.visual_base_embedding(f) for f in ids]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            assert not np.array_equal(bases[i], bases[j])


def test_embed_visual_rejects_out_of_range_finding():
    m = small_model()
    with pytest.raises(ValueError):
        m.embed_visual(ImageDescriptor((64,), 1))


@pytest.mark.parametrize("model", [small_model(), composer()], ids=["transformer", "composer"])
def test_embeddings_are_blocks(model):
    img = ImageDescriptor((5, 7), tokens_per_finding=3)
    vis = model.embed_visual(img)
    text = model.embed_text([1, 2, 6])
    assert isinstance(vis, np.ndarray) and vis.shape == (6, model.d_model)
    assert isinstance(text, np.ndarray) and text.shape == (3, model.d_model)
    assert model.embed_text([]).shape == (0, model.d_model)
    assert np.array_equal(text[1], model.embed_text([2])[0])
    assert np.array_equal(vis[3], vis[5]) and not np.array_equal(vis[0], vis[3])


def test_lm_head_zero_embedding_gives_zero_logits():
    m = small_model()
    out = m.lm_head(np.zeros(m.d_model))
    assert np.array_equal(out, np.zeros(m.vocab))


def test_lm_head_linearity():
    m = small_model()
    rng = np.random.default_rng(0)
    e = rng.normal(size=m.d_model)
    assert np.allclose(m.lm_head(2.0 * e), 2.0 * m.lm_head(e), atol=0.0, rtol=1e-15)


def test_lm_head_dim_mismatch():
    m = small_model()
    with pytest.raises(ValueError):
        m.lm_head(np.zeros(m.d_model + 1))


def test_pooling_modes():
    m = small_model()
    embs = [np.ones(16), 3.0 * np.ones(16)]
    assert np.allclose(m.pool_embeddings(embs, "mean"), 2.0 * np.ones(16))
    assert np.array_equal(m.pool_embeddings(embs, "last"), embs[-1])
    with pytest.raises(ConfigError):
        m.pool_embeddings(embs, "max")


# ---------------------------------------------------------------- composer


def test_composer_all_masked_argmax_is_prior_argmax():
    c = composer(sigma=0.0)
    pooled = np.zeros(c.d_model)  # every visual token masked, no history
    logits = c.lm_head(pooled)
    finding_logits = logits[c.finding_ids]
    assert c.finding_ids[int(np.argmax(finding_logits))] == int(np.argmax(logits))
    assert int(np.argmax(logits)) == int(c.finding_ids[int(np.argmax(c.prior))])


def test_composer_logit_invariant():
    c = composer(sigma=0.1, seed=9)
    img = ImageDescriptor((5, 7), tokens_per_finding=4)
    embs = c.embed_visual(img)
    # half the tokens of finding 5 visible, all of finding 7
    visible = np.concatenate([embs[:2], embs[4:]])
    pooled = c.pool_embeddings(visible)
    logits = c.lm_head(pooled)
    i5 = list(c.finding_ids).index(5)
    i7 = list(c.finding_ids).index(7)
    assert abs(logits[5] - (c.a_vis * 0.5 + c.b_prior * c.prior[i5] + c.noise[i5])) < 1e-12
    assert abs(logits[7] - (c.a_vis * 1.0 + c.b_prior * c.prior[i7] + c.noise[i7])) < 1e-12


def test_composer_monotone_in_visible_fraction():
    c = composer(sigma=0.0)
    img = ImageDescriptor((6,), tokens_per_finding=4)
    embs = c.embed_visual(img)
    previous = None
    for visible_count in range(4, -1, -1):
        pooled = c.pool_embeddings(embs[:visible_count]) if visible_count else np.zeros(c.d_model)
        logit = c.lm_head(pooled)[6]
        if previous is not None:
            assert logit < previous
        previous = logit


def test_composer_repeat_suppression():
    c = composer(sigma=0.0)
    img = ImageDescriptor((6,), tokens_per_finding=2)
    embs = np.concatenate([c.embed_visual(img), c.embed_text([6])])
    logits = c.lm_head(c.pool_embeddings(embs))
    assert logits[6] < -100.0


def test_composer_pools_an_embedding_block():
    c = composer(sigma=0.0)
    block = np.concatenate([c.embed_visual(ImageDescriptor((6, 9), tokens_per_finding=3)),
                            c.embed_text([6])])
    assert np.array_equal(c.pool_embeddings(block), c.pool_embeddings(list(block)))
    with pytest.raises(ValueError):
        c.pool_embeddings(np.zeros((0, c.d_model)))


def test_composer_determinism_same_seed():
    a, b = composer(seed=21), composer(seed=21)
    assert np.array_equal(a.noise, b.noise)
    assert not np.array_equal(composer(seed=22).noise, a.noise)


@given(st.integers(-2**70, 2**70), st.lists(st.integers(1, 63), min_size=1, max_size=16,
                                             unique=True), st.floats(0.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_composer_noise_equals_three_part_seed_draws(seed, ids, sigma):
    """The composer folds the shared seed prefix once; each finding's draw
    must still be seeded with ``combine(seed, _NOISE_SALT, f)``, bit for
    bit."""
    c = PlantedPriorComposer(vocab=64, finding_ids=ids, prior=[1.0 / len(ids)] * len(ids),
                             sigma=sigma, seed=seed)
    expected = [sigma * SplitMix64(combine(seed, _NOISE_SALT, f)).gauss() for f in ids]
    assert c.noise.tobytes() == np.array(expected).tobytes()


def test_composer_rejects_bad_config():
    ids = default_finding_ids()
    with pytest.raises(ConfigError):
        PlantedPriorComposer(vocab=20, finding_ids=[], prior=[])
    with pytest.raises(ConfigError):
        PlantedPriorComposer(vocab=20, finding_ids=ids, prior=[0.5] * len(ids))
    with pytest.raises(ConfigError):
        PlantedPriorComposer(vocab=20, finding_ids=[0, 5],
                             prior=[0.5, 0.5])  # eos clash


def test_model_from_config_dispatch():
    t = model_from_config(ModelConfig(kind="transformer", seed=2))
    assert t.layers == 2 and t.vocab == 64
    c = model_from_config(ModelConfig(kind="composer", vocab=20, seed=2))
    assert c.layers == 1 and c.d_model == 40


def test_forward_step_sums_copy_no_factor():
    # at d_model 32 the QKV, W_o, feed-forward and unembedding products and,
    # past 32 rows, both attention sums reach numerics' einsum; every weight
    # and cache block is stored in its summing layout, so none is copied
    m = ToyTransformer(3, d_model=32, layers=2, heads=2, vocab=64)
    cache = m.new_cache()
    for t in np.random.default_rng(5).integers(1, 64, size=40):
        hidden = m.forward_step(cache, m.embed_text([t])[0])
    patch = mock.patch.object
    with patch(numerics.np, "ascontiguousarray", wraps=np.ascontiguousarray) as copies, \
            patch(numerics.np, "einsum", wraps=np.einsum) as einsums:
        m.lm_head(m.forward_step(cache, hidden))
    assert einsums.call_count == 2 * 6 + 1
    assert copies.call_count == 0


def test_forward_sequence_copies_no_w_o_factor():
    # at d_model 32 each head's W_o block against a block of rows reaches
    # numerics' einsum; it is stored rows-fastest, so it is not copied (the
    # copy left is causal_attention's own: its queries, transposed once)
    m = ToyTransformer(3, d_model=32, layers=2, heads=2, vocab=64)
    embs = m.embed_text(np.random.default_rng(5).integers(1, 64, size=40))
    with mock.patch.object(numerics.np, "ascontiguousarray", wraps=np.ascontiguousarray) as copies:
        m.forward_sequence(embs)
    copied = [call.args[0].shape for call in copies.call_args_list
              if not call.args[0].flags.c_contiguous]
    assert (m.head_dim, 40) in copied and (40, m.head_dim) not in copied
    assert (1, m.head_dim, m.d_model) not in copied


def test_causal_attention_copies_no_key_prefix():
    # 150 rows are three query blocks; each block's scores sum its key prefix
    # k[:b] through numerics' einsum, and causal_attention lays the queries
    # out rows-fastest once per call and reads keys and values as views, so
    # no block copies its prefix
    m = ToyTransformer(3, d_model=32, layers=2, heads=2, vocab=64)
    embs = m.embed_text(np.random.default_rng(5).integers(1, 64, size=150))
    with mock.patch.object(numerics.np, "ascontiguousarray", wraps=np.ascontiguousarray) as copies:
        m.forward_sequence(embs)
    copied = [call.args[0].shape for call in copies.call_args_list]
    assert (m.head_dim, 150) in copied and (150, m.head_dim) not in copied
    assert [s for s in copied if s[:2] == (1, m.head_dim)] == []


def test_forward_sequence_resums_no_entry():
    # causal_attention sums each context over its whole query block and sums
    # again, row prefix by row prefix, only the entries that come out exactly
    # zero or not finite; a model's contexts have none, so a 256-row forward
    # sends no entry down that slow path
    m = ToyTransformer(3)
    ids = np.random.default_rng(7).integers(1, m.vocab, size=192)
    image = ImageDescriptor(tuple(dict.fromkeys(int(f) for f in ids))[:16], tokens_per_finding=4)
    embs = np.concatenate([m.embed_visual(image), m.embed_text(ids)])
    assert len(embs) == 256
    with mock.patch.object(numerics, "_prefix_sums", wraps=numerics._prefix_sums) as resums:
        m.forward_sequence(embs)
    assert resums.call_count == 0
