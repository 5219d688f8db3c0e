"""Prefill state pinned at its bytes.

A seeded 100-token prefix (48 visual, 52 random text) runs through
``forward_step`` under each attention configuration below. The pins are the
sha256 of the last hidden state, the sha256 of each layer's ``c`` and ``r``
accumulators (all heads, head order) and the peak row count. The
accumulators drive every later plan, so a change in their last bit shows
here before it reaches a generated token.
"""

import hashlib

import numpy as np
import pytest

from sparsevcd.config import SparsifyConfig
from sparsevcd.decoding import EngineAttention
from sparsevcd.models import ImageDescriptor, ToyTransformer


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prefill_state(overrides):
    """Run the prefix; ``overrides=None`` takes the plain path
    (``forward_step`` with ``attend=None``)."""
    rng = np.random.default_rng(503)
    m = ToyTransformer(29, d_model=24, layers=2, heads=3, vocab=64)
    img = ImageDescriptor((4, 10, 19, 33), 12)
    prompt = [int(t) for t in rng.integers(1, 64, size=52)]
    if overrides is None:
        cache, attend = m.new_cache(), None
    else:
        scfg = SparsifyConfig(l_min=8, **overrides)
        cache = m.new_cache(accumulate_raw_scores=scfg.sac_input == "raw_scores")
        attend = EngineAttention(cache, scfg).attend
    steps = [(e, True) for e in m.embed_visual(img)] + [(e, False) for e in m.embed_text(prompt)]
    hidden = None
    for e, visual in steps:
        hidden = m.forward_step(cache, e, attend=attend, visual=visual)
    accumulators = [
        (_sha(b"".join(cache.c_view(ell, h).tobytes() for h in range(cache.heads))),
         _sha(b"".join(cache.r_view(ell, h).tobytes() for h in range(cache.heads))))
        for ell in range(cache.layers)]
    return _sha(hidden.tobytes()), accumulators, cache.peak_rows


# name -> (SparsifyConfig overrides or None for the plain path,
#          (hidden sha256, [(c sha256, r sha256) per layer], peak rows))
PREFILL_PINS = {
    "compacted": (
        dict(mode="compacted", sparsity_rate=0.5, compact_band=8),
        ("10f182d3084821f1e1ead7e1e0feb545c9d8a9b6a1241900252d7a89a0887a7a",
         [("e555cacd8aa302b56a168eb82f0b128a272c7ff3ae49670b03a3cf5d3639526b",
           "825392b5e45895ea6be3a3ec33c4aa70dd985dab73230cdbacf6cabdec843840"),
          ("18857817c43f2106e8472037b1adc1da2ae39036f5f759805ffa0a9a1cec88df",
           "77c7e7d4105ac82f9fa42d276f17d7f8608c006f0f47f3d8a43b3cda0a518c47")], 70)),
    "logical_per_head": (
        dict(sparsity_rate=0.7, per_head_mask=True),
        ("a16e8c2e8cca4c094a9a8e973a368b34abea008da9ca9979041cf6e8832c28fe",
         [("f6fa897b73fe177f5dc39996ae876a9f164edcdeaf649cafb5c412e68f164807",
           "c269a086e7fc48fe8863fb7e838570d2c17df31d20e1f2d484d87f06edfed1d6"),
          ("d9b46edf12b72aa21c5356d5fffb2c1b255b45fc579fb235a1c2c187d0490b7c",
           "3869dcb6dbf2bba9fd19efe896c8ec47ceaceb2e5891d74a91017a982287f6be")], 100)),
    "logical_shared": (
        dict(),
        ("38d0df782f8e26ef9d3b14c726cd0312cf9c116463fbba199c20e2684509474d",
         [("31885c69c90db50d82eaa3b75246599571ff340838e4cbc4dc258f3fa5b390bc",
           "1c675aa0552d38d7856a9382bd7e6427ed087b0e5e198f76c438e9c0cc5d09f1"),
          ("1e52320f891c305eef63562791a1a2cc75db14b73ce225c820e0b7dd195f02dd",
           "1f0d0b1d99a25a272f6297f4be58f26157e883a2d2657e6e454e075059e4c316")], 100)),
    "plain": (
        None,
        ("56721ce347e97384375873ff346a787803a3f950545b07d6e13932f656940638",
         [("bad5c870ef8bef80e52eb4f6d81fd4131dce35960bfeb6164d47016918a3d289",
           "23b35d696f806485f66a08944a2dbb33dd358886744673b54f13932abe1aff62"),
          ("71aa9187f2e902956d52c9c63872b16e403d89c67ad598cdea03a46afc5add6d",
           "cc93390f41683b7a1c2ad29c503d57a973aee0b04f0ba6b09f283d65662d2a16")], 100)),
    "raw_scores": (
        dict(sac_input="raw_scores"),
        ("6b74e1d055c7b4818f76c02286b9e40b231b5a7d0589dd104c1f57b8b8c65262",
         [("6295b4ea73929be9427a28b6f50fbefbba436f23f2ce1845dafc45c7d7e5cb49",
           "b2600d595caf1188ef9799c694c7b4abcf9faca433d4e05f0142e98f3d699e64"),
          ("3bc1560772d2b147104da48d0372e07c66331cac8bf3826afe02aa52c1e14cce",
           "1ba9f9ddcad3bb0f7f22a575ec085a18ac940fb8c912be3c4c5259545bfb8cf8")], 100)),
    "text_only": (
        dict(sparsity_rate=0.5, prune_scope="text_only"),
        ("ae02aed7686a3d4fdc3c3478dbe545079ea040f499978c5dc41c011e099fd31f",
         [("eb1f5d13537f97dabe939ee7cbcc27b6cdaaf7a862b0c32247fcdf5ef69583f5",
           "369c00277fc67e11352e2d5668a8a5a62233bb9469ffc6cc50cef323426b1506"),
          ("35b06fe514f9f65219dc109432c2898b5b11213951bd29e7e78344e025323d3e",
           "9c9f7cfd2a0634016f0644c49fecab15cfe11220ce7ede789439ed8a91379963")], 100)),
}


@pytest.mark.parametrize("name", sorted(PREFILL_PINS))
def test_prefill_state_matches_pins(name):
    overrides, expected = PREFILL_PINS[name]
    assert prefill_state(overrides) == expected
