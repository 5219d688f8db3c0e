"""Independent brute-force reference implementations, used only by tests and
expected-value generation.

Everything here deliberately shares no code with the engine paths it
validates: no imports from the cache, selection, calibration or decoding
modules, and all linear algebra is written out locally (with the same
documented left-to-right accumulation convention the engine follows, so
bit-exact comparisons are meaningful). Keep it that way.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from sparsevcd.models import RMS_EPS, ImageDescriptor, ToyTransformer

ENUMERATION_LIMIT = 20


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.add.accumulate(a * b)[-1])


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.add.accumulate(m * v, axis=1)[:, -1]


def _softmax(x: np.ndarray) -> np.ndarray:
    m = np.max(x)
    e = np.exp(x - m)
    return e / float(np.add.accumulate(e)[-1])


def brute_force_mask(q, keys, p, lam: float, s: int):
    """Exhaustive minimiser of the sparsification objective.

    Enumerates every size-``s`` retention set, evaluates
    ``sum_i ((1 - M_i) <K_i, q>)^2 - M_i * lam * P_i`` literally, and returns
    ``(mask, objective)`` for the minimum; ties keep the first retention set
    in ascending lexicographic order.
    """
    keys = np.asarray(keys, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = keys.shape[0]
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"brute_force_mask: refusing L={n} > {ENUMERATION_LIMIT}")
    if not 1 <= s <= n:
        raise ValueError("brute_force_mask: budget outside [1, L]")
    ip = [_dot(keys[i], q) for i in range(n)]
    g = [v * v for v in ip]
    lp = [lam * p[i] for i in range(n)]
    best_keep = None
    best_obj = math.inf
    for keep in itertools.combinations(range(n), s):
        obj = 0.0
        kpos = 0
        for i in range(n):
            if kpos < s and keep[kpos] == i:
                obj -= lp[i]
                kpos += 1
            else:
                obj += g[i]
        if obj < best_obj:
            best_obj = obj
            best_keep = keep
    mask = np.zeros(n, dtype=bool)
    mask[list(best_keep)] = True
    return mask, best_obj


def objective_value(mask, g, p, lam: float) -> float:
    """The sparsification objective of a retention mask ``M``, evaluated
    literally: ``sum_i (1 - M_i) * g_i  -  lam * sum_i M_i * p_i``."""
    m = np.asarray(mask, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if not m.shape == g.shape == p.shape:
        raise ValueError("objective_value: mask, g and p lengths differ")
    keep_term = 0.0
    sal_term = 0.0
    for i in range(m.shape[0]):
        keep_term += (1.0 - m[i]) * g[i]
        sal_term += m[i] * p[i]
    return float(keep_term - lam * sal_term)


def reference_full_decode(model: ToyTransformer, prompt_ids, image: ImageDescriptor,
                          max_len: int, eos_id: int = 0) -> list[int]:
    """Cache-free greedy decoding: every position's hidden state is computed
    once from the model weights, attending over the keys and values of all
    positions so far. No sparsification, no calibration, no fusion."""
    if not isinstance(model, ToyTransformer):
        raise TypeError("reference_full_decode only supports the toy transformer")
    forward = _position_forward(model, image.n_tokens + len(prompt_ids) + max_len)
    pending = np.concatenate([model.embed_visual(image), model.embed_text(list(prompt_ids))])
    tokens: list[int] = []
    for _ in range(max_len):
        for emb in pending:
            hidden = forward(emb)
        chosen = int(np.argmax(_mv(model.unembedding, hidden)))
        if chosen == eos_id:
            break
        tokens.append(chosen)
        pending = model.embed_text([chosen])
    return tokens


def reference_hidden_states(model: ToyTransformer, embs) -> np.ndarray:
    """The last hidden state of every position of the embedding sequence
    ``embs``, as the rows of an ``(n, d_model)`` array; each position is
    forwarded once, attending over the positions up to itself."""
    forward = _position_forward(model, len(embs))
    return np.array([forward(emb) for emb in embs]).reshape(len(embs), model.d_model)


def _position_forward(model: ToyTransformer, capacity: int):
    """A function taking the next position's embedding to its last hidden
    state. Every position's key and value are written once into arrays
    of ``capacity`` positions, and a position attends over the rows so far."""
    hd = model.head_dim
    sqrt_d = math.sqrt(hd)
    keys = np.zeros((model.layers, model.heads, capacity, hd))
    vals = np.zeros_like(keys)
    # q, k and v of a head in one product: each output row reduces on its
    # own, so the bits equal three separate products
    w_qkv = [[np.vstack([model.w_q[ell][h], model.w_k[ell][h], model.w_v[ell][h]])
              for h in range(model.heads)] for ell in range(model.layers)]
    n = 0

    def forward(emb) -> np.ndarray:
        nonlocal n
        pos, n = n, n + 1
        x = np.asarray(emb, dtype=np.float64)
        for ell in range(model.layers):
            xn = x / np.sqrt(np.mean(x * x) + RMS_EPS)
            attn_out = np.zeros(model.d_model)
            for h in range(model.heads):
                qkv = _mv(w_qkv[ell][h], xn)
                q = qkv[:hd]
                keys[ell, h, pos] = qkv[hd:2 * hd]
                vals[ell, h, pos] = qkv[2 * hd:]
                scores = _mv(keys[ell, h, :pos + 1], q) / sqrt_d
                row = _softmax(scores)
                ctx = np.add.accumulate(row[:, None] * vals[ell, h, :pos + 1], axis=0)[-1, :]
                attn_out += _mv(model.w_o[ell][h], ctx)
            x = x + attn_out
            xn2 = x / np.sqrt(np.mean(x * x) + RMS_EPS)
            ff = np.maximum(_mv(model.w_ff1[ell], xn2), 0.0)
            x = x + _mv(model.w_ff2[ell], ff)
        return x

    return forward


def reference_clustering(points, k: int, n_clusters: int):
    """Density-peak clustering written independently of the engine version,
    with extended-precision (compensated) distance accumulation.

    Returns ``(labels, centers)`` with canonical labels: clusters are numbered
    by ascending center index.
    """
    pts = [list(map(float, p)) for p in points]
    n = len(pts)
    if n > 64:
        raise ValueError("reference_clustering: instance too large")
    if n == 0:
        raise ValueError("reference_clustering: empty instance")
    if n == 1:
        return [0], [0]
    k = max(1, min(k, n - 1))
    n_clusters = max(1, min(n_clusters, n))

    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sq = math.fsum((a - b) * (a - b) for a, b in zip(pts[i], pts[j]))
            d = math.sqrt(sq)
            dist[i][j] = d
            dist[j][i] = d

    rho = []
    for i in range(n):
        near = sorted(dist[i][j] for j in range(n) if j != i)[:k]
        rho.append(1.0 / (1e-8 + math.fsum(near) / k))

    rank_order = sorted(range(n), key=lambda i: (-rho[i], i))
    max_pair = max(max(row) for row in dist)
    sep = [0.0] * n
    nearest_denser = [-1] * n
    for pos, i in enumerate(rank_order):
        if pos == 0:
            sep[i] = max_pair
            continue
        best = min(rank_order[:pos], key=lambda j: (dist[i][j], j))
        nearest_denser[i] = best
        sep[i] = dist[i][best]

    gamma = [rho[i] * sep[i] for i in range(n)]
    centers = sorted(sorted(range(n), key=lambda i: (-gamma[i], i))[:n_clusters])

    labels = [-1] * n
    for cid, c in enumerate(centers):
        labels[c] = cid
    for i in rank_order:
        if labels[i] >= 0:
            continue
        j = nearest_denser[i]
        if j < 0:
            j = min(centers, key=lambda c: (dist[i][c], c))
        labels[i] = labels[j]
    return labels, centers
