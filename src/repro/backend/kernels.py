"""Fused numpy kernels, registered in the one kernel table.

Each kernel collapses a chain of elementary autodiff ops into one
forward/backward pair operating on raw arrays.  The composed reference
implementations live in :mod:`repro.autograd` (``Tensor`` methods and
:mod:`repro.autograd.functional`); every kernel here is validated against
them by gradcheck in ``tests/backend/test_fused_kernels.py``.

Numerical conventions match the composed ops exactly: sigmoids clip their
input to ``[-60, 60]`` (as :meth:`Tensor.sigmoid` does) and softmaxes are
max-shifted, so fused and composed paths agree to float rounding.

Kernels are pure array functions — no :class:`Tensor` anywhere — and
callers reach them only by name through
:meth:`repro.backend.core.Backend.kernel`.
"""

from __future__ import annotations

import numpy as np

from repro.backend.core import get_backend, get_default_dtype

_SIGMOID_CLIP = 60.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Out-of-place convenience wrapper over the single authoritative
    # implementation below: the first clamp allocates the fresh result.
    out = np.maximum(x, -_SIGMOID_CLIP)
    _sigmoid_inplace(out)
    return out


# ----------------------------------------------------------------------
# Fused LSTM over a whole sequence (single graph node, explicit BPTT)
# ----------------------------------------------------------------------
def _sigmoid_inplace(x: np.ndarray) -> None:
    """``x <- sigmoid(clip(x))`` with no temporaries (same math as _sigmoid).

    Calls the clamp ufuncs directly — ``np.clip``'s dispatch wrapper costs
    more than the arithmetic at recurrent-step sizes.
    """
    np.maximum(x, -_SIGMOID_CLIP, out=x)
    np.minimum(x, _SIGMOID_CLIP, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def lstm_sequence_forward(
    gates_x: np.ndarray,
    weight_hh: np.ndarray,
    bias: np.ndarray,
    mask: np.ndarray | None,
    reverse: bool,
    need_cache: bool = True,
) -> tuple[np.ndarray, tuple | None]:
    """Unrolled LSTM recurrence over (B, L, 4H) input pre-activations.

    ``gates_x`` is the batched input projection ``x @ W_ih`` for every
    timestep; the recurrent term, bias, gate nonlinearities, cell update
    and (optional) padding-mask carry are all computed here, step math
    identical to the composed :meth:`repro.nn.lstm.LSTMCell.forward`.
    The step loop runs entirely in preallocated buffers (in-place ufuncs,
    ``out=`` matmuls, ``np.copyto`` masking — exact for the 0/1 padding
    masks), so the per-timestep cost is kernel work, not allocator churn.  Returns the (B, L, H) hidden
    sequence plus the cache for :func:`lstm_sequence_backward` —
    ``need_cache=False`` (the no-grad inference path) skips the
    sequence-sized cache allocations and returns ``None`` for it.
    """
    batch, length, four_h = gates_x.shape
    hs = four_h // 4
    dtype = gates_x.dtype
    h = np.zeros((batch, hs), dtype=dtype)
    c = np.zeros((batch, hs), dtype=dtype)
    # Fold the bias into the batched input projection once (vectorized over
    # the whole sequence) instead of re-adding it every step.
    gx = gates_x + bias
    if need_cache:
        # Post-nonlinearity gate activations [i, f, g, o] per step, stored
        # contiguously so the backward reads them as views; post-carry cell
        # states, from which the backward reconstructs c_prev by a shift
        # (h_prev likewise comes from shifting `out` — no per-step copies).
        acts_all = np.empty((batch, length, four_h), dtype=dtype)
        tanh_c_all = np.empty((batch, length, hs), dtype=dtype)
        c_all = np.empty((batch, length, hs), dtype=dtype)
    out = np.empty((batch, length, hs), dtype=dtype)
    gates = np.empty((batch, four_h), dtype=dtype)
    c_new = np.empty((batch, hs), dtype=dtype)
    h_new = np.empty((batch, hs), dtype=dtype)
    g_preact = np.empty((batch, hs), dtype=dtype)
    scratch = np.empty((batch, hs), dtype=dtype)
    mask_bool = None if mask is None else (mask != 0.0)
    steps = range(length - 1, -1, -1) if reverse else range(length)
    for t in steps:
        np.matmul(h, weight_hh, out=gates)
        gates += gx[:, t]
        # One sigmoid sweep over all four blocks, with the cell candidate's
        # pre-activation saved and re-written as tanh afterwards.
        g = gates[:, 2 * hs:3 * hs]
        g_preact[...] = g
        _sigmoid_inplace(gates)
        np.tanh(g_preact, out=g)
        i = gates[:, 0:hs]
        f = gates[:, hs:2 * hs]
        o = gates[:, 3 * hs:]
        np.multiply(f, c, out=c_new)
        np.multiply(i, g, out=scratch)
        c_new += scratch
        if need_cache:
            acts_all[:, t] = gates
            tanh_c = tanh_c_all[:, t]
        else:
            tanh_c = scratch
        np.tanh(c_new, out=tanh_c)                 # tanh(c')
        np.multiply(o, tanh_c, out=h_new)
        if mask_bool is not None:
            m = mask_bool[:, t:t + 1]
            # 0/1 carry: h' = h_tilde*m + h*(1-m) selects exactly.
            np.copyto(h, h_new, where=m)
            np.copyto(c, c_new, where=m)
        else:
            h[...] = h_new
            c[...] = c_new
        if need_cache:
            c_all[:, t] = c
        out[:, t] = h
    if not need_cache:
        return out, None
    cache = (acts_all, tanh_c_all, c_all, out, steps, reverse)
    return out, cache


def _shifted_prev(seq: np.ndarray, reverse: bool) -> np.ndarray:
    """Per-step "previous state" view of a recurrent state history.

    ``seq[:, t]`` holds the post-carry state *after* step ``t``; the state
    *entering* step ``t`` is the previous step's entry in iteration order
    (zeros at the initial step).  One vectorized copy replaces a per-step
    cache write in the forward loop.
    """
    prev = np.empty_like(seq)
    if reverse:
        prev[:, -1] = 0.0
        prev[:, :-1] = seq[:, 1:]
    else:
        prev[:, 0] = 0.0
        prev[:, 1:] = seq[:, :-1]
    return prev


def lstm_sequence_backward(
    grad_out: np.ndarray,
    weight_hh: np.ndarray,
    mask: np.ndarray | None,
    cache: tuple,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BPTT for :func:`lstm_sequence_forward`.

    Returns ``(d_gates_x, d_weight_hh, d_bias)``.  Per-step gate gradients
    are written straight into the preallocated (B, L, 4H) result and every
    step temporary lives in a reused buffer, so the whole backward is O(L)
    in full-sequence array traffic with no per-step allocations (the
    composed graph pays O(L²) re-summing per-step scatter outputs).
    """
    acts_all, tanh_c_all, c_all, out, steps, reverse = cache
    batch, length, hs = tanh_c_all.shape
    dtype = grad_out.dtype
    # Reconstruct the per-step previous states from the recorded histories
    # (one vectorized shift each — the forward loop writes no prev caches).
    h_prev_all = _shifted_prev(out, reverse)
    c_prev_all = _shifted_prev(c_all, reverse)
    d_gates_x = np.empty((batch, length, 4 * hs), dtype=dtype)
    dh = np.zeros((batch, hs), dtype=dtype)
    dc = np.zeros((batch, hs), dtype=dtype)
    weight_hh_T = np.ascontiguousarray(weight_hh.T)

    # Everything that does not depend on the recurrent (dh, dc) carry is
    # precomputed vectorized over the whole sequence; the step loop below
    # is left with the irreducible recurrence only.
    acts4 = acts_all.reshape(batch, length, 4, hs)
    i = acts4[:, :, 0]
    f = acts4[:, :, 1]
    g = acts4[:, :, 2]
    o = acts4[:, :, 3]
    # d(c')/d(gate pre-activations), per gate block [i, f, g]:
    #   i: g*i*(1-i)   f: c_prev*f*(1-f)   g: i*(1-g^2)
    dct_factor = np.empty((batch, length, 3, hs), dtype=dtype)
    np.subtract(1.0, i, out=dct_factor[:, :, 0])
    dct_factor[:, :, 0] *= i
    dct_factor[:, :, 0] *= g
    np.subtract(1.0, f, out=dct_factor[:, :, 1])
    dct_factor[:, :, 1] *= f
    dct_factor[:, :, 1] *= c_prev_all
    np.multiply(g, g, out=dct_factor[:, :, 2])
    np.subtract(1.0, dct_factor[:, :, 2], out=dct_factor[:, :, 2])
    dct_factor[:, :, 2] *= i
    # d(h')/d(output gate pre-activation): tanh_c*o*(1-o)
    do_factor = np.subtract(1.0, o)
    do_factor *= o
    do_factor *= tanh_c_all
    # d(h')/d(c'): o*(1-tanh_c^2)
    dtanh = np.multiply(tanh_c_all, tanh_c_all)
    np.subtract(1.0, dtanh, out=dtanh)
    dtanh *= o

    dgates4 = d_gates_x.reshape(batch, length, 4, hs)
    mask_col = None if mask is None else mask[:, :, None]
    dh_tilde = np.empty((batch, hs), dtype=dtype)
    dc_tilde = np.empty((batch, hs), dtype=dtype)
    dct = np.empty((batch, hs), dtype=dtype)
    dh_next = np.empty((batch, hs), dtype=dtype)
    for t in reversed(list(steps)):
        dh += grad_out[:, t]
        if mask_col is not None:
            m = mask_col[:, t]
            np.multiply(dh, m, out=dh_tilde)
            np.multiply(dc, m, out=dc_tilde)
            dh -= dh_tilde   # dh_carry = dh * (1 - m), exact for 0/1 masks
            dc -= dc_tilde
        else:
            dh_tilde[...] = dh
            dc_tilde[...] = dc
            dh[...] = 0.0
            dc[...] = 0.0
        # dct = dh_tilde * o * (1 - tanh_c^2) + dc_tilde
        np.multiply(dh_tilde, dtanh[:, t], out=dct)
        dct += dc_tilde
        # All three c'-path gate blocks in one broadcasted multiply.
        np.multiply(dct_factor[:, t], dct[:, None, :], out=dgates4[:, t, :3])
        np.multiply(do_factor[:, t], dh_tilde, out=dgates4[:, t, 3])
        np.matmul(d_gates_x[:, t], weight_hh_T, out=dh_next)
        dh += dh_next        # dh = dh_carry + dgates @ W_hh^T
        np.multiply(dct, f[:, t], out=dct)
        dc += dct            # dc = dc_carry + dct * f
    # The weight/bias reductions have no recurrent dependency: one big GEMM
    # and one big sum over the (B*L)-flattened sequence after the loop.
    d_weight_hh = np.matmul(
        h_prev_all.reshape(-1, hs).T, d_gates_x.reshape(-1, 4 * hs)
    ).astype(weight_hh.dtype, copy=False)
    d_bias = d_gates_x.sum(axis=(0, 1), dtype=weight_hh.dtype)
    return d_gates_x, d_weight_hh, d_bias


# ----------------------------------------------------------------------
# Fused GRU over a whole sequence (single graph node, explicit BPTT)
# ----------------------------------------------------------------------
def gru_sequence_forward(
    gates_x: np.ndarray,
    weight_hh: np.ndarray,
    bias_hh: np.ndarray,
    mask: np.ndarray | None,
    reverse: bool,
    need_cache: bool = True,
) -> tuple[np.ndarray, tuple | None]:
    """Unrolled GRU recurrence over (B, L, 3H) input pre-activations.

    ``gates_x`` is the batched input projection ``x @ W_ih + b_ih`` for
    every timestep, laid out ``[reset, update, candidate]``; the recurrent
    projection, gate nonlinearities, convex state update and (optional)
    padding-mask carry all run here, step math identical to
    :meth:`repro.nn.rnn.GRUCell.step_from_gates`.  Returns the (B, L, H)
    hidden sequence plus the cache for :func:`gru_sequence_backward` —
    ``need_cache=False`` (the no-grad inference path) skips the ~5
    sequence-sized cache allocations and returns ``None`` for it.
    """
    batch, length, three_h = gates_x.shape
    hs = three_h // 3
    dtype = gates_x.dtype
    h = np.zeros((batch, hs), dtype=dtype)
    # Fold the recurrent bias of the reset/update blocks into the batched
    # input projection once (their pre-activations are plain sums); the
    # candidate block's bias must stay on the recurrent side because it is
    # scaled by the reset gate.
    gx = gates_x.copy()
    gx[:, :, :2 * hs] += bias_hh[:2 * hs]
    bias_n = bias_hh[2 * hs:]
    if need_cache:
        # Post-nonlinearity reset/update activations stored contiguously,
        # candidate and its recurrent pre-activation separately; h_prev is
        # reconstructed in the backward by shifting `out`.
        rz_all = np.empty((batch, length, 2 * hs), dtype=dtype)
        n_all = np.empty((batch, length, hs), dtype=dtype)
        gh_n_all = np.empty((batch, length, hs), dtype=dtype)
    out = np.empty((batch, length, hs), dtype=dtype)
    gates_h = np.empty((batch, three_h), dtype=dtype)
    n_buf = np.empty((batch, hs), dtype=dtype)
    h_tilde = np.empty((batch, hs), dtype=dtype)
    scratch = np.empty((batch, hs), dtype=dtype)
    mask_bool = None if mask is None else (mask != 0.0)
    steps = range(length - 1, -1, -1) if reverse else range(length)
    for t in steps:
        np.matmul(h, weight_hh, out=gates_h)
        gh_n = gates_h[:, 2 * hs:]
        gh_n += bias_n
        rz = gates_h[:, :2 * hs]
        rz += gx[:, t, :2 * hs]
        _sigmoid_inplace(rz)
        r = gates_h[:, 0:hs]
        z = gates_h[:, hs:2 * hs]
        np.multiply(r, gh_n, out=n_buf)
        n_buf += gx[:, t, 2 * hs:]
        np.tanh(n_buf, out=n_buf)
        if need_cache:
            rz_all[:, t] = rz
            n_all[:, t] = n_buf
            gh_n_all[:, t] = gh_n
        # h_tilde = (1 - z) * n + z * h
        np.subtract(1.0, z, out=h_tilde)
        h_tilde *= n_buf
        np.multiply(z, h, out=scratch)
        h_tilde += scratch
        if mask_bool is not None:
            # 0/1 carry: h' = h_tilde*m + h*(1-m) selects exactly.
            np.copyto(h, h_tilde, where=mask_bool[:, t:t + 1])
        else:
            h[...] = h_tilde
        out[:, t] = h
    if not need_cache:
        return out, None
    cache = (rz_all, n_all, gh_n_all, out, steps, reverse)
    return out, cache


def gru_sequence_backward(
    grad_out: np.ndarray,
    weight_hh: np.ndarray,
    mask: np.ndarray | None,
    cache: tuple,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BPTT for :func:`gru_sequence_forward`.

    Returns ``(d_gates_x, d_weight_hh, d_bias_hh)``.  Per-step gate
    gradients are written straight into the preallocated (B, L, 3H)
    result, so the whole backward is O(L) in full-sequence array traffic
    (the composed graph pays O(L²) re-summing per-step scatter outputs).
    """
    rz_all, n_all, gh_n_all, out, steps, reverse = cache
    batch, length, hs = n_all.shape
    dtype = grad_out.dtype
    h_prev_all = _shifted_prev(out, reverse)
    r = rz_all[:, :, 0:hs]
    z = rz_all[:, :, hs:2 * hs]

    # Everything that does not depend on the recurrent dh carry is
    # precomputed vectorized over the whole sequence:
    #   da_n = dh_tilde * f_n       f_n = (1-z)*(1-n^2)
    #   da_r = da_n * f_r           f_r = gh_n*r*(1-r)
    #   da_z = dh_tilde * f_z       f_z = (h_prev-n)*z*(1-z)
    f_n = np.multiply(n_all, n_all)
    np.subtract(1.0, f_n, out=f_n)
    scratch_seq = np.subtract(1.0, z)
    f_n *= scratch_seq
    f_r = np.subtract(1.0, r)
    f_r *= r
    f_r *= gh_n_all
    f_z = np.subtract(h_prev_all, n_all)
    np.subtract(1.0, z, out=scratch_seq)
    scratch_seq *= z
    f_z *= scratch_seq

    d_gates_x = np.empty((batch, length, 3 * hs), dtype=dtype)
    dgates_h_all = np.empty((batch, length, 3 * hs), dtype=dtype)
    dh = np.zeros((batch, hs), dtype=dtype)
    weight_hh_T = np.ascontiguousarray(weight_hh.T)
    dh_tilde = np.empty((batch, hs), dtype=dtype)
    da_n = np.empty((batch, hs), dtype=dtype)
    dh_next = np.empty((batch, hs), dtype=dtype)
    for t in reversed(list(steps)):
        dh += grad_out[:, t]
        if mask is not None:
            m = mask[:, t:t + 1]
            np.multiply(dh, m, out=dh_tilde)
            dh -= dh_tilde   # dh_carry = dh * (1 - m), exact for 0/1 masks
        else:
            dh_tilde[...] = dh
            dh[...] = 0.0
        dgh = dgates_h_all[:, t]
        np.multiply(dh_tilde, f_n[:, t], out=da_n)
        np.multiply(da_n, f_r[:, t], out=dgh[:, 0:hs])          # da_r
        np.multiply(dh_tilde, f_z[:, t], out=dgh[:, hs:2 * hs])  # da_z
        np.multiply(da_n, r[:, t], out=dgh[:, 2 * hs:])
        d_gates_x[:, t, 2 * hs:] = da_n
        # dh = dh_carry + dh_tilde * z + dgates_h @ W_hh^T
        np.multiply(dh_tilde, z[:, t], out=dh_next)
        dh += dh_next
        np.matmul(dgh, weight_hh_T, out=dh_next)
        dh += dh_next
    # The reset/update input-gradient blocks equal the recurrent ones, and
    # the weight/bias reductions have no recurrent dependency: one big copy,
    # one big GEMM, one big sum after the loop.
    d_gates_x[:, :, :2 * hs] = dgates_h_all[:, :, :2 * hs]
    d_weight_hh = np.matmul(
        h_prev_all.reshape(-1, hs).T, dgates_h_all.reshape(-1, 3 * hs)
    ).astype(weight_hh.dtype, copy=False)
    d_bias_hh = dgates_h_all.sum(axis=(0, 1), dtype=weight_hh.dtype)
    return d_gates_x, d_weight_hh, d_bias_hh


# ----------------------------------------------------------------------
# Fused softmax / log-softmax / cross-entropy
# ----------------------------------------------------------------------
def softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax along ``axis``."""
    if x.dtype.kind != "f":
        # The composed path returns float for integer input; match it
        # (the in-place np.exp below needs a float buffer anyway).
        x = x.astype(get_default_dtype())
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def softmax_backward(y: np.ndarray, grad: np.ndarray, axis: int = -1) -> np.ndarray:
    """Jacobian-vector product of softmax given its output ``y``."""
    inner = (grad * y).sum(axis=axis, keepdims=True)
    return y * (grad - inner)


def log_softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted log-softmax along ``axis``."""
    if x.dtype.kind != "f":
        x = x.astype(get_default_dtype())
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax_backward(logp: np.ndarray, grad: np.ndarray, axis: int = -1) -> np.ndarray:
    """Jacobian-vector product of log-softmax given its output ``logp``."""
    return grad - np.exp(logp) * grad.sum(axis=axis, keepdims=True)


def softmax_xent_forward(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy for (B, C) logits and (B,) int targets.

    Returns ``(losses, probs)`` — the per-example losses plus the softmax
    probabilities cached for the backward kernel.
    """
    logp = log_softmax_forward(logits, axis=-1)
    losses = -logp[np.arange(logits.shape[0]), targets]
    return losses, np.exp(logp)


def softmax_xent_backward(probs: np.ndarray, targets: np.ndarray, row_grad: np.ndarray) -> np.ndarray:
    """Gradient of per-row cross-entropy: ``(probs - onehot) * row_grad``."""
    dlogits = probs.copy()
    dlogits[np.arange(probs.shape[0]), targets] -= 1.0
    dlogits *= np.reshape(row_grad, (-1, 1)) if np.ndim(row_grad) else row_grad
    return dlogits


# ----------------------------------------------------------------------
# Fused scaled-dot-product attention (scores + mask + softmax + context)
# ----------------------------------------------------------------------
def attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    key_mask: np.ndarray | None,
    scale: float,
) -> tuple[np.ndarray, tuple]:
    """Scaled dot-product attention over (B, H, L, dh) heads in one pass.

    ``key_mask`` is the (B, L) padding mask (1 = real token); masked key
    positions receive a ``-1e9`` score before the max-shifted softmax,
    numerics identical to the composed ``masked_fill`` + ``softmax`` chain.
    Returns ``(context, cache)`` where the cache feeds
    :func:`attention_backward`.
    """
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if key_mask is not None:
        blocked = (np.asarray(key_mask) == 0.0)[:, None, None, :]
        scores = np.where(blocked, scores.dtype.type(-1e9), scores)
    attn = softmax_forward(scores, axis=-1)
    context = attn @ v
    return context, (attn, q, k, v, scale)


def attention_backward(grad: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of fused attention w.r.t. ``(q, k, v)``.

    Masked key positions carry exactly zero attention weight (their scores
    underflow the shifted softmax), so the softmax JVP already routes no
    gradient through them — matching the composed ``masked_fill`` backward.
    """
    attn, q, k, v, scale = cache
    attn_t = np.swapaxes(attn, -1, -2)
    dv = attn_t @ grad
    dattn = grad @ np.swapaxes(v, -1, -2)
    dscores = softmax_backward(attn, dattn, axis=-1)
    dscores *= scale
    dq = dscores @ k
    dk = np.swapaxes(dscores, -1, -2) @ q
    return dq, dk, dv


# ----------------------------------------------------------------------
# Fused embedding gather with scatter-add gradient accumulation
# ----------------------------------------------------------------------
try:  # pragma: no cover - exercised indirectly via embedding_gather_backward
    from scipy import sparse as _sparse
except ImportError:  # scipy is a declared dependency, but stay importable
    _sparse = None


def embedding_gather_forward(table: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
    """Row gather ``table[token_ids]`` — shape ``token_ids.shape + (D,)``."""
    return table[token_ids]


def embedding_gather_backward(
    grad: np.ndarray, token_ids: np.ndarray, table_shape: tuple
) -> np.ndarray:
    """Scatter-add ``grad`` rows back onto a zero table of ``table_shape``.

    Duplicate token ids accumulate.  Uses a sparse one-hot matmul (CSR,
    C-speed) instead of ``np.add.at``, whose unbuffered Python-level
    fancy-index loop dominates the embedding backward at training batch
    sizes; falls back to ``np.add.at`` when scipy is unavailable.
    """
    rows, dim = int(np.prod(token_ids.shape)), table_shape[-1]
    flat_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    flat_grad = np.ascontiguousarray(grad.reshape(rows, dim))
    if _sparse is None:
        full = np.zeros(table_shape, dtype=grad.dtype)
        np.add.at(full, flat_ids, flat_grad)
        return full
    onehot = _sparse.csr_matrix(
        (np.ones(rows, dtype=grad.dtype), flat_ids, np.arange(rows + 1)),
        shape=(rows, table_shape[0]),
    )
    return np.asarray(onehot.T @ flat_grad)


# ----------------------------------------------------------------------
# Fused inverted dropout
# ----------------------------------------------------------------------
def dropout_forward(
    x: np.ndarray, p: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: zero with probability ``p``, scale by ``1/(1-p)``.

    Draws the same uniform stream as the composed implementation
    (:func:`repro.autograd.functional.dropout`), so seeded runs mask the
    same positions on either path.  Returns ``(out, keep)`` where ``keep``
    is the pre-scaled mask the backward multiplies by.
    """
    keep = (rng.uniform(size=x.shape) >= p).astype(x.dtype)
    keep *= x.dtype.type(1.0 / (1.0 - p))
    return x * keep, keep


def dropout_backward(grad: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Gradient of inverted dropout: pass-through on kept positions."""
    return grad * keep


# ----------------------------------------------------------------------
# Fused binary-concrete (stretched-and-rectified relaxed Bernoulli)
# ----------------------------------------------------------------------
def binary_concrete_forward(
    logit: np.ndarray,
    logistic_noise: np.ndarray,
    temperature: float,
    lo: float,
    hi: float,
) -> tuple[np.ndarray, tuple]:
    """Straight-through binary-concrete sample from Bernoulli logits.

    Computes ``clip(sigmoid((logit + noise)/T) * (hi-lo) + lo, 0, 1)`` and
    binarizes at 0.5 (forward); the cache carries what the backward needs
    to differentiate through the soft interior.
    """
    soft = _sigmoid((logit + logistic_noise) / temperature)
    stretched = soft * (hi - lo) + lo
    inside = (stretched >= 0.0) & (stretched <= 1.0)
    rectified = np.clip(stretched, 0.0, 1.0)
    hard = (rectified > 0.5).astype(logit.dtype)
    return hard, (soft, inside, temperature, hi - lo)


def binary_concrete_backward(grad: np.ndarray, cache: tuple) -> np.ndarray:
    """Straight-through gradient: through clip band, stretch, and sigmoid."""
    soft, inside, temperature, span = cache
    return grad * inside * span * soft * (1.0 - soft) / temperature


# ----------------------------------------------------------------------
# Registration in the kernel table
# ----------------------------------------------------------------------
_KERNELS = {
    "lstm_sequence_forward": lstm_sequence_forward,
    "lstm_sequence_backward": lstm_sequence_backward,
    "gru_sequence_forward": gru_sequence_forward,
    "gru_sequence_backward": gru_sequence_backward,
    "softmax_forward": softmax_forward,
    "softmax_backward": softmax_backward,
    "log_softmax_forward": log_softmax_forward,
    "log_softmax_backward": log_softmax_backward,
    "softmax_xent_forward": softmax_xent_forward,
    "softmax_xent_backward": softmax_xent_backward,
    "binary_concrete_forward": binary_concrete_forward,
    "binary_concrete_backward": binary_concrete_backward,
    "attention_forward": attention_forward,
    "attention_backward": attention_backward,
    "embedding_gather_forward": embedding_gather_forward,
    "embedding_gather_backward": embedding_gather_backward,
    "dropout_forward": dropout_forward,
    "dropout_backward": dropout_backward,
}

_table = get_backend()
for _name, _fn in _KERNELS.items():
    _table.register_kernel(_name, _fn)
