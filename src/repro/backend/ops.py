"""Autograd-level fused operations.

Each function here builds *one* graph node backed by a fused kernel of the
kernel table, instead of the chain of elementary nodes the composed reference implementations in
:mod:`repro.autograd` create.  The thin wrappers in
:mod:`repro.autograd.functional` dispatch to these when
:func:`repro.backend.core.fusion_enabled` is true;
:class:`repro.nn.lstm.LSTM` calls :func:`fused_lstm_sequence` whenever
its ``fused`` flag (default true) is set, with the composed per-step
:meth:`repro.nn.lstm.LSTMCell.forward` path as the gradcheck reference
and seed-configuration baseline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.backend.core import get_backend


def fused_lstm_sequence(
    gates_x: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    mask: Optional[np.ndarray],
    reverse: bool = False,
) -> Tensor:
    """Whole LSTM recurrence ``(B, L, 4H) -> (B, L, H)`` as ONE graph node.

    ``gates_x`` is the batched input projection for every timestep; the
    recurrent matmuls, gate math and padding carry run inside the kernel,
    and the backward is an explicit BPTT loop
    (:func:`repro.backend.kernels.lstm_sequence_backward`).  Step math is
    identical to chaining the composed :class:`repro.nn.lstm.LSTMCell`,
    but the graph holds a single node per direction instead of O(L) nodes — this is what makes
    the LSTM fast path scale.
    """
    backend = get_backend()
    # Mirror Tensor._make's graph condition: on the no-grad inference path
    # the BPTT cache would be dead weight, so skip allocating it.
    need_cache = is_grad_enabled() and (
        gates_x.requires_grad or weight_hh.requires_grad or bias.requires_grad
    )
    out, cache = backend.kernel("lstm_sequence_forward")(
        gates_x.data, weight_hh.data, bias.data, mask, reverse, need_cache
    )
    sequence_backward = backend.kernel("lstm_sequence_backward")

    def backward(grad):
        return sequence_backward(grad, weight_hh.data, mask, cache)

    return Tensor._make(out, (gates_x, weight_hh, bias), backward, "lstm_sequence")


def fused_gru_sequence(
    gates_x: Tensor,
    weight_hh: Tensor,
    bias_hh: Tensor,
    mask: Optional[np.ndarray],
    reverse: bool = False,
) -> Tensor:
    """Whole GRU recurrence ``(B, L, 3H) -> (B, L, H)`` as ONE graph node.

    ``gates_x`` is the batched input projection (including ``bias_ih``)
    for every timestep; the recurrent matmuls, gate math and padding carry
    run inside the kernel, and the backward is an explicit BPTT loop
    (:func:`repro.backend.kernels.gru_sequence_backward`).  Step math is
    identical to :meth:`repro.nn.rnn.GRUCell.step_from_gates`, but the
    graph holds a single node per direction instead of O(L) nodes —
    :class:`repro.nn.rnn.GRU` dispatches here when the fusion switch is on,
    which is what makes the default (paper-configuration) encoder scale.
    """
    backend = get_backend()
    # Mirror Tensor._make's graph condition: on the no-grad inference path
    # the BPTT cache would be dead weight, so skip allocating it.
    need_cache = is_grad_enabled() and (
        gates_x.requires_grad or weight_hh.requires_grad or bias_hh.requires_grad
    )
    out, cache = backend.kernel("gru_sequence_forward")(
        gates_x.data, weight_hh.data, bias_hh.data, mask, reverse, need_cache
    )
    sequence_backward = backend.kernel("gru_sequence_backward")

    def backward(grad):
        return sequence_backward(grad, weight_hh.data, mask, cache)

    return Tensor._make(out, (gates_x, weight_hh, bias_hh), backward, "gru_sequence")


def fused_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` as a single graph node."""
    backend = get_backend()
    y = backend.kernel("softmax_forward")(x.data, axis)
    softmax_backward = backend.kernel("softmax_backward")
    return Tensor._make(y, (x,), lambda grad: (softmax_backward(y, grad, axis),), "fused_softmax")


def fused_log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis`` as a single graph node."""
    backend = get_backend()
    logp = backend.kernel("log_softmax_forward")(x.data, axis)
    log_softmax_backward = backend.kernel("log_softmax_backward")
    return Tensor._make(
        logp, (x,), lambda grad: (log_softmax_backward(logp, grad, axis),), "fused_log_softmax"
    )


def fused_softmax_cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax + cross-entropy over (B, C) logits as a single graph node.

    The backward is the closed form ``(probs - onehot) * grad`` instead of
    backpropagating through the log-softmax / gather / negate chain.
    """
    if logits.ndim != 2:
        raise ValueError(f"fused cross-entropy expects (B, C) logits, got {logits.shape}")
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    targets = np.asarray(targets, dtype=np.int64)
    backend = get_backend()
    losses, probs = backend.kernel("softmax_xent_forward")(logits.data, targets)
    xent_backward = backend.kernel("softmax_xent_backward")
    batch = logits.shape[0]
    if reduction == "mean":
        data = losses.mean()
    elif reduction == "sum":
        data = losses.sum()
    else:
        data = losses

    def backward(grad):
        if reduction == "mean":
            row_grad = np.asarray(grad) / batch
        else:  # "sum" broadcasts the scalar, "none" is already per-row
            row_grad = np.asarray(grad)
        return (xent_backward(probs, targets, row_grad),)

    return Tensor._make(np.asarray(data), (logits,), backward, "fused_softmax_xent")


def fused_gumbel_softmax(
    logits: Tensor,
    temperature: float = 1.0,
    hard: bool = True,
    axis: int = -1,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Gumbel-softmax sample (optionally straight-through) as one node.

    Draws the same noise stream as the composed implementation
    (:func:`repro.autograd.functional.sample_gumbel` with the same ``rng``),
    so seeded runs sample identical masks on either path.
    """
    from repro.autograd.functional import sample_gumbel
    from repro.backend.core import get_default_dtype

    rng = rng or np.random.default_rng()
    backend = get_backend()
    # The composed path wraps the noise in Tensor(), which casts it to the
    # policy dtype — match that, or float64 noise would promote the whole
    # sampled mask (and everything downstream) off the float32 fast path.
    noise = sample_gumbel(logits.shape, rng).astype(get_default_dtype(), copy=False)
    soft = backend.kernel("softmax_forward")((logits.data + noise) / temperature, axis)
    softmax_backward = backend.kernel("softmax_backward")

    def backward(grad):
        # Straight-through: the hard forward value reuses the soft gradient.
        return (softmax_backward(soft, grad, axis) / temperature,)

    if not hard:
        return Tensor._make(soft, (logits,), backward, "fused_gumbel")
    index = soft.argmax(axis=axis)
    hard_np = np.zeros_like(soft)
    np.put_along_axis(hard_np, np.expand_dims(index, axis), 1.0, axis=axis)
    return Tensor._make(hard_np, (logits,), backward, "fused_gumbel_st")


def fused_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    key_mask: Optional[np.ndarray],
    scale: float,
) -> Tensor:
    """Scaled dot-product attention ``(B,H,L,dh)³ -> (B,H,L,dh)`` as ONE node.

    Scores, padding mask, max-shifted softmax and the context matmul all
    run inside the backend kernel; the composed chain builds ~6 graph
    nodes (two of them (B,H,L,L)-sized intermediates with their own
    backward closures).  :class:`repro.nn.attention.MultiHeadSelfAttention`
    dispatches here when the fusion switch is on.
    """
    backend = get_backend()
    context, cache = backend.kernel("attention_forward")(
        q.data, k.data, v.data, key_mask, scale
    )
    attention_backward = backend.kernel("attention_backward")
    return Tensor._make(
        context, (q, k, v), lambda grad: attention_backward(grad, cache), "fused_attention"
    )


def fused_embedding_gather(table: Tensor, token_ids: np.ndarray) -> Tensor:
    """Embedding lookup ``table[token_ids]`` as one backend-dispatched node.

    The backward is the registered scatter-add kernel
    (:func:`repro.backend.kernels.embedding_gather_backward`), which
    accumulates duplicate-token gradients at C speed instead of
    ``np.add.at``'s unbuffered fancy-index loop.
    """
    backend = get_backend()
    token_ids = np.asarray(token_ids, dtype=np.int64)
    out = backend.kernel("embedding_gather_forward")(table.data, token_ids)
    gather_backward = backend.kernel("embedding_gather_backward")
    table_shape = table.data.shape

    def backward(grad):
        return (gather_backward(grad, token_ids, table_shape),)

    return Tensor._make(out, (table,), backward, "fused_embedding_gather")


def fused_dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout as one node (same noise stream as the composed op)."""
    backend = get_backend()
    out, keep = backend.kernel("dropout_forward")(x.data, p, rng)
    dropout_backward = backend.kernel("dropout_backward")
    return Tensor._make(out, (x,), lambda grad: (dropout_backward(grad, keep),), "fused_dropout")


def fused_binary_concrete(
    logit: Tensor,
    temperature: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    lo: float = -0.1,
    hi: float = 1.1,
    eps: float = 1e-6,
) -> Tensor:
    """Stretched-and-rectified relaxed Bernoulli sample as one node.

    Matches :func:`repro.core.sampling.hardkuma_sampler`'s composed math
    (same noise stream, same stretch/clip band, same straight-through
    binarization at 0.5) with a single fused forward/backward.
    """
    from repro.backend.core import get_default_dtype

    rng = rng or np.random.default_rng()
    noise = rng.uniform(eps, 1.0 - eps, size=logit.shape)
    # Cast like the composed path's Tensor(logistic) does, keeping the
    # float32 fast path in float32.
    logistic = (np.log(noise) - np.log(1.0 - noise)).astype(get_default_dtype(), copy=False)
    backend = get_backend()
    mask, cache = backend.kernel("binary_concrete_forward")(logit.data, logistic, temperature, lo, hi)
    concrete_backward = backend.kernel("binary_concrete_backward")
    return Tensor._make(mask, (logit,), lambda grad: (concrete_backward(grad, cache),), "fused_binary_concrete")
