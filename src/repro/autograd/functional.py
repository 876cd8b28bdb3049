"""Differentiable functional building blocks for the rationalization models.

Everything here takes and returns :class:`~repro.autograd.tensor.Tensor`
objects.  The Gumbel-softmax implementation (:func:`gumbel_softmax`) with a
straight-through estimator is the reparameterization trick the paper (and
RNP/DMR/A2R before it) uses to sample the binary rationale mask M in Eq. (1).

The hot ops (:func:`softmax`, :func:`log_softmax`, :func:`cross_entropy`,
:func:`gumbel_softmax`) are thin wrappers: when fused-kernel dispatch is on
(:func:`repro.backend.set_fusion`) they route to the kernel table's fused
kernels via :mod:`repro.backend.ops`; otherwise they run the composed
reference graph below, which defines the numerics the fused kernels are
gradchecked against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend.core import fusion_enabled, get_default_dtype


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT)."""
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    if fusion_enabled():
        from repro.backend.ops import fused_softmax

        return fused_softmax(x, axis=axis)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    if fusion_enabled():
        from repro.backend.ops import fused_log_softmax

        return fused_log_softmax(x, axis=axis)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given ``log_probs`` of shape (B, C).

    ``targets`` is an integer class-index array of shape (B,).
    """
    targets = np.asarray(targets, dtype=np.int64)
    batch = log_probs.shape[0]
    picked = log_probs[np.arange(batch), targets]
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy: the H_c(Y, Y_hat) of the paper's Eq. (2)."""
    if fusion_enabled() and logits.ndim == 2:
        from repro.backend.ops import fused_softmax_cross_entropy

        return fused_softmax_cross_entropy(logits, targets, reduction=reduction)
    return nll_loss(log_softmax(logits, axis=-1), targets, reduction=reduction)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Sigmoid cross-entropy, numerically stable via the log-sum-exp form."""
    targets_t = Tensor(np.asarray(targets, dtype=get_default_dtype()))
    # max(x, 0) - x*t + log(1 + exp(-|x|))
    abs_logits = logits.abs()
    loss = logits.relu() - logits * targets_t + ((-abs_logits).exp() + 1.0).log()
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def kl_divergence(p: Tensor, q: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """KL(p || q) over probability vectors along ``axis``."""
    p_safe = p.clip(eps, 1.0)
    q_safe = q.clip(eps, 1.0)
    return (p_safe * (p_safe.log() - q_safe.log())).sum(axis=axis)


def js_divergence(p: Tensor, q: Tensor, axis: int = -1) -> Tensor:
    """Jensen-Shannon divergence — the coupling A2R minimizes between its
    predictor heads."""
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m, axis=axis) + 0.5 * kl_divergence(q, m, axis=axis)


def entropy(p: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Shannon entropy of probability vectors along ``axis``."""
    p_safe = p.clip(eps, 1.0)
    return -(p_safe * p_safe.log()).sum(axis=axis)


def sample_gumbel(shape: tuple, rng: np.random.Generator, eps: float = 1e-10) -> np.ndarray:
    """Draw standard Gumbel noise."""
    u = rng.uniform(low=eps, high=1.0 - eps, size=shape)
    return -np.log(-np.log(u))


def gumbel_softmax(
    logits: Tensor,
    temperature: float = 1.0,
    hard: bool = True,
    axis: int = -1,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Gumbel-softmax sample with optional straight-through binarization.

    With ``hard=True`` the forward value is a one-hot argmax of the perturbed
    logits while the gradient flows through the underlying soft sample — the
    standard straight-through estimator the paper uses to binarize the
    rationale mask.
    """
    if fusion_enabled():
        from repro.backend.ops import fused_gumbel_softmax

        return fused_gumbel_softmax(logits, temperature=temperature, hard=hard, axis=axis, rng=rng)
    rng = rng or np.random.default_rng()
    noise = Tensor(sample_gumbel(logits.shape, rng))
    soft = softmax((logits + noise) / temperature, axis=axis)
    if not hard:
        return soft
    index = soft.data.argmax(axis=axis)
    hard_np = np.zeros_like(soft.data)
    np.put_along_axis(hard_np, np.expand_dims(index, axis), 1.0, axis=axis)
    # straight-through: forward = hard, backward = d(soft)
    return soft + Tensor(hard_np - soft.data)


def softplus(x: Tensor, beta: float = 1.0) -> Tensor:
    """Smooth relu: ``log(1 + exp(beta x)) / beta``, overflow-safe."""
    scaled = x * beta
    # max(x, 0) + log1p(exp(-|x|)) form avoids overflow for large inputs.
    return (scaled.relu() + ((-scaled.abs()).exp() + 1.0).log()) * (1.0 / beta)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    out = (x - shift).exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        out = out.squeeze(axis)
    return out


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: identity at eval time.

    Fused dispatch builds one graph node; the composed path draws the same
    noise stream, so seeded runs mask identically on either path.
    """
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    if fusion_enabled():
        from repro.backend.ops import fused_dropout

        return fused_dropout(x, p, rng)
    keep = (rng.uniform(size=x.shape) >= p).astype(get_default_dtype()) / (1.0 - p)
    return x * Tensor(keep)
