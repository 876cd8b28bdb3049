"""Small transformer encoder — the BERT stand-in for the Table VI experiments.

The paper's Table VI replaces the GRU encoders with BERT-base-uncased and
shows that rationale shift gets *worse* for VIB/SPECTRA/RNP while DAR stays
robust ("powerful large pretrained models can recognize very small
deviations").  We reproduce the mechanism with a deliberately
over-parameterized multi-head self-attention encoder that is pretrained on
full-input classification before the cooperative game begins.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.backend.core import fusion_enabled
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.normalization import LayerNorm


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention with padding mask."""

    def __init__(self, d_model: int, num_heads: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        rng = rng or np.random.default_rng()
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend over the sequence; masked key positions are blocked."""
        batch, length, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, length)
        k = self._split_heads(self.k_proj(x), batch, length)
        v = self._split_heads(self.v_proj(x), batch, length)
        scale = 1.0 / np.sqrt(self.d_head)
        if fusion_enabled():
            from repro.backend.ops import fused_attention

            context = fused_attention(q, k, v, mask, scale)
        else:
            scores = (q @ k.swapaxes(-1, -2)) * scale
            if mask is not None:
                key_pad = np.asarray(mask)[:, None, None, :]  # (B,1,1,L)
                blocked = np.broadcast_to(key_pad == 0.0, scores.shape)
                scores = scores.masked_fill(blocked, -1e9)
            attn = F.softmax(scores, axis=-1)
            context = attn @ v  # (B, H, L, dh)
        context = context.swapaxes(1, 2).reshape(batch, length, self.d_model)
        return self.out_proj(context)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads, self.d_head).swapaxes(1, 2)


class TransformerEncoderLayer(Module):
    """Pre-norm transformer block: attention + position-wise feed-forward."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ff: int,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.attn = MultiHeadSelfAttention(d_model, num_heads, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, d_ff, rng=rng)
        self.ff2 = Linear(d_ff, d_model, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend over the sequence; masked key positions are blocked."""
        x = x + self.drop(self.attn(self.norm1(x), mask=mask))
        x = x + self.drop(self.ff2(F.gelu(self.ff1(self.norm2(x)))))
        return x


class TransformerEncoder(Module):
    """Stack of encoder layers with learned positional embeddings.

    Exposes the same ``(x, mask) -> (B, L, d_model)`` contract as
    :class:`repro.nn.rnn.GRU`, so the rationalization models can swap it in
    as the encoder (the Table VI configuration).
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int = 4,
        num_layers: int = 2,
        d_ff: Optional[int] = None,
        max_len: int = 512,
        dropout: float = 0.1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        d_ff = d_ff or 4 * d_model
        from repro.nn.module import ModuleList, Parameter

        self.d_model = d_model
        self.pos_embedding = Parameter(rng.normal(0.0, 0.02, size=(max_len, d_model)))
        self.layers = ModuleList(
            [TransformerEncoderLayer(d_model, num_heads, d_ff, dropout=dropout, rng=rng) for _ in range(num_layers)]
        )
        self.final_norm = LayerNorm(d_model)

    @property
    def output_size(self) -> int:
        return self.d_model

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend over the sequence; masked key positions are blocked."""
        length = x.shape[1]
        x = x + self.pos_embedding[:length]
        for layer in self.layers:
            x = layer(x, mask=mask)
        return self.final_norm(x)
