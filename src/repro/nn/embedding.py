"""Token-embedding layer with optional pretrained (frozen or tunable) table."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend.core import fusion_enabled, get_default_dtype
from repro.nn.module import Module, Parameter


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors.

    The paper initializes embeddings from 100-d GloVe; this reproduction
    passes the structured synthetic table from
    :mod:`repro.data.embeddings` via ``pretrained``.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        pretrained: Optional[np.ndarray] = None,
        freeze: bool = False,
        padding_idx: Optional[int] = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.freeze = freeze
        if pretrained is not None:
            if pretrained.shape != (num_embeddings, embedding_dim):
                raise ValueError(
                    f"pretrained table shape {pretrained.shape} does not match "
                    f"({num_embeddings}, {embedding_dim})"
                )
            table = np.array(pretrained, dtype=get_default_dtype())
        else:
            table = rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim))
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table)
        if freeze:
            self.weight.requires_grad = False

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Map an integer array (B, L) to embeddings (B, L, D)."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if self.freeze:
            # Pin the output to the table's dtype (the policy dtype at
            # construction / after Module.astype): wrapping the raw gather
            # in Tensor() would re-cast it to the *ambient* policy, which
            # silently demoted a float32-cast model to mixed precision
            # whenever evaluation ran outside the training policy context.
            return Tensor(self.weight.data[token_ids], dtype=self.weight.data.dtype)
        if fusion_enabled():
            from repro.backend.ops import fused_embedding_gather

            return fused_embedding_gather(self.weight, token_ids)
        return self.weight.take_rows(token_ids)

    def __repr__(self) -> str:
        return f"Embedding(vocab={self.num_embeddings}, dim={self.embedding_dim}, freeze={self.freeze})"
