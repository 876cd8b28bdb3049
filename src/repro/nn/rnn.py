"""Gated recurrent units.

The paper's generator and predictors are 200-d bi-directional GRUs followed
by one linear layer.  :class:`GRU` here supports padding masks (so padded
positions carry the hidden state through unchanged) and bidirectionality.

When fused-kernel dispatch is on (:func:`repro.backend.set_fusion`) the
recurrence runs as a single graph node per direction through the backend's
``gru_sequence_*`` kernels (explicit BPTT backward, no per-step cache on
the no-grad inference path); the composed per-step loop below stays the
default and defines the reference numerics the kernel is validated
against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend.core import fusion_enabled, get_default_dtype
from repro.nn import init
from repro.nn.module import Module, Parameter


class GRUCell(Module):
    """Single GRU step: ``h' = (1-z)*n + z*h`` with reset/update gates."""

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((input_size, 3 * hidden_size), rng))
        self.weight_hh = Parameter(
            np.concatenate([init.orthogonal((hidden_size, hidden_size), rng) for _ in range(3)], axis=1)
        )
        self.bias_ih = Parameter(np.zeros(3 * hidden_size, dtype=get_default_dtype()))
        self.bias_hh = Parameter(np.zeros(3 * hidden_size, dtype=get_default_dtype()))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """Advance the hidden state one step for input ``x``."""
        gates_x = x @ self.weight_ih + self.bias_ih
        return self.step_from_gates(gates_x, h)

    def step_from_gates(self, gates_x: Tensor, h: Tensor) -> Tensor:
        """One step given precomputed input gates (B, 3H) and state (B, H).

        Splitting the input projection out lets :class:`GRU` batch the
        ``x @ W_ih`` matmul over the whole sequence.
        """
        hs = self.hidden_size
        gates_h = h @ self.weight_hh + self.bias_hh
        r = (gates_x[:, 0:hs] + gates_h[:, 0:hs]).sigmoid()
        z = (gates_x[:, hs:2 * hs] + gates_h[:, hs:2 * hs]).sigmoid()
        n = (gates_x[:, 2 * hs:] + r * gates_h[:, 2 * hs:]).tanh()
        return (1.0 - z) * n + z * h


class GRU(Module):
    """(Bi-directional) GRU over padded batches.

    Parameters
    ----------
    input_size, hidden_size:
        Feature dimensions.  For ``bidirectional=True`` the output feature
        size is ``2 * hidden_size``.
    bidirectional:
        Run a second cell over the reversed sequence and concatenate.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        bidirectional: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.bidirectional = bidirectional
        self.cell_fw = GRUCell(input_size, hidden_size, rng=rng)
        self.cell_bw = GRUCell(input_size, hidden_size, rng=rng) if bidirectional else None

    @property
    def output_size(self) -> int:
        return self.hidden_size * (2 if self.bidirectional else 1)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Encode (B, L, D) to (B, L, H or 2H).

        ``mask`` is a float/bool array (B, L); masked-off (0) positions do
        not update the hidden state, which makes padding inert.
        """
        outputs_fw = self._run_direction(self.cell_fw, x, mask, reverse=False)
        if not self.bidirectional:
            return outputs_fw
        outputs_bw = self._run_direction(self.cell_bw, x, mask, reverse=True)
        return Tensor.concatenate([outputs_fw, outputs_bw], axis=2)

    def _run_direction(self, cell: GRUCell, x: Tensor, mask: Optional[np.ndarray], reverse: bool) -> Tensor:
        batch, length, _ = x.shape
        hs = cell.hidden_size
        # One big matmul for the input projections of every timestep.
        gates_x = x.reshape(batch * length, self.input_size) @ cell.weight_ih + cell.bias_ih
        gates_x = gates_x.reshape(batch, length, 3 * hs)
        if fusion_enabled():
            from repro.backend.ops import fused_gru_sequence

            state_dtype = x.data.dtype if x.data.dtype.kind == "f" else get_default_dtype()
            mask_f = np.asarray(mask, dtype=state_dtype) if mask is not None else None
            return fused_gru_sequence(gates_x, cell.weight_hh, cell.bias_hh, mask_f, reverse)
        h = Tensor(np.zeros((batch, hs), dtype=get_default_dtype()))
        # One policy-dtype cast for the whole mask, not one per timestep.
        mask_f = np.asarray(mask, dtype=get_default_dtype()) if mask is not None else None
        steps = range(length - 1, -1, -1) if reverse else range(length)
        outputs: list[Optional[Tensor]] = [None] * length
        for t in steps:
            h_new = cell.step_from_gates(gates_x[:, t, :], h)
            if mask_f is not None:
                m = mask_f[:, t:t + 1]
                h = h_new * Tensor(m) + h * Tensor(1.0 - m)
            else:
                h = h_new
            outputs[t] = h
        return Tensor.stack(outputs, axis=1)
