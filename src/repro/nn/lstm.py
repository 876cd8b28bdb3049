"""LSTM layers.

Lei et al.'s original RNP used RCNN encoders and many reimplementations
use LSTMs; the GRU is this library's default (matching the paper), but an
LSTM drop-in is provided for users porting configurations from other
rationalization codebases.  Same ``(x, mask) -> (B, L, H or 2H)`` contract
as :class:`repro.nn.rnn.GRU`.

:class:`LSTM` batches the input projection of *every* timestep into one
matmul and advances the recurrence with the backend's fused *sequence*
kernel — one graph node per direction with an explicit BPTT backward
(:func:`repro.backend.ops.fused_lstm_sequence`); ``fused=False`` falls
back to the composed per-step :meth:`LSTMCell.forward`, which doubles as
the gradcheck reference and the seed-configuration benchmark baseline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend.core import get_default_dtype
from repro.backend.ops import fused_lstm_sequence
from repro.nn import init
from repro.nn.module import Module, Parameter


class LSTMCell(Module):
    """Single LSTM step with input/forget/cell/output gates."""

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.weight_hh = Parameter(
            np.concatenate([init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)], axis=1)
        )
        bias = np.zeros(4 * hidden_size, dtype=get_default_dtype())
        # Standard trick: initialize the forget-gate bias to 1 so memory
        # persists early in training.
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        """Advance ``(h, c)`` one step for input ``x``."""
        h, c = state
        gates = x @ self.weight_ih + h @ self.weight_hh + self.bias
        hs = self.hidden_size
        i = gates[:, 0:hs].sigmoid()
        f = gates[:, hs:2 * hs].sigmoid()
        g = gates[:, 2 * hs:3 * hs].tanh()
        o = gates[:, 3 * hs:].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class LSTM(Module):
    """(Bi-directional) LSTM over padded batches, GRU-contract compatible."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        bidirectional: bool = True,
        fused: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.bidirectional = bidirectional
        self.fused = fused
        self.cell_fw = LSTMCell(input_size, hidden_size, rng=rng)
        self.cell_bw = LSTMCell(input_size, hidden_size, rng=rng) if bidirectional else None

    @property
    def output_size(self) -> int:
        return self.hidden_size * (2 if self.bidirectional else 1)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Encode (B, L, D) to (B, L, H or 2H); padding carries state."""
        outputs_fw = self._run_direction(self.cell_fw, x, mask, reverse=False)
        if not self.bidirectional:
            return outputs_fw
        outputs_bw = self._run_direction(self.cell_bw, x, mask, reverse=True)
        return Tensor.concatenate([outputs_fw, outputs_bw], axis=2)

    def _run_direction(self, cell: LSTMCell, x: Tensor, mask: Optional[np.ndarray], reverse: bool) -> Tensor:
        if self.fused:
            return self._run_direction_fused(cell, x, mask, reverse)
        return self._run_direction_composed(cell, x, mask, reverse)

    def _run_direction_fused(self, cell: LSTMCell, x: Tensor, mask: Optional[np.ndarray], reverse: bool) -> Tensor:
        batch, length, _ = x.shape
        hs = cell.hidden_size
        # One big matmul for the input projections of every timestep; the
        # recurrence itself (recurrent matmul + bias + gate math + padding
        # carry) is a single fused graph node per direction.
        gates_x = x.reshape(batch * length, self.input_size) @ cell.weight_ih
        gates_x = gates_x.reshape(batch, length, 4 * hs)
        state_dtype = x.data.dtype if x.data.dtype.kind == "f" else get_default_dtype()
        mask_f = np.asarray(mask, dtype=state_dtype) if mask is not None else None
        return fused_lstm_sequence(gates_x, cell.weight_hh, cell.bias, mask_f, reverse)

    def _run_direction_composed(self, cell: LSTMCell, x: Tensor, mask: Optional[np.ndarray], reverse: bool) -> Tensor:
        """Seed-configuration path: one composed cell call per timestep."""
        batch, length, _ = x.shape
        h = Tensor(np.zeros((batch, cell.hidden_size), dtype=get_default_dtype()))
        c = Tensor(np.zeros((batch, cell.hidden_size), dtype=get_default_dtype()))
        steps = range(length - 1, -1, -1) if reverse else range(length)
        outputs: list[Optional[Tensor]] = [None] * length
        for t in steps:
            h_new, c_new = cell(x[:, t, :], (h, c))
            if mask is not None:
                m = Tensor(np.asarray(mask)[:, t:t + 1], dtype=h.data.dtype)
                h = h_new * m + h * (1.0 - m)
                c = c_new * m + c * (1.0 - m)
            else:
                h, c = h_new, c_new
            outputs[t] = h
        return Tensor.stack(outputs, axis=1)
