"""Experiment scaling profiles.

The paper trains 200-d bi-GRUs on tens of thousands of reviews on a GPU;
this reproduction runs on a pure-numpy substrate, so experiments are
parameterized by a profile.  ``FAST_PROFILE`` (the benchmark default)
preserves the qualitative shape of every result at laptop scale;
``FULL_PROFILE`` is closer to the paper's scale for users with time.

Lives in :mod:`repro.api` because the profile is consumed below the
experiment harness — by :class:`repro.api.Estimator` and the spec engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale knobs shared by every experiment."""

    n_train: int = 400
    n_dev: int = 100
    n_test: int = 100
    embedding_dim: int = 64
    hidden_size: int = 24
    epochs: int = 10
    batch_size: int = 100
    lr: float = 2e-3
    temperature: float = 0.8
    pretrain_epochs: int = 10
    seed: int = 0
    # Backend performance knobs (see repro.backend): dtype/fused defaults
    # replay the seed numerics; bucketing defaults on (it changes batch
    # composition, not math — the paper-shape benchmarks pin it off to
    # replay the paper's seeded protocol, see benchmarks/conftest.py).
    # "float32" + fused (+ bucketing) is the full fast path.
    dtype: str = "float64"
    fused: bool = False
    bucketing: bool = True

    def scaled(self, **overrides) -> "ExperimentProfile":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


#: Benchmark-default profile: every experiment finishes in seconds-to-minutes.
FAST_PROFILE = ExperimentProfile()

#: Larger profile for users reproducing closer to paper scale.
FULL_PROFILE = ExperimentProfile(
    n_train=2000,
    n_dev=400,
    n_test=400,
    embedding_dim=100,
    hidden_size=64,
    epochs=30,
    batch_size=128,
    pretrain_epochs=15,
)
