"""Ablations on DAR's design choices (DESIGN.md §6).

1. Frozen-pretrained discriminator vs a co-trained-from-scratch one — the
   paper's argument against DMR-style co-training is that the calibrating
   module itself drifts with the deviation.
2. The Eq. (5) loss weight — weight 0 reduces DAR to vanilla RNP, so the
   sweep directly measures the contribution of discriminative alignment.
"""

from benchmarks.conftest import run_once
from repro.api.experiments import (
    ablation_frozen_spec,
    ablation_sampler_spec,
    ablation_weight_spec,
)
from repro.api.spec import execute_spec
from repro.utils import render_table


def test_ablation_frozen_discriminator(benchmark, profile):
    rows = run_once(benchmark, execute_spec, ablation_frozen_spec(), profile)

    print()
    print(render_table("Ablation — frozen vs co-trained discriminator", rows, key_column="variant"))

    by_variant = {r["variant"]: r for r in rows}
    assert len(by_variant) == 2
    frozen = by_variant["frozen+pretrained (DAR)"]
    assert 0 <= frozen["F1"] <= 100


def test_ablation_sampler(benchmark, profile):
    rows = run_once(benchmark, execute_spec, ablation_sampler_spec(), profile)

    print()
    print(render_table("Ablation — mask sampler under DAR", rows, key_column="sampler"))

    assert {r["sampler"] for r in rows} == {"gumbel", "hardkuma", "topk"}
    # Orthogonality: every sampler trains to a usable rationale (well above
    # the random-selection baseline of F1 ~= sparsity).
    for row in rows:
        assert row["F1"] > 20.0


def test_ablation_discriminator_weight(benchmark, profile):
    rows = run_once(benchmark, execute_spec, ablation_weight_spec(), profile)

    print()
    print(render_table("Ablation — Eq. (5) discriminator weight", rows, key_column="weight"))

    by_weight = {r["weight"]: r for r in rows}
    # Alignment on (weight >= 1) must not be worse than alignment off.
    best_aligned = max(by_weight[w]["F1"] for w in (0.5, 1.0, 2.0))
    assert best_aligned >= by_weight[0.0]["F1"]
