"""The experiment-spec catalog: every paper artifact as an
:class:`~repro.api.spec.ExperimentSpec`.

One factory function per artifact (parameterizable: run a customized
artifact with ``execute_spec(beer_comparison_spec(methods=...), profile)``),
plus :func:`catalog` — the name → spec mapping behind
``python -m repro.experiments --artifact <name>`` / ``--list``.  The CLI's artifact table is *generated* from this catalog,
so help text and registry cannot drift.

Default method lists, aspect sets, hyper-parameter grids and skew
settings are exactly the paper's (scaled) protocol — see each factory.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api.spec import ExperimentSpec, get_dataset_family

#: Scaled version of the paper's Table X hyper-parameter sets (Fig. 3).
FIG3_PARAM_SETS = (
    {"lr": 1e-3, "batch_size": 64, "hidden_size": 16},
    {"lr": 1e-3, "batch_size": 64, "hidden_size": 32},
    {"lr": 2e-3, "batch_size": 64, "hidden_size": 32},
    {"lr": 1e-3, "batch_size": 128, "hidden_size": 32},
    {"lr": 2e-3, "batch_size": 128, "hidden_size": 32},
)

_TABLE2_METHODS = ("RNP", "DMR", "Inter_RAT", "A2R", "DAR")
_TABLE3_METHODS = ("RNP", "CAR", "DMR", "Inter_RAT", "A2R", "DAR")


def _aspects(family: str, aspects: Optional[Sequence[str]] = None) -> tuple[tuple[str, str], ...]:
    resolved = aspects if aspects is not None else get_dataset_family(family).aspects
    return tuple((family, aspect) for aspect in resolved)


def _fig3_variant(params: dict, label: Optional[dict] = None) -> dict:
    """One Fig. 3 hyper-parameter set as a spec variant.

    The paper's Fig. 3 protocol evaluates *converged* models
    (``selection="final"``) with a sparse-start generator — see
    ``docs/architecture.md`` for why the collapse only couples then.
    """
    return {
        **({"row": label} if label else {}),
        "profile": {"hidden_size": params["hidden_size"]},
        "config": {
            "lr": params["lr"], "batch_size": params["batch_size"],
            "selection": "final", "min_epochs": 12,
        },
        "generator": {"select_bias_init": -2.0},
    }


# ----------------------------------------------------------------------
# Main comparisons (Tables II, III, V, VI)
# ----------------------------------------------------------------------
def beer_comparison_spec(
    methods: Sequence[str] = _TABLE2_METHODS, aspects: Optional[Sequence[str]] = None
) -> ExperimentSpec:
    """Table II: methods x beer aspects at gold sparsity."""
    return ExperimentSpec(
        name="table2",
        description="Table II — BeerAdvocate comparison",
        datasets=_aspects("beer", aspects),
        methods=tuple(methods),
        grouped=True,
        table_title="Table II",
    )


def hotel_comparison_spec(
    methods: Sequence[str] = _TABLE3_METHODS, aspects: Optional[Sequence[str]] = None
) -> ExperimentSpec:
    """Table III: methods x hotel aspects at gold sparsity."""
    return ExperimentSpec(
        name="table3",
        description="Table III — HotelReview comparison",
        datasets=_aspects("hotel", aspects),
        methods=tuple(methods),
        grouped=True,
        table_title="Table III",
    )


def low_sparsity_spec(
    methods: Sequence[str] = ("RNP", "CAR", "DMR", "DAR"),
    aspects: Optional[Sequence[str]] = None,
    sparsity: float = 0.105,
) -> ExperimentSpec:
    """Table V: beer aspects with the selection budget forced to ~10-12%."""
    return ExperimentSpec(
        name="table5",
        description="Table V — low-sparsity comparison",
        datasets=_aspects("beer", aspects),
        methods=tuple(methods),
        grouped=True,
        alpha=sparsity,
        table_title="Table V",
    )


def bert_comparison_spec(
    methods: Sequence[str] = ("VIB", "SPECTRA", "CR", "RNP", "DAR"),
    aspect: str = "Appearance",
) -> ExperimentSpec:
    """Table VI: Beer-Appearance with over-parameterized transformer encoders.

    The transformer saturates its selection head much faster than the GRU,
    so these runs use a sharper temperature and a stronger sparsity weight
    (the paper likewise retunes for BERT encoders).
    """
    return ExperimentSpec(
        name="table6",
        description="Table VI — transformer (BERT stand-in) encoders",
        datasets=(("beer", aspect),),
        methods=tuple(methods),
        encoder="transformer",
        profile_overrides={"temperature": 0.5, "lr": 1e-3},
        model_overrides={"lambda_sparsity": 8.0},
        table_title="Table VI",
    )


# ----------------------------------------------------------------------
# Synthetic rationale-shift experiments (Tables VII, VIII)
# ----------------------------------------------------------------------
def skewed_predictor_spec(
    methods: Sequence[str] = ("RNP", "A2R", "DAR"),
    aspects: Sequence[str] = ("Aroma", "Palate"),
    skew_epochs: Sequence[int] = (2, 4, 6),
) -> ExperimentSpec:
    """Table VII: predictor pre-biased toward first sentences (Appearance).

    ``skew_epochs`` plays the role of the paper's skew10/15/20 — more
    pretraining on the first sentence means a more deviated predictor.
    The sparse-bias generator start makes the predictor depend on actual
    selections (the regime the skew experiments study); it is applied
    identically to every method, so comparisons stay fair.
    """
    return ExperimentSpec(
        name="table7",
        description="Table VII — skewed predictor",
        datasets=_aspects("beer", aspects),
        methods=tuple(methods),
        variants=tuple(
            {
                "row": {"setting": f"skew{k}"},
                "generator": {"select_bias_init": -1.0},
                "pretrain": {"kind": "predictor_first_sentence", "epochs": k, "lr": 1e-3},
            }
            for k in skew_epochs
        ),
        aspect_column="aspect",
        table_title="Table VII",
        key_column="aspect",
    )


def skewed_generator_spec(
    methods: Sequence[str] = ("RNP", "DAR"),
    aspect: str = "Palate",
    thresholds: Sequence[float] = (60.0, 65.0, 70.0, 75.0),
) -> ExperimentSpec:
    """Table VIII: generator pre-biased to leak the label via the first token.

    The ``generator_first_token`` pretrain hook reports the achieved
    classifier accuracy as the ``Pre_acc`` column (the paper's notation).
    """
    return ExperimentSpec(
        name="table8",
        description="Table VIII — skewed generator",
        datasets=(("beer", aspect),),
        methods=tuple(methods),
        variants=tuple(
            {
                "row": {"setting": f"skew{threshold:.1f}"},
                "pretrain": {"kind": "generator_first_token", "threshold": threshold, "lr": 1e-3},
            }
            for threshold in thresholds
        ),
        table_title="Table VIII",
        key_column="setting",
    )


# ----------------------------------------------------------------------
# Model complexity / dataset statistics (Tables IV, IX)
# ----------------------------------------------------------------------
def complexity_spec(
    methods: Sequence[str] = ("RNP", "CAR", "DMR", "A2R", "DAR"),
    aspect: str = "Appearance",
) -> ExperimentSpec:
    """Table IV: module and parameter counts per architecture."""
    return ExperimentSpec(
        name="table4",
        description="Table IV — model complexity",
        kind="complexity",
        datasets=(("beer", aspect),),
        methods=tuple(methods),
        table_title="Table IV",
    )


def dataset_statistics_spec() -> ExperimentSpec:
    """Table IX: per-aspect split sizes and annotation sparsity (scaled)."""
    return ExperimentSpec(
        name="table9",
        description="Table IX — dataset statistics",
        kind="statistics",
        datasets=_aspects("beer") + _aspects("hotel"),
        table_title="Table IX",
        key_column="family",
    )


# ----------------------------------------------------------------------
# The rationale-shift evidence on RNP (Fig. 3, Table I)
# ----------------------------------------------------------------------
def fig3_relationship_spec(
    aspect: str = "Service", param_sets: Sequence[dict] = FIG3_PARAM_SETS
) -> ExperimentSpec:
    """Fig. 3a (and App. Fig. 7/8): full-text accuracy vs rationale F1
    across hyper-parameter sets of vanilla RNP."""
    return ExperimentSpec(
        name="fig3a",
        description="Fig. 3a — full-text acc vs rationale F1",
        datasets=(("hotel", aspect),),
        methods=("RNP",),
        variants=tuple(
            _fig3_variant(params, {"param_set": f"Param{i}"})
            for i, params in enumerate(param_sets, start=1)
        ),
        row_fields=("full_text_acc", "rationale_f1"),
        table_title="Fig. 3a",
        key_column="param_set",
    )


def fig3_accuracy_gap_spec(aspects: Optional[Sequence[str]] = None) -> ExperimentSpec:
    """Fig. 3b: RNP accuracy with rationale input vs full-text input."""
    return ExperimentSpec(
        name="fig3b",
        description="Fig. 3b — accuracy gap",
        datasets=_aspects("hotel", aspects),
        methods=("RNP",),
        variants=(_fig3_variant(FIG3_PARAM_SETS[0]),),
        row_fields=("rationale_acc", "full_text_acc"),
        aspect_column="aspect",
        table_title="Fig. 3b",
        key_column="aspect",
    )


def table1_fulltext_spec(aspects: Optional[Sequence[str]] = None) -> ExperimentSpec:
    """Table I: per-class P/R/F1 of RNP's predictor on the full text."""
    return ExperimentSpec(
        name="table1",
        description="Table I — RNP full-text P/R/F1",
        datasets=_aspects("hotel", aspects),
        methods=("RNP",),
        variants=(_fig3_variant(FIG3_PARAM_SETS[0]),),
        row_fields=("S", "full_text_scores"),
        aspect_column="aspect",
        table_title="Table I",
        key_column="aspect",
    )


def fig6_dar_fulltext_spec() -> ExperimentSpec:
    """Fig. 6: DAR's predictor accuracy on rationale vs full text, 6 aspects."""
    return ExperimentSpec(
        name="fig6",
        description="Fig. 6 — DAR full-text generalization",
        datasets=_aspects("beer") + _aspects("hotel"),
        methods=("DAR",),
        row_fields=("rationale_acc", "full_text_acc"),
        aspect_column="aspect",
        aspect_label="{family}-{aspect}",
        table_title="Fig. 6",
        key_column="aspect",
    )


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §6)
# ----------------------------------------------------------------------
def ablation_frozen_spec(aspect: str = "Aroma") -> ExperimentSpec:
    """Frozen pretrained discriminator (DAR) vs co-trained-from-scratch.

    The co-trained variant is the DMR-style weakness the paper argues
    against: the calibrating module can itself drift with the deviation
    (``mark_pretrained`` skips Eq. (4), so it trains from scratch).
    """
    return ExperimentSpec(
        name="ablation-frozen",
        description="Ablation — frozen vs co-trained discriminator",
        datasets=(("beer", aspect),),
        methods=("DAR",),
        variants=(
            {"row": {"variant": "frozen+pretrained (DAR)"},
             "model": {"freeze_discriminator": True}},
            {"row": {"variant": "co-trained from scratch"},
             "model": {"freeze_discriminator": False}, "mark_pretrained": True},
        ),
        table_title="Ablation",
        key_column="variant",
    )


def ablation_sampler_spec(
    aspect: str = "Aroma", samplers: Sequence[str] = ("gumbel", "hardkuma", "topk")
) -> ExperimentSpec:
    """Swap the generator's mask sampler under DAR.

    The paper calls the sampling line of work "orthogonal to our
    research"; this ablation verifies the claim — DAR's discriminative
    alignment works regardless of how the mask is sampled.
    """
    return ExperimentSpec(
        name="ablation-sampler",
        description="Ablation — mask sampler (gumbel/hardkuma/topk)",
        datasets=(("beer", aspect),),
        methods=("DAR",),
        variants=tuple(
            {"row": {"sampler": sampler}, "generator": {"sampler": sampler}}
            for sampler in samplers
        ),
        table_title="Ablation",
        key_column="sampler",
    )


def ablation_weight_spec(
    aspect: str = "Aroma", weights: Sequence[float] = (0.0, 0.5, 1.0, 2.0)
) -> ExperimentSpec:
    """Sweep the Eq. (5) loss weight; weight 0 reduces DAR to RNP."""
    return ExperimentSpec(
        name="ablation-weight",
        description="Ablation — discriminator loss weight",
        datasets=(("beer", aspect),),
        methods=("DAR",),
        variants=tuple(
            {"row": {"weight": weight}, "model": {"discriminator_weight": weight}}
            for weight in weights
        ),
        table_title="Ablation",
        key_column="weight",
    )


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
_FACTORIES = (
    table1_fulltext_spec,
    beer_comparison_spec,
    hotel_comparison_spec,
    complexity_spec,
    low_sparsity_spec,
    bert_comparison_spec,
    skewed_predictor_spec,
    skewed_generator_spec,
    dataset_statistics_spec,
    fig3_relationship_spec,
    fig3_accuracy_gap_spec,
    fig6_dar_fulltext_spec,
    ablation_frozen_spec,
    ablation_sampler_spec,
    ablation_weight_spec,
)


def catalog() -> dict[str, ExperimentSpec]:
    """Name → default spec for every paper artifact.

    Built fresh on each call so late dataset/method registrations are
    honored; callers wanting a customized artifact use the factory
    functions directly.
    """
    specs = {}
    for factory in _FACTORIES:
        spec = factory()
        specs[spec.name] = spec
    return specs
