"""The :class:`Estimator` facade: one object from training to serving.

The seed-era path to a served model was a four-step dance — ``make_model``
→ ``train_config_for`` → ``train_rationalizer`` → ``save_artifact`` —
with per-method special cases (DAR's selection protocol, the
``reports_accuracy`` probe) scattered across the steps.  ``Estimator``
collapses it::

    from repro.api import Estimator

    est = Estimator("DAR", profile=FAST_PROFILE, epochs=12)
    report = est.fit(dataset)         # FitReport: metrics + history
    row = report.as_row()             # the paper-style metric row
    est.predict(["the beer pours a hazy amber ..."])
    est.save("ckpt/beer_dar.npz")     # a repro.serve artifact

Keyword overrides are routed by *declared fields*, not hand-written key
tables: a key that is a :class:`repro.core.TrainConfig` field goes to the
train config, else an :class:`repro.api.profiles.ExperimentProfile`
field goes to the profile, and anything else goes to the model
constructor.  ``seed`` is special-cased to drive **both** the model-init
RNG and the training RNG — the seed-era ``run_sweep`` routed a swept
``seed`` only into the training config, so model init silently stayed at
``profile.seed``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.api.registry import MethodInfo, get_method
from repro.core.inference import InferenceSession
from repro.core.trainer import (
    TrainConfig,
    TrainResult,
    evaluate_full_text,
    evaluate_rationale_accuracy,
    evaluate_rationale_quality,
    train_rationalizer,
)
from repro.data.dataset import AspectDataset, ReviewExample
from repro.data.vocabulary import Vocabulary
from repro.api.profiles import FAST_PROFILE, ExperimentProfile

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(TrainConfig))
_PROFILE_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentProfile))


def route_overrides(overrides: dict) -> tuple[dict, dict, dict]:
    """Split keyword overrides into (config, profile, model) destinations.

    Routing is by declared dataclass fields — :class:`TrainConfig` wins
    ties (``lr``, ``epochs``, ``batch_size``, ... appear in both), profile
    fields (``hidden_size``, ``temperature``, ...) come second, and
    unknown keys pass through to the model constructor.  ``seed`` must be
    handled by the caller before routing (it drives both RNGs).
    """
    config: dict = {}
    profile: dict = {}
    model: dict = {}
    for key, value in overrides.items():
        if key in _CONFIG_FIELDS:
            config[key] = value
        elif key in _PROFILE_FIELDS:
            profile[key] = value
        else:
            model[key] = value
    return config, profile, model


def build_model(
    info: MethodInfo,
    dataset: AspectDataset,
    profile: ExperimentProfile,
    alpha: Optional[float] = None,
    encoder: str = "gru",
    seed: Optional[int] = None,
    **overrides,
):
    """Instantiate a registered method on a dataset with profile-scaled sizes.

    ``seed`` overrides ``profile.seed`` for the model-init RNG.  The
    method's registered ``default_overrides`` apply first; explicit
    ``overrides`` win.
    """
    rng = np.random.default_rng(profile.seed if seed is None else seed)
    kwargs = dict(info.default_overrides)
    kwargs.update(overrides)
    return info.cls(
        vocab_size=len(dataset.vocab),
        embedding_dim=profile.embedding_dim,
        hidden_size=profile.hidden_size,
        alpha=dataset.gold_sparsity() if alpha is None else alpha,
        temperature=profile.temperature,
        pretrained_embeddings=dataset.embeddings,
        encoder=encoder,
        rng=rng,
        **kwargs,
    )


def train_config(info: MethodInfo, profile: ExperimentProfile, **overrides) -> TrainConfig:
    """Build the method's :class:`TrainConfig` from its registered protocol.

    The checkpoint-selection rule comes from the registry (``dev_acc`` for
    DAR, ``test_f1`` for the reimplemented baselines — Appendix B) instead
    of an if-branch on the method name; ``min_epochs`` (a convenience for
    declarative specs) floors ``epochs`` instead of fixing it.
    """
    defaults = dict(
        epochs=profile.epochs,
        batch_size=profile.batch_size,
        lr=profile.lr,
        seed=profile.seed,
        selection=info.selection,
        pretrain_epochs=profile.pretrain_epochs,
        dtype=profile.dtype,
        fused=profile.fused,
        bucketing=profile.bucketing,
    )
    overrides = dict(overrides)
    min_epochs = overrides.pop("min_epochs", None)
    defaults.update(overrides)
    if min_epochs is not None:
        defaults["epochs"] = max(defaults["epochs"], min_epochs)
    return TrainConfig(**defaults)


@dataclass
class FitReport(TrainResult):
    """A :class:`~repro.core.trainer.TrainResult` plus run identity.

    Adds what the runner-era ``_result_row`` had to probe at call sites:
    which method ran, whether its Acc column is meaningful, and the seed
    that produced it.  ``as_row()`` therefore renders the complete
    paper-style row with no out-of-band information.
    """

    method: str = ""
    seed: int = 0
    reports_accuracy: bool = True

    @classmethod
    def from_result(
        cls, result: TrainResult, method: str, seed: int, reports_accuracy: bool
    ) -> "FitReport":
        """Wrap a raw training result with its run identity."""
        return cls(
            rationale=result.rationale,
            rationale_accuracy=result.rationale_accuracy,
            full_text=result.full_text,
            history=result.history,
            method=method,
            seed=seed,
            reports_accuracy=reports_accuracy,
        )

    def as_row(self) -> dict:
        """The paper-style metric row, led by the method name."""
        row = {"method": self.method}
        row.update(TrainResult.as_row(self, reports_accuracy=self.reports_accuracy))
        return row


class Estimator:
    """Train, evaluate, predict and export one rationalization method.

    Parameters
    ----------
    method:
        A registered method name (see :func:`repro.api.register_method`).
    profile:
        Base :class:`ExperimentProfile`; profile-field overrides are
        applied on top via :meth:`ExperimentProfile.scaled`.
    alpha:
        Target selection sparsity; ``None`` pins it to the dataset's gold
        sparsity at :meth:`fit` time (the paper's protocol).
    encoder:
        ``"gru"`` (default) or ``"transformer"`` (Table VI).
    seed:
        Overrides ``profile.seed`` for *both* model initialization and
        the training RNG (sweeping ``seed`` really resamples the model).
    **overrides:
        Routed automatically — :class:`TrainConfig` fields to the train
        config, profile fields to the profile, the rest to the model
        constructor (see :func:`route_overrides`).
    """

    def __init__(
        self,
        method: str,
        profile: ExperimentProfile = FAST_PROFILE,
        *,
        alpha: Optional[float] = None,
        encoder: str = "gru",
        seed: Optional[int] = None,
        **overrides,
    ):
        self.info = get_method(method)
        self.method = self.info.name
        config_overrides, profile_overrides, model_overrides = route_overrides(overrides)
        self.profile = profile.scaled(**profile_overrides) if profile_overrides else profile
        self.alpha = alpha
        self.encoder = encoder
        self.seed = self.profile.seed if seed is None else seed
        self.config_overrides = config_overrides
        self.model_overrides = model_overrides
        # Populated by fit() (scikit-learn-style trailing underscore).
        self.model_ = None
        self.vocab_: Optional[Vocabulary] = None
        self.report_: Optional[FitReport] = None

    # ------------------------------------------------------------------
    def make_config(self, **extra) -> TrainConfig:
        """The :class:`TrainConfig` a :meth:`fit` call would train with.

        An explicit ``seed`` in the overrides wins over the estimator's
        for the training RNG; the estimator seed still drives model init.
        """
        return train_config(
            self.info, self.profile,
            **{"seed": self.seed, **self.config_overrides, **extra},
        )

    def fit(self, dataset: AspectDataset, callback=None) -> FitReport:
        """Train on ``dataset``; returns the :class:`FitReport`.

        The trained model, the dataset vocabulary and the report stay on
        the estimator (``model_``, ``vocab_``, ``report_``) for
        :meth:`predict` / :meth:`evaluate` / :meth:`save`.
        """
        model = build_model(
            self.info,
            dataset,
            self.profile,
            alpha=self.alpha,
            encoder=self.encoder,
            seed=self.seed,
            **self.model_overrides,
        )
        result = train_rationalizer(model, dataset, self.make_config(), callback=callback)
        self.model_ = model
        self.vocab_ = dataset.vocab
        self.report_ = FitReport.from_result(
            result, self.method, self.seed, self.info.reports_accuracy
        )
        return self.report_

    # ------------------------------------------------------------------
    def _require_fitted(self):
        if self.model_ is None:
            raise RuntimeError(f"Estimator({self.method!r}) is not fitted; call fit(dataset) first")
        return self.model_

    def evaluate(
        self,
        data: Union[AspectDataset, Sequence[ReviewExample]],
        batch_size: int = 200,
    ) -> dict:
        """Paper-style metric row on held-out examples.

        ``data`` may be an :class:`AspectDataset` (its test split is used)
        or any sequence of :class:`ReviewExample`.
        """
        model = self._require_fitted()
        examples = data.test if isinstance(data, AspectDataset) else list(data)
        session = InferenceSession(model, batch_size)
        try:
            rationale = evaluate_rationale_quality(model, examples, session=session)
            rationale_acc = evaluate_rationale_accuracy(model, examples, session=session)
            full_text = evaluate_full_text(model, examples, session=session)
        finally:
            session.release_buffers()
        report = FitReport(
            rationale=rationale,
            rationale_accuracy=rationale_acc,
            full_text=full_text,
            method=self.method,
            seed=self.seed,
            reports_accuracy=self.info.reports_accuracy,
        )
        return report.as_row()

    def predict(
        self, texts: Sequence[Union[str, Sequence[str]]], batch_size: int = 200
    ) -> list[dict]:
        """Rationalize raw texts with the fitted model.

        Each text is a whitespace-joined string or a token sequence,
        encoded with the vocabulary captured at :meth:`fit` time.  Returns
        one dict per text — predicted ``label``, binary ``rationale``
        mask, and the ``selected`` tokens — the same shape
        ``repro.serve`` responds with.
        """
        model = self._require_fitted()
        assert self.vocab_ is not None
        examples = []
        for text in texts:
            tokens = text.split() if isinstance(text, str) else list(text)
            examples.append(
                ReviewExample(
                    tokens=tokens,
                    token_ids=self.vocab_.encode(tokens),
                    label=0,
                    rationale=np.zeros(len(tokens), dtype=np.int64),
                    aspect="",
                )
            )
        # One generator pass per batch: select once, classify that mask
        # directly (select + predict_from_rationale would run the selection
        # forward twice).  Unbucketed, so batches come back in input order.
        session = InferenceSession(model, batch_size, bucketing=False)

        def run(batch):
            mask = model.select(batch)
            labels = model.predictor.predict(batch.token_ids, mask, batch.mask)
            return [
                (int(labels[i]), mask[i, : len(batch.examples[i])].copy())
                for i in range(len(batch.examples))
            ]

        try:
            outputs = [pair for batch_out in session.map_batches(run, examples) for pair in batch_out]
        finally:
            session.release_buffers()
        responses = []
        for example, (label, chosen) in zip(examples, outputs):
            responses.append(
                {
                    "label": label,
                    "rationale": [int(m > 0.5) for m in chosen],
                    "selected": [t for t, m in zip(example.tokens, chosen) if m > 0.5],
                }
            )
        return responses

    def save(self, path) -> dict:
        """Write the fitted model as a ``repro.serve`` artifact.

        The checkpoint embeds the rebuildable config *and* the fit-time
        vocabulary, so ``repro.serve`` (or :func:`repro.serve.ModelRegistry
        .register_file`) serves it with no out-of-band information.
        Returns the embedded config dict.
        """
        model = self._require_fitted()
        from pathlib import Path

        from repro.serve.registry import save_artifact

        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return save_artifact(model, path, vocab=self.vocab_)
