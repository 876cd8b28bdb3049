"""repro — reproduction of "Enhancing the Rationale-Input Alignment for
Self-explaining Rationalization" (DAR, ICDE 2024).

The package is organized bottom-up:

- :mod:`repro.backend` — the array layer: one numpy kernel table of fused
  kernels (GRU/LSTM sequence, softmax + cross-entropy, Gumbel/binary-concrete
  sampling, attention, embedding gather), the dtype policy and the fusion
  switch.
- :mod:`repro.autograd`, :mod:`repro.nn`, :mod:`repro.optim` — a pure-numpy
  deep-learning substrate (reverse-mode AD, GRU/LSTM/transformer layers,
  Adam).
- :mod:`repro.data` — synthetic BeerAdvocate/HotelReview-style multi-aspect
  review corpora with token-level gold rationales, plus parsers for the
  real datasets' formats.
- :mod:`repro.core` — the rationalization framework: the RNP cooperative
  game and the paper's contribution, DAR; plus the graph-free
  :class:`~repro.core.inference.InferenceSession` evaluation fast path.
- :mod:`repro.baselines` — DMR, A2R, CAR, Inter_RAT, 3PLAYER, VIB,
  SPECTRA, CR.
- :mod:`repro.metrics` — rationale-overlap F1, accuracy probes,
  faithfulness metrics.
- :mod:`repro.analysis` — rationale-shift diagnostics and visualization.
- :mod:`repro.api` — the unified training/experiment surface: the method
  registry (models self-register with declarative metadata), the
  :class:`~repro.api.Estimator` facade (``fit`` → ``save`` → serve), and
  the declarative :class:`~repro.api.ExperimentSpec` catalog behind every
  paper artifact (``--spec my_scenario.json`` runs user scenarios).
- :mod:`repro.experiments` — the experiment harness: profiles, the CLI
  regenerating every paper table/figure from the spec catalog, sweeps,
  plus the backend perf benchmark (``python -m repro.experiments bench``).
- :mod:`repro.serialization` — model save/load (versioned checkpoints
  with dtype metadata).
- :mod:`repro.serve` — the model-serving subsystem: artifact registry,
  dynamic micro-batching scheduler, LRU rationale cache, and a
  stdlib-only HTTP JSON API (``python -m repro.experiments serve``;
  ``python -m repro.experiments serve-bench`` records
  ``BENCH_serve.json``, asserted ≥ 2× sequential by
  ``benchmarks/test_serve_smoke.py``).

Performance knobs
-----------------

All array math funnels through :mod:`repro.backend`; orthogonal
switches trade reference numerics for speed.  The defaults replay the
original float64 behaviour bit-for-bit on the default GRU-encoder path;
the (opt-in) LSTM encoder always runs its fused sequence kernel, which is
validated equal to the composed reference to float rounding
(``LSTM(fused=False)`` restores the literal seed loop):

- **dtype policy** — ``repro.backend.set_default_dtype("float32")`` (or the
  ``default_dtype(...)`` context manager) stores parameters, activations
  and gradients in float32, roughly halving memory traffic.  ``float64``
  remains the default so finite-difference gradient checks stay meaningful.
- **fused kernels** — ``repro.backend.set_fusion(True)`` dispatches
  softmax, cross-entropy and the mask samplers to single-node fused
  kernels; the LSTM always uses its fused sequence kernel (one graph node
  per direction, explicit BPTT) with ``LSTM(fused=False)`` as the composed
  reference.
- **length bucketing** — on by default for training and evaluation:
  ``batch_iterator`` groups similar-length examples per batch, cutting the
  padded timesteps recurrent encoders waste (``bucketing=False`` /
  ``--no-bucketing`` replays the seed batch composition); evaluation gets
  it automatically through :class:`repro.core.InferenceSession`.
- **tape backward + buffer pool** — ``Tensor.backward`` runs an iterative
  compiled tape whose gradient accumulators come from a per-thread
  :class:`repro.backend.BufferPool`, recycled across steps (the same pool
  backs the padded-batch buffers).

The switches are threaded through :class:`repro.core.trainer.TrainConfig`
(``dtype=``, ``fused=``, ``bucketing=``), through
:class:`repro.api.profiles.ExperimentProfile`, and through the CLI
(``python -m repro.experiments --artifact table2 --dtype float32
--fused``).  ``python -m repro.experiments bench`` (or ``make bench``)
times the fast path against the seed configuration and records
``BENCH_backend.json`` with a per-kernel timing breakdown; the fast path
is required to stay ≥ 3× by ``benchmarks/test_perf_smoke.py``, and
``make bench-compare`` gates ms_per_epoch regressions at 20%.  Every
fused kernel is a numpy function registered by name in the one kernel
table (:func:`repro.backend.get_backend`, filled by
:mod:`repro.backend.kernels`).
"""

__version__ = "1.1.0"
