"""The experiment harness: the CLI, sweeps, multi-seed runs and benches.

Every paper table/figure lives in the declarative spec catalog
(:mod:`repro.api.experiments`) and runs through
:func:`repro.api.execute_spec`; single methods train through
:class:`repro.api.Estimator`.  Everything is parameterized by an
:class:`repro.api.profiles.ExperimentProfile`, so benchmarks run a
scaled-down (but shape-preserving) version while users can scale up.
"""
