"""Monte-Carlo ensemble statistics over EM runs.

Wraps :func:`~repro.stochastic.em.euler_maruyama` with the statistics the
performance-prediction experiments need: pointwise mean/std bands with
standard errors, empirical confidence intervals, and convergence studies
(weak and strong error versus step size, after Higham's SIAM Review
exposition the paper cites as [13]).

Circuit-noise ensembles additionally route through the lockstep SWEC
engine (:func:`run_circuit_ensemble` /
:func:`run_circuit_ensemble_parallel`): K noise realizations of one
circuit march on a shared fixed grid with one batched solve per time
point — the implicit Euler-Maruyama form of the paper's eq. (13), with
per-path ``SeedSequence`` streams so results are bit-identical for any
worker count or chunk split.  Switching on any variance-reduction knob
(``control_variate=``, ``antithetic=``, ``target_ci=`` /
``target_rel_ci=``) routes the same entry points through
:mod:`repro.stochastic.vr`, which returns the richer
:class:`~repro.stochastic.vr.VarianceReducedStatistics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.stochastic.em import euler_maruyama
from repro.stochastic.sde import LinearSDE


@dataclass
class EnsembleStatistics:
    """Pointwise ensemble statistics of one state component."""

    times: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    standard_error: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_paths: int
    confidence: float

    def band_width(self) -> np.ndarray:
        """Upper minus lower confidence envelope."""
        return self.upper - self.lower


def ensemble_statistics(
    times: np.ndarray, values: np.ndarray, confidence: float = 0.95
) -> EnsembleStatistics:
    """Summarize a ``(n_paths, len(times))`` component sample.

    The confidence band is empirical (quantiles of the path ensemble),
    not Gaussian-assumed — NDR-linearized circuits can be skewed.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence!r}")
    values = np.asarray(values, dtype=float)
    n_paths = values.shape[0]
    if n_paths < 2:
        raise AnalysisError(f"ensemble statistics need >= 2 paths, got {n_paths}")
    tail = 0.5 * (1.0 - confidence)
    std = values.std(axis=0, ddof=1)
    return EnsembleStatistics(
        times=np.asarray(times, dtype=float),
        mean=values.mean(axis=0),
        std=std,
        standard_error=std / np.sqrt(n_paths),
        lower=np.quantile(values, tail, axis=0),
        upper=np.quantile(values, 1.0 - tail, axis=0),
        n_paths=n_paths,
        confidence=confidence,
    )


def _vr_active(control_variate, antithetic, target_ci, target_rel_ci) -> bool:
    """Does any variance-reduction knob route a run through vr.py?"""
    return (
        control_variate
        or antithetic
        or target_ci is not None
        or target_rel_ci is not None
    )


def run_ensemble(
    sde: LinearSDE,
    x0,
    t_final: float,
    steps: int,
    n_paths: int,
    rng=None,
    component: int = 0,
    confidence: float = 0.95,
    antithetic: bool = False,
) -> EnsembleStatistics:
    """Integrate an ensemble and summarize one component."""
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence!r}")
    result = euler_maruyama(
        sde, x0, t_final, steps, n_paths=n_paths, rng=rng, antithetic=antithetic
    )
    return ensemble_statistics(result.times, result.component(component), confidence)


def run_ensembles(jobs, runner=None) -> list[EnsembleStatistics]:
    """Run many :class:`~repro.runtime.EnsembleJob` specs through a
    :class:`~repro.runtime.BatchRunner` (one worker process per job).

    Seeding is handled by the runner's deterministic ``SeedSequence``
    spawn, so the statistics reproduce bit-for-bit at any worker count.
    Raises if any job failed; returns the statistics in job order.
    """
    from repro.runtime import BatchRunner

    runner = runner or BatchRunner()
    report = runner.run(list(jobs))
    report.raise_failures()
    return report.values()


def run_ensemble_parallel(
    sde_builder,
    t_final: float,
    steps: int,
    n_paths: int,
    chunks: int = 4,
    x0=None,
    component: int = 0,
    confidence: float = 0.95,
    antithetic: bool = False,
    runner=None,
    params: dict | None = None,
) -> EnsembleStatistics:
    """One large ensemble, integrated as *chunks* parallel sub-ensembles.

    *sde_builder* is a picklable :class:`LinearSDE`, a builder callable,
    or an :data:`~repro.runtime.SDE_BUILDERS` name (resolved with
    *params* inside each worker).  Per-path seed streams are spawned
    from the runner's base seed *before* chunking — path *i* always
    draws from child *i* of ``SeedSequence(runner.seed)`` no matter
    which chunk executes it — so for a fixed runner seed the statistics
    are bit-identical at any ``chunks`` value and any worker count.
    With the default runner, each call draws fresh entropy (independent
    replications) that ``BatchReport.seed`` records for replay.

    ``antithetic`` assigns each *pair* of consecutive paths one seed
    stream and mirrors its increments; ``n_paths`` must then split into
    even chunks, i.e. be divisible by ``2 * chunks``.
    """
    from repro.runtime import BatchRunner, EnsembleJob

    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence!r}")
    if chunks < 1:
        raise AnalysisError(f"chunks must be >= 1, got {chunks!r}")
    if n_paths < chunks:
        raise AnalysisError(f"n_paths ({n_paths}) must be >= chunks ({chunks})")
    if antithetic and n_paths % (2 * chunks) != 0:
        raise AnalysisError(
            f"antithetic parallel ensembles need n_paths divisible by "
            f"2 * chunks ({2 * chunks}), got {n_paths}"
        )
    runner = runner or BatchRunner()
    stride = 2 if antithetic else 1
    path_seeds = np.random.SeedSequence(runner.seed).spawn(n_paths // stride)
    base, extra = divmod(n_paths, chunks)
    sizes = [base + (1 if k < extra else 0) for k in range(chunks)]
    direct = isinstance(sde_builder, LinearSDE)
    jobs, offset = [], 0
    for k, size in enumerate(sizes):
        jobs.append(
            EnsembleJob(
                t_final=t_final,
                steps=steps,
                n_paths=size,
                sde=sde_builder if direct else None,
                builder=None if direct else sde_builder,
                params=dict(params or {}),
                x0=x0,
                component=component,
                antithetic=antithetic,
                path_seeds=path_seeds[offset // stride : (offset + size) // stride],
                return_paths=True,
                label=f"chunk-{k}",
            )
        )
        offset += size
    report = runner.run(jobs)
    report.raise_failures()
    results = report.values()
    values = np.concatenate([r.component(component) for r in results], axis=0)
    return ensemble_statistics(results[0].times, values, confidence)


def run_circuit_ensemble(
    circuit,
    noise,
    t_stop: float,
    steps: int,
    n_paths: int,
    node: str | None = None,
    seed=None,
    options=None,
    confidence: float = 0.95,
    return_result: bool = False,
    backend: str | None = None,
    control_variate: bool = False,
    antithetic: bool = False,
    target_ci: float | None = None,
    target_rel_ci: float | None = None,
    max_trials: int | None = None,
    batch_size: int | None = None,
):
    """K circuit-noise realizations through the lockstep SWEC engine.

    *circuit* is a :class:`~repro.circuit.Circuit` (voltage sources
    and all — unlike :class:`~repro.stochastic.sde.CircuitSDE`, the
    implicit march needs no Norton rewrite) and *noise* the
    ``(node, amplitude)`` white-noise current injections of eq. (13).
    All ``n_paths`` instances march a shared uniform grid of *steps*
    backward-Euler-Maruyama steps with one batched solve per point;
    path *i* always draws from child *i* of ``SeedSequence(seed)``, so
    the statistics are bit-reproducible and split-invariant.

    Returns :class:`EnsembleStatistics` of the voltage at *node*
    (default: the first noise injection node), or the raw
    :class:`~repro.swec.ensemble.EnsembleTransientResult` with
    ``return_paths``-style ``return_result=True``.  *backend* names
    the :mod:`repro.core.backends` solver for the march (``sparse``
    turns grid-mesh noise ensembles tractable); it overrides any
    ``options.backend`` setting.

    Any variance-reduction knob (``control_variate=``, ``antithetic=``,
    ``target_ci=``/``target_rel_ci=``) routes the run through
    :func:`repro.stochastic.vr.run_circuit_ensemble_vr`: paths then run
    in ``batch_size`` batches up to ``max_trials`` (default:
    ``n_paths``) and the result is a
    :class:`~repro.stochastic.vr.VarianceReducedStatistics` with a
    Gaussian confidence band.
    """
    from repro.runtime.jobs import apply_backend
    from repro.swec.ensemble import SwecEnsembleTransient

    if steps < 1:
        raise AnalysisError(f"steps must be >= 1, got {steps!r}")
    if n_paths < 1:
        raise AnalysisError(f"n_paths must be >= 1, got {n_paths!r}")
    if _vr_active(control_variate, antithetic, target_ci, target_rel_ci):
        if return_result:
            raise AnalysisError(
                "return_result= is incompatible with variance reduction "
                "(the raw path stack is consumed batch by batch)"
            )
        from repro.stochastic.vr import run_circuit_ensemble_vr

        return run_circuit_ensemble_vr(
            circuit,
            noise,
            t_stop,
            steps,
            node=node,
            seed=seed,
            options=options,
            confidence=confidence,
            backend=backend,
            control_variate=control_variate,
            antithetic=antithetic,
            target_ci=target_ci,
            target_rel_ci=target_rel_ci,
            max_trials=max_trials or n_paths,
            batch_size=batch_size,
        )
    noise = list(noise.items()) if hasattr(noise, "items") else list(noise)
    if not noise:
        raise AnalysisError("need at least one (node, amplitude) injection")
    options = apply_backend(options, backend)
    engine = SwecEnsembleTransient(circuit, options, n_instances=n_paths, noise=noise)
    times = np.linspace(0.0, float(t_stop), int(steps) + 1)
    seeds = np.random.SeedSequence(seed).spawn(n_paths)
    result = engine.run_grid(times, seeds=seeds)
    if return_result:
        return result
    node = noise[0][0] if node is None else node
    return ensemble_statistics(result.times, result.voltage(node), confidence)


def run_circuit_ensemble_parallel(
    builder,
    noise,
    t_stop: float,
    steps: int,
    n_paths: int,
    chunks: int = 4,
    node: str | None = None,
    seed: int = 0,
    options=None,
    confidence: float = 0.95,
    params: dict | None = None,
    runner=None,
    backend: str | None = None,
    control_variate: bool = False,
    antithetic: bool = False,
    target_ci: float | None = None,
    target_rel_ci: float | None = None,
    max_trials: int | None = None,
    batch_size: int | None = None,
) -> EnsembleStatistics:
    """One large circuit-noise ensemble as *chunks* lockstep batches.

    *builder* is a :mod:`repro.circuits_lib` circuit builder (or its
    name) invoked with *params* inside each worker.  The per-path RNG
    streams are spawned *before* chunking — path *i* uses child *i* of
    ``SeedSequence(seed)`` no matter which chunk executes it — and
    every path marches the same fixed grid independently, so the
    result is bit-identical for any ``chunks`` value and any worker
    count.

    The variance-reduction knobs mirror :func:`run_circuit_ensemble`;
    when any is switched on, batches of ``batch_size`` paths are split
    over ``chunks`` :class:`~repro.runtime.EnsembleTransientJob`
    sub-jobs per round and the stopping decisions are made on the
    concatenated (canonically ordered) paths, so serial and chunked
    adaptive runs stop at the same trial count with identical
    statistics.
    """
    from repro.runtime import BatchRunner
    from repro.runtime.jobs import (
        EnsembleTransientJob,
        as_circuit,
        materialize_circuit,
    )

    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence!r}")
    if chunks < 1:
        raise AnalysisError(f"chunks must be >= 1, got {chunks!r}")
    if n_paths < chunks:
        raise AnalysisError(f"n_paths ({n_paths}) must be >= chunks ({chunks})")
    noise = list(noise.items()) if hasattr(noise, "items") else list(noise)
    if not noise:
        raise AnalysisError("need at least one (node, amplitude) injection")
    if node is None:
        node = noise[0][0]
    if _vr_active(control_variate, antithetic, target_ci, target_rel_ci):
        from repro.stochastic.vr import run_circuit_ensemble_vr

        built = materialize_circuit(None, builder, None, dict(params or {}))
        circuit = as_circuit(built)
        return run_circuit_ensemble_vr(
            circuit,
            noise,
            t_stop,
            steps,
            node=node,
            seed=seed,
            options=options,
            confidence=confidence,
            backend=backend,
            control_variate=control_variate,
            antithetic=antithetic,
            target_ci=target_ci,
            target_rel_ci=target_rel_ci,
            max_trials=max_trials or n_paths,
            batch_size=batch_size,
            chunks=chunks,
            runner=runner,
        )
    path_seeds = np.random.SeedSequence(seed).spawn(n_paths)
    base, extra = divmod(n_paths, chunks)
    sizes = [base + (1 if k < extra else 0) for k in range(chunks)]
    jobs, offset = [], 0
    for k, size in enumerate(sizes):
        jobs.append(
            EnsembleTransientJob(
                t_stop=t_stop,
                builder=builder,
                params=dict(params or {}),
                n_instances=size,
                steps=steps,
                noise=noise,
                options=options,
                path_seeds=path_seeds[offset : offset + size],
                return_result=True,
                backend=backend,
                label=f"chunk-{k}",
            )
        )
        offset += size
    runner = runner or BatchRunner()
    report = runner.run(jobs)
    report.raise_failures()
    results = report.values()
    values = np.concatenate([r.voltage(node) for r in results], axis=0)
    return ensemble_statistics(results[0].times, values, confidence)


def weak_error_study(
    sde: LinearSDE,
    x0,
    t_final: float,
    exact_mean_final: float,
    step_counts,
    n_paths: int = 20000,
    rng=None,
    component: int = 0,
) -> dict[int, float]:
    """Weak error ``|E[X_L] - E[X(T)]|`` versus number of steps.

    EM converges weakly at order 1: halving ``dt`` should halve the
    error (up to Monte-Carlo noise; use ``antithetic`` ensembles and
    large ``n_paths``).
    """
    errors: dict[int, float] = {}
    generator = np.random.default_rng(rng)
    for steps in step_counts:
        result = euler_maruyama(
            sde,
            x0,
            t_final,
            int(steps),
            n_paths=n_paths,
            rng=generator,
            antithetic=(n_paths % 2 == 0),
        )
        final_mean = result.component(component)[:, -1].mean()
        errors[int(steps)] = abs(final_mean - exact_mean_final)
    return errors


def strong_error_study(
    sde: LinearSDE,
    x0,
    t_final: float,
    fine_steps: int,
    coarsenings,
    n_paths: int = 256,
    rng=None,
    component: int = 0,
) -> dict[int, float]:
    """Strong error ``E|X_L - X_ref(T)|`` versus step size.

    A fine-grid EM solution serves as the reference; coarser runs reuse
    the *same* Brownian increments (summed in blocks), so differences
    measure discretization error only.  EM converges strongly at order
    1/2 for multiplicative noise and order 1 for the additive noise used
    here.
    """
    generator = np.random.default_rng(rng)
    dt_fine = t_final / fine_steps
    dw_fine = generator.normal(
        0.0, math.sqrt(dt_fine), size=(n_paths, fine_steps, sde.num_noises)
    )
    reference = euler_maruyama(
        sde, x0, t_final, fine_steps, n_paths=n_paths, dw=dw_fine
    )
    reference_final = reference.component(component)[:, -1]
    errors: dict[int, float] = {}
    for factor in coarsenings:
        factor = int(factor)
        if fine_steps % factor != 0:
            raise AnalysisError(
                f"coarsening {factor} does not divide fine_steps {fine_steps}"
            )
        coarse_steps = fine_steps // factor
        blocks = dw_fine.reshape(n_paths, coarse_steps, factor, sde.num_noises)
        dw_coarse = blocks.sum(axis=2)
        coarse = euler_maruyama(
            sde, x0, t_final, coarse_steps, n_paths=n_paths, dw=dw_coarse
        )
        coarse_final = coarse.component(component)[:, -1]
        errors[factor] = float(np.mean(np.abs(coarse_final - reference_final)))
    return errors
