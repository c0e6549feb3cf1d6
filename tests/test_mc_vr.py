"""Variance-reduction layer tests (:mod:`repro.stochastic.vr`).

Three property families (Hypothesis) plus the threading/equivalence
pins:

* **unbiasedness** — the control-variate and antithetic estimators
  agree with the naive estimator within the wider confidence band, for
  random RC workloads;
* **bit-reproducibility** — the same ``(seed, knobs)`` produce
  byte-identical statistics across reruns, worker counts, chunk splits
  and the serial/parallel boundary;
* **termination** — ``target_ci`` stopping always terminates, with
  ``max_trials`` as a hard backstop and ``stopped_early`` truthfully
  reporting which side fired.

Seed control: Hypothesis's own ``--hypothesis-seed=N`` pytest flag
reproduces a run; CI passes a fixed seed and caches ``.hypothesis``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit
from repro.errors import AnalysisError
from repro.runtime.jobs import EnsembleJob, EnsembleTransientJob
from repro.runtime.runner import BatchRunner
from repro.stochastic import (
    antithetic_normals,
    linearized_control_circuit,
    path_normals,
    run_circuit_ensemble,
    run_circuit_ensemble_parallel,
    run_circuit_ensemble_vr,
    run_ensemble_parallel,
    run_sde_ensemble_vr,
)
from repro.stochastic.sde import LinearSDE


def noisy_rc_circuit(resistance: float = 1e3) -> Circuit:
    circuit = Circuit("noisy-rc")
    circuit.add_resistor("R1", "n1", "0", resistance)
    circuit.add_capacitor("C1", "n1", "0", 1e-12)
    circuit.add_current_source("Id", "0", "n1", 1e-4)
    return circuit


def rtd_lowpass_circuit() -> Circuit:
    from repro.devices.rtd import SCHULMAN_INGAAS, SchulmanRTD

    circuit = Circuit("rtd-lowpass")
    circuit.add_voltage_source("Vb", "in", "0", 0.2)
    circuit.add_resistor("R1", "in", "out", 50.0)
    circuit.add_device("X1", "out", "0", SchulmanRTD(SCHULMAN_INGAAS))
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


NOISE = [("n1", 1e-8)]


# ---------------------------------------------------------------------------
# primitives


def test_path_normals_matches_engine_internal_draw():
    # The vr layer re-draws what run_grid(seeds=...) draws internally;
    # the two must be bit-equal or "VR off" would not equal legacy runs.
    seeds = np.random.SeedSequence(7).spawn(3)
    expected = np.stack(
        [np.random.default_rng(s).standard_normal((5, 2)) for s in seeds]
    )
    assert np.array_equal(path_normals(seeds, 5, 2), expected)


def test_antithetic_normals_interleaves_mirrored_pairs():
    pairs = np.random.SeedSequence(3).spawn(4)
    out = antithetic_normals(pairs, 6, 1)
    assert out.shape == (8, 6, 1)
    assert np.array_equal(out[0::2], -out[1::2])
    assert np.array_equal(out[0::2], path_normals(pairs, 6, 1))


def test_linearized_control_of_linear_circuit_is_the_circuit():
    circuit = noisy_rc_circuit()
    assert linearized_control_circuit(circuit) is circuit


def test_linearized_control_strips_nonlinearity():
    control = linearized_control_circuit(rtd_lowpass_circuit())
    assert not control.nonlinear()
    assert {e.name for e in control.elements()} == {"Vb", "R1", "X1", "C1"}


# ---------------------------------------------------------------------------
# unbiasedness (Hypothesis)


# A fixed seed pool: Hypothesis varies the workload freely, but an
# unbounded seed space would let shrinking hunt for the honest >6-sigma
# tail events any statistical bound admits.
_SEEDS = st.sampled_from(tuple(range(16)))
#: Statistical agreement margin (sigmas) plus a float-noise floor for
#: points whose standard error is exactly zero (the DC-pinned t = 0).
_SIGMAS, _FLOOR = 6.0, 1e-12


@settings(max_examples=10, deadline=None)
@given(
    resistance=st.floats(min_value=200.0, max_value=5e3),
    seed=_SEEDS,
)
def test_cv_estimate_agrees_with_naive_within_ci(resistance, seed):
    naive = run_circuit_ensemble_vr(
        noisy_rc_circuit(resistance), NOISE, 5e-9, 40,
        node="n1", seed=seed, max_trials=64,
    )
    cv = run_circuit_ensemble_vr(
        noisy_rc_circuit(resistance), NOISE, 5e-9, 40,
        node="n1", seed=seed, max_trials=64, control_variate=True,
    )
    margin = _SIGMAS * np.maximum(
        naive.standard_error, cv.standard_error
    )
    assert np.all(np.abs(cv.mean - naive.mean) <= margin + _FLOOR)
    # The naive diagnostic channel on the CV run *is* the naive
    # estimator over its raw paths.
    assert cv.naive_mean is not None
    assert np.all(np.abs(cv.naive_mean - cv.mean) <= margin + _FLOOR)


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_antithetic_estimate_agrees_with_naive_within_ci(seed):
    naive = run_circuit_ensemble_vr(
        rtd_lowpass_circuit(), [("out", 1e-9)], 2e-9, 40,
        node="out", seed=seed, max_trials=64,
    )
    anti = run_circuit_ensemble_vr(
        rtd_lowpass_circuit(), [("out", 1e-9)], 2e-9, 40,
        node="out", seed=seed, max_trials=64, antithetic=True,
    )
    margin = _SIGMAS * np.maximum(
        naive.standard_error, anti.standard_error
    )
    assert np.all(np.abs(anti.mean - naive.mean) <= margin + _FLOOR)


# ---------------------------------------------------------------------------
# bit-reproducibility (Hypothesis across knob combinations)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    antithetic=st.booleans(),
    control_variate=st.booleans(),
    chunks=st.integers(min_value=1, max_value=4),
    workers=st.integers(min_value=1, max_value=3),
)
def test_vr_bit_identical_across_reruns_chunks_and_workers(
    seed, antithetic, control_variate, chunks, workers
):
    kwargs = dict(
        node="n1", seed=seed, antithetic=antithetic,
        control_variate=control_variate, target_ci=0.05, max_trials=64,
    )
    serial = run_circuit_ensemble_vr(
        noisy_rc_circuit(), NOISE, 5e-9, 30, **kwargs
    )
    rerun = run_circuit_ensemble_vr(
        noisy_rc_circuit(), NOISE, 5e-9, 30, **kwargs
    )
    parallel = run_circuit_ensemble_vr(
        noisy_rc_circuit(), NOISE, 5e-9, 30, chunks=chunks,
        runner=BatchRunner(max_workers=workers, executor="thread"),
        **kwargs,
    )
    for other in (rerun, parallel):
        assert np.array_equal(serial.mean, other.mean)
        assert np.array_equal(serial.std, other.std)
        assert serial.n_simulated == other.n_simulated
        assert serial.n_batches == other.n_batches
        assert serial.stopped_early == other.stopped_early
        if control_variate:
            assert np.array_equal(
                serial.cv_coefficient, other.cv_coefficient
            )


def test_vr_off_is_bitwise_legacy_run():
    # With every knob off, run_circuit_ensemble must still produce the
    # pre-VR result: same seeds, same internal draws, same floats.
    legacy = run_circuit_ensemble(
        noisy_rc_circuit(), NOISE, t_stop=5e-9, steps=50,
        n_paths=32, seed=11,
    )
    threaded = run_circuit_ensemble(
        noisy_rc_circuit(), NOISE, t_stop=5e-9, steps=50,
        n_paths=32, seed=11, antithetic=False, control_variate=False,
    )
    assert np.array_equal(legacy.mean, threaded.mean)
    assert np.array_equal(legacy.std, threaded.std)


# ---------------------------------------------------------------------------
# termination (Hypothesis)


@settings(max_examples=12, deadline=None)
@given(
    target_ci=st.floats(min_value=1e-12, max_value=1.0),
    max_trials=st.integers(min_value=4, max_value=96),
    antithetic=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_target_ci_stopping_always_terminates(
    target_ci, max_trials, antithetic, seed
):
    if antithetic and max_trials % 2:
        max_trials += 1
    stats = run_circuit_ensemble_vr(
        noisy_rc_circuit(), NOISE, 5e-9, 20,
        node="n1", seed=seed, target_ci=target_ci,
        max_trials=max_trials, antithetic=antithetic,
    )
    assert stats.n_simulated <= max_trials
    if stats.stopped_early:
        assert stats.n_simulated < max_trials
        halfwidth = float(np.max(0.5 * stats.band_width()))
        assert halfwidth <= target_ci
    else:
        assert stats.n_simulated == max_trials


# ---------------------------------------------------------------------------
# satellite 3: chunk-invariant parallel SDE ensembles


def test_run_ensemble_parallel_is_chunk_invariant():
    sde = LinearSDE([[-2.0e8]], [[1.0e-2]])
    results = [
        run_ensemble_parallel(
            sde, 5e-9, 200, n_paths=24, chunks=chunks, x0=[0.0],
            runner=BatchRunner(max_workers=2, executor="thread", seed=9),
        )
        for chunks in (1, 2, 3)
    ]
    for other in results[1:]:
        assert np.array_equal(results[0].mean, other.mean)
        assert np.array_equal(results[0].std, other.std)


def test_run_circuit_ensemble_parallel_vr_delegates():
    stats = run_circuit_ensemble_parallel(
        noisy_rc_circuit, NOISE, t_stop=5e-9, steps=40, n_paths=64,
        seed=13, chunks=3, antithetic=True, target_ci=0.05,
        runner=BatchRunner(max_workers=2, executor="thread"),
    )
    serial = run_circuit_ensemble(
        noisy_rc_circuit(), NOISE, t_stop=5e-9, steps=40, n_paths=64,
        seed=13, antithetic=True, target_ci=0.05,
    )
    assert np.array_equal(stats.mean, serial.mean)
    assert stats.n_simulated == serial.n_simulated


# ---------------------------------------------------------------------------
# job-layer threading


def test_ensemble_transient_job_vr_validation():
    with pytest.raises(AnalysisError, match="noise"):
        EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=10,
            n_instances=4, antithetic=True,
        )
    with pytest.raises(AnalysisError, match="node"):
        EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=10,
            n_instances=4, noise={"out": 1e-9}, target_ci=0.1,
        )
    with pytest.raises(AnalysisError, match="even"):
        EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=10,
            n_instances=5, noise={"out": 1e-9}, antithetic=True,
        )
    with pytest.raises(AnalysisError, match="replicas"):
        EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=10,
            variations=[{}, {}], noise={"out": 1e-9}, antithetic=True,
        )
    with pytest.raises(AnalysisError, match="n_instances="):
        EnsembleTransientJob(
            builder="noisy_rc_node", t_stop=1e-9, steps=10,
            noise=[("n1", 1e-8)], antithetic=True,
        )


def test_ensemble_transient_job_adaptive_run_and_fingerprint():
    from repro.service.hashing import job_key

    def make():
        return EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=20,
            n_instances=8, noise={"out": 1e-9}, node="out",
            antithetic=True, target_ci=0.05, max_trials=32,
            label="vr",
        )

    assert job_key(make(), seed=0) == job_key(make(), seed=0)
    other = EnsembleTransientJob(
        builder="fet_rtd_inverter", t_stop=1e-9, steps=20,
        n_instances=8, noise={"out": 1e-9}, node="out",
        antithetic=True, target_ci=0.01, max_trials=32, label="vr",
    )
    assert job_key(make(), seed=0) != job_key(other, seed=0)

    stats = make().run(np.random.SeedSequence(3))
    assert stats.antithetic
    assert stats.n_simulated <= 32


def test_ensemble_job_adaptive_stops_on_target():
    job = EnsembleJob(
        builder="noisy_rc_node", t_final=5e-9, steps=100, n_paths=16,
        antithetic=True, target_rel_ci=0.5, max_trials=256,
    )
    stats = job.run(np.random.SeedSequence(5))
    assert stats.stopped_early
    assert stats.n_simulated < 256


def test_sde_vr_antithetic_exact_for_linear_sde():
    sde = LinearSDE([[-2.0e8]], [[1.0e-2]])
    stats = run_sde_ensemble_vr(
        sde, [0.0], 5e-9, 100, antithetic=True, max_trials=16, seed=2
    )
    # A linear SDE response is odd in the increments, so the pair
    # means are deterministic: variance collapses to (near) zero.
    assert float(np.max(stats.standard_error)) <= 1e-12


def test_vr_knobs_reject_return_result():
    with pytest.raises(AnalysisError, match="return_result"):
        run_circuit_ensemble(
            noisy_rc_circuit(), NOISE, t_stop=1e-9, steps=10,
            n_paths=8, seed=1, antithetic=True, return_result=True,
        )
