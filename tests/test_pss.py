"""Oracle tests for the shooting-Newton PSS engine.

Every claim the engine makes is cross-checked against an independent
reference: a brute-force many-period transient march on the *same*
uniform grid (the discrete map whose fixed point shooting solves), and
the analytic AC phasor solution for driven linear circuits.  The
autonomous oscillator check mirrors the acceptance criterion: the
brute-force 50-period tail must be periodic at the shooting period to
1e-8, and re-seeding shooting from the brute endpoint must land on the
same orbit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.measure import crossing_times
from repro.circuit import Circuit
from repro.circuit.sources import Pulse, Sine
from repro.circuits_lib import rtd_relaxation_oscillator
from repro.devices import SchulmanRTD
from repro.devices.mosfet import nmos
from repro.errors import PSSError
from repro.perf.flops import FlopCounter
from repro.pss import PSSOptions, ShootingPSS, detect_drive_period, run_pss
from repro.runtime import PSSJob, job_from_mapping

PERIOD = 50e-9


def slow_rc(capacitance: float = 20e-12) -> Circuit:
    """Pulse-driven RC whose time constant is comparable to the period.

    With RC = 20 ns against a 50 ns period the transient does *not*
    die within one cycle, so the cold-start state is visibly wrong and
    the driven Newton step has real work to do (one exact iteration,
    the circuit being linear).
    """
    circuit = Circuit("rc-slow")
    circuit.add_voltage_source(
        "Vin", "in", "0",
        Pulse(0.0, 1.0, delay=1e-9, rise=0.01e-9, fall=0.01e-9,
              width=20e-9, period=PERIOD))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", capacitance)
    return circuit


# ----------------------------------------------------------------------
# Driven mode vs. brute force
# ----------------------------------------------------------------------


class TestDrivenOracle:
    def test_period_autodetected_from_pulse(self):
        assert detect_drive_period(slow_rc()) == pytest.approx(PERIOD)

    def test_matches_brute_force_50_period_tail(self):
        """Shooting orbit == last period of a 50-period march, <= 1e-8.

        Driven circuits are phase-locked to the source, so the
        comparison is pointwise on the shared grid — the strongest
        possible oracle.
        """
        circuit = slow_rc()
        steps = 400
        shoot = ShootingPSS(circuit,
                            PSSOptions(steps_per_period=steps))
        orbit = shoot.run()
        assert orbit.mode == "driven"
        assert orbit.iterations <= 10
        assert orbit.residual < 1e-9
        periods = 50
        grid = np.linspace(0.0, periods * PERIOD, periods * steps + 1)
        brute = shoot.engine.run_grid(grid)
        tail = brute.states[-(steps + 1):]
        assert np.max(np.abs(tail - orbit.states)) <= 1e-8

    def test_linear_driven_converges_in_one_iteration(self):
        orbit = run_pss(slow_rc(), steps_per_period=200)
        assert orbit.iterations <= 1
        assert orbit.residual < 1e-9

    def test_same_orbit_from_any_initial_guess(self):
        """The driven map's fixed point is unique: cold start and a
        deliberately bad warm start land on the same orbit."""
        circuit = slow_rc()
        options = PSSOptions(steps_per_period=200)
        cold = ShootingPSS(circuit, options).run()
        n = len(cold.states[0])
        warm = ShootingPSS(circuit, options).run(
            initial_state=np.full(n, 3.0))
        assert np.max(np.abs(warm.states - cold.states)) <= 1e-8

    def test_matches_analytic_ac_phasor(self):
        """Sine-driven RC lowpass: the fundamental harmonic of the PSS
        orbit equals ``H(j w) * (source phasor)`` with
        ``H = 1 / (1 + j w R C)``.

        Backward Euler is first order, so the agreement is at the
        percent level on a 1600-point grid — tight enough to catch any
        structural error (wrong node, wrong normalization, wrong
        frequency) while robust to the integrator's known bias.
        """
        resistance, capacitance = 1e3, 1e-12
        frequency, amplitude = 1e8, 0.5
        circuit = Circuit("rc-sine")
        circuit.add_voltage_source("Vin", "in", "0",
                                   Sine(0.0, amplitude, frequency))
        circuit.add_resistor("R1", "in", "out", resistance)
        circuit.add_capacitor("C1", "out", "0", capacitance)
        orbit = run_pss(circuit, steps_per_period=1600)
        assert orbit.period == pytest.approx(1.0 / frequency)
        omega = 2.0 * np.pi * frequency
        transfer = 1.0 / (1.0 + 1j * omega * resistance * capacitance)
        # sin = (e^{ix} - e^{-ix}) / 2i, so the source's c_1 is -iA/2.
        expected = transfer * (-0.5j * amplitude)
        measured = orbit.harmonic("out", 1)
        assert abs(measured - expected) <= 0.01 * abs(expected)
        # the input fundamental itself is reproduced exactly
        assert orbit.harmonic("in", 1) == pytest.approx(-0.5j * amplitude,
                                                        abs=1e-6)


# ----------------------------------------------------------------------
# Autonomous mode vs. brute force (acceptance criterion)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def oscillator_orbit():
    """One converged shooting run on the RTD relaxation oscillator."""
    circuit, info = rtd_relaxation_oscillator()
    options = PSSOptions(period_guess=info.period_guess,
                         steps_per_period=400)
    shoot = ShootingPSS(circuit, options)
    return circuit, options, shoot, shoot.run()


class TestAutonomousOracle:
    def test_converges_within_ten_iterations(self, oscillator_orbit):
        _, _, _, orbit = oscillator_orbit
        assert orbit.mode == "autonomous"
        assert orbit.iterations <= 10
        assert orbit.residual < 1e-9
        # quadratic convergence: each Newton step gains > 1 digit
        history = orbit.residual_history
        assert all(later < 0.1 * earlier
                   for earlier, later in zip(history, history[1:]))

    def test_period_is_physical(self, oscillator_orbit):
        circuit, _, _, orbit = oscillator_orbit
        # relaxation oscillation runs slower than the LC resonance but
        # on the same order (L = 10 nH, C = 1 pF -> 2 pi sqrt(LC))
        lc_scale = 6.28e-10
        assert 0.5 * lc_scale < orbit.period < 2.0 * lc_scale
        assert orbit.peak_to_peak("out") > 1.0  # volts, full NDR swing

    def test_brute_force_tail_is_periodic_at_shooting_period(
            self, oscillator_orbit):
        """Acceptance: 50 cold-start periods on the shooting period's
        grid end T-periodic at <= 1e-8.

        The brute march knows nothing of the Newton solution — it
        starts from the capacitor's initial condition and simply runs
        50 periods.  Its tail being periodic *on the shooting period's
        grid* proves the shooting period matches the true limit cycle;
        a 1e-4 relative period error would leave a ~1e-4 V mismatch
        here, six orders of magnitude above the threshold.
        """
        _, _, shoot, orbit = oscillator_orbit
        steps, periods = 400, 50
        grid = np.linspace(0.0, periods * orbit.period,
                           periods * steps + 1)
        brute = shoot.engine.run_grid(grid)
        last = brute.states[-(steps + 1):]
        previous = brute.states[-2 * steps - 1:-steps]
        assert np.max(np.abs(last - previous)) <= 1e-8
        # phase-invariant state-space agreement with the shooting orbit
        # (peak-to-peak carries ~1e-5 sampling error between
        # phase-shifted grids of the same orbit)
        swing = brute.voltage("out")[-(steps + 1):]
        assert np.ptp(swing) == pytest.approx(
            orbit.peak_to_peak("out"), rel=1e-4)
        # and the tail's measured period agrees with Newton's unknown
        tail_times = brute.times[-10 * steps:]
        tail_v = brute.voltage("out")[-10 * steps:]
        level = 0.5 * (tail_v.min() + tail_v.max())
        crossings = crossing_times(tail_times, tail_v, level, "rising")
        measured = float(np.mean(np.diff(crossings)))
        assert measured == pytest.approx(orbit.period, rel=1e-6,
                                         abs=0.0)

    def test_reseeded_shooting_lands_on_same_orbit(self,
                                                   oscillator_orbit):
        """Restarting from a brute-force endpoint converges in a step
        or two to the same period and amplitude."""
        circuit, options, shoot, orbit = oscillator_orbit
        from dataclasses import replace

        grid = np.linspace(0.0, 10 * orbit.period, 10 * 400 + 1)
        brute = shoot.engine.run_grid(grid)
        reseed_options = replace(options, period_guess=orbit.period,
                                 phase_node=orbit.phase_node)
        reseeded = ShootingPSS(circuit, reseed_options).run(
            initial_state=brute.states[-1])
        assert reseeded.iterations <= 3
        assert reseeded.period == pytest.approx(orbit.period,
                                                rel=1e-9, abs=0.0)
        assert reseeded.peak_to_peak("out") == pytest.approx(
            orbit.peak_to_peak("out"), rel=1e-4)

    def test_same_orbit_from_multiple_period_guesses(self,
                                                     oscillator_orbit):
        """Half and 1.5x the LC guess converge to the same limit cycle
        (compared through phase-invariant observables)."""
        circuit, options, _, orbit = oscillator_orbit
        from dataclasses import replace

        for factor in (0.5, 1.5):
            other = ShootingPSS(circuit, replace(
                options, period_guess=factor * options.period_guess,
            )).run()
            assert other.period == pytest.approx(orbit.period,
                                                 rel=1e-6, abs=0.0)
            assert other.peak_to_peak("out") == pytest.approx(
                orbit.peak_to_peak("out"), rel=1e-4)
            assert other.harmonic_magnitude("out", 1) == pytest.approx(
                orbit.harmonic_magnitude("out", 1), rel=1e-4)


# ----------------------------------------------------------------------
# Monodromy
# ----------------------------------------------------------------------


def _gated_inverter() -> ShootingPSS:
    """Driven RTD-load inverter whose MOSFET gate is an RC-filtered
    state node, so the monodromy carries both the RTD chord and the
    MOSFET gm/gds corrections."""
    circuit = Circuit("rc-gated-rtd-inverter")
    circuit.add_voltage_source("Vdd", "vdd", "0", 3.0)
    circuit.add_voltage_source(
        "Vin", "in", "0",
        Pulse(0.0, 3.0, delay=0.1e-9, rise=0.1e-9, fall=0.1e-9,
              width=0.9e-9, period=2e-9))
    circuit.add_resistor("Rg", "in", "g", 1e3)
    circuit.add_capacitor("Cg", "g", "0", 1e-12)
    circuit.add_device("Xload", "vdd", "out", SchulmanRTD(), multiplicity=2.0)
    circuit.add_mosfet("M1", "out", "g", "0",
                       nmos(kp=2e-3, w=1.0, l=1.0, vth=1.0))
    circuit.add_capacitor("Cout", "out", "0", 1e-12)
    return ShootingPSS(circuit, PSSOptions(steps_per_period=80))


def _oscillator() -> ShootingPSS:
    circuit, info = rtd_relaxation_oscillator()
    return ShootingPSS(circuit, PSSOptions(period_guess=info.period_guess,
                                           steps_per_period=200))


class TestMonodromy:
    def _march(self, shooting, x0):
        period = shooting._period or shooting.options.period_guess
        return shooting._march(x0, period, 1, FlopCounter())

    @pytest.mark.parametrize("build", [_gated_inverter, _oscillator])
    def test_matches_finite_difference_of_the_period_map(self, build):
        shooting = build()
        x0 = shooting.system.initial_state() + 0.05
        march = self._march(shooting, x0)
        monodromy, _ = shooting._monodromy(march.states, march.times,
                                           FlopCounter())
        assert np.abs(monodromy).max() > 0.1
        eps = 1e-6
        for j in range(len(x0)):
            step = np.zeros_like(x0)
            step[j] = eps
            column = (self._march(shooting, x0 + step).states[-1]
                      - self._march(shooting, x0 - step).states[-1]) / (2 * eps)
            np.testing.assert_allclose(monodromy[:, j], column,
                                       rtol=1e-5, atol=1e-9)

    def test_step_chunking_does_not_change_bits(self, monkeypatch):
        """The step stacks are capped in size; a cap of a few steps must
        give exactly the one-stack result."""
        from repro.pss import engine

        shooting = _gated_inverter()
        march = self._march(shooting, shooting.system.initial_state())
        whole, _ = shooting._monodromy(march.states, march.times,
                                       FlopCounter())
        n = shooting.system.size
        monkeypatch.setattr(engine, "_STACK_BYTES", 7 * 8 * n * n)
        chunked, _ = shooting._monodromy(march.states, march.times,
                                         FlopCounter())
        assert np.array_equal(whole, chunked)


# ----------------------------------------------------------------------
# Typed failures
# ----------------------------------------------------------------------


class TestTypedErrors:
    def test_no_period_and_no_sources_raises(self):
        circuit = Circuit("dead")
        circuit.add_voltage_source("V1", "a", "0", 1.0)  # DC only
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_capacitor("C1", "b", "0", 1e-12)
        with pytest.raises(PSSError, match="period_guess"):
            run_pss(circuit)

    def test_disagreeing_source_periods_raise(self):
        circuit = Circuit("mixed")
        circuit.add_voltage_source("V1", "a", "0",
                                   Sine(0.0, 1.0, 1e8))
        circuit.add_voltage_source("V2", "b", "0",
                                   Sine(0.0, 1.0, 3e8))
        circuit.add_resistor("R1", "a", "c", 1e3)
        circuit.add_resistor("R2", "b", "c", 1e3)
        circuit.add_capacitor("C1", "c", "0", 1e-12)
        with pytest.raises(PSSError, match="disagree"):
            run_pss(circuit)
        # an explicit period resolves the ambiguity
        orbit = run_pss(circuit, period=1e-8, steps_per_period=100)
        assert orbit.residual < 1e-9

    def test_iteration_cap_raises_with_diagnostics(self):
        circuit, info = rtd_relaxation_oscillator()
        with pytest.raises(PSSError) as excinfo:
            run_pss(circuit, period_guess=info.period_guess,
                    steps_per_period=100, max_iterations=1,
                    tolerance=1e-12)
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual is not None

    def test_no_oscillation_detected_raises(self):
        # stable RC circuit marched as if it were an oscillator
        circuit = Circuit("stable")
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_capacitor("C1", "b", "0", 1e-12)
        with pytest.raises(PSSError, match="no oscillation"):
            run_pss(circuit, period_guess=1e-9)

    def test_bad_options_rejected(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            PSSOptions(period=1e-9, period_guess=1e-9)
        with pytest.raises(AnalysisError):
            PSSOptions(period=-1.0)
        with pytest.raises(AnalysisError):
            PSSOptions(steps_per_period=4)
        with pytest.raises(AnalysisError):
            PSSOptions(tolerance=0.0)


# ----------------------------------------------------------------------
# Runtime integration
# ----------------------------------------------------------------------


class TestPSSJob:
    def test_job_runs_oscillator(self):
        job = PSSJob(builder="rtd_relaxation_oscillator",
                     period_guess=6.3e-10, steps_per_period=200)
        orbit = job.run()
        assert orbit.mode == "autonomous"
        assert orbit.residual < 1e-9

    def test_job_from_mapping(self):
        job = job_from_mapping({
            "type": "pss", "circuit": "rtd_relaxation_oscillator",
            "period_guess": 6.3e-10,
        })
        assert isinstance(job, PSSJob)
        assert job.builder == "rtd_relaxation_oscillator"
        assert job.kind == "pss"

    def test_job_needs_exactly_one_design_source(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="exactly one"):
            PSSJob()
        with pytest.raises(AnalysisError, match="exactly one"):
            PSSJob(builder="rtd_relaxation_oscillator",
                   netlist="R1 a 0 1k")

    def test_job_fingerprint_is_canonical(self):
        from repro.service.cache import job_kind
        from repro.service.hashing import job_key

        job = PSSJob(builder="rtd_relaxation_oscillator",
                     period_guess=6.3e-10)
        twin = job_from_mapping({
            "type": "pss", "circuit": "rtd_relaxation_oscillator",
            "period_guess": 6.3e-10,
        })
        assert job_kind(job) == "pss"
        assert job_key(job) == job_key(twin)
        other = PSSJob(builder="rtd_relaxation_oscillator",
                       period_guess=6.4e-10)
        assert job_key(job) != job_key(other)

    def test_strict_validate_refuses_broken_design(self):
        from repro.errors import LintError

        broken = Circuit("broken")
        broken.add_voltage_source("V1", "a", "0", 1.0)
        broken.add_resistor("R1", "a", "b", 1.0)
        broken.add_resistor("R2", "c", "d", 1.0)  # floating island
        broken.add_capacitor("C1", "b", "0", 1e-12)
        job = PSSJob(circuit=broken, period=1e-9, validate="strict")
        with pytest.raises(LintError, match="floating-node"):
            job.run()


class TestPSSSweep:
    def test_pss_sweep_kind(self):
        from repro.sweep.measures import measures_from_spec
        from repro.sweep.runner import run_sweep
        from repro.sweep.spec import ParameterAxis, SweepSpec

        spec = SweepSpec(
            axes=[ParameterAxis.from_values("capacitance",
                                            [0.8e-12, 1e-12])],
            kind="pss",
            template="rtd_relaxation_oscillator",
            settings={"period_guess": 6.3e-10, "steps_per_period": 200},
            measures=measures_from_spec(
                [{"kind": "period"}, {"kind": "amplitude"},
                 {"kind": "harmonic", "order": 1},
                 {"kind": "pss_iterations"}], kind="pss"),
        )
        report = run_sweep(spec, max_workers=2)
        assert all(report.columns["ok"])
        periods = report.columns["period"]
        assert periods[0] < periods[1]  # smaller C -> faster
        assert all(it <= 10 for it in report.columns["pss_iterations"])
        assert all(f > 0 for f in report.columns["flops"])

    def test_unknown_pss_measure_rejected_eagerly(self):
        from repro.errors import SweepSpecError
        from repro.sweep.measures import measures_from_spec

        with pytest.raises(SweepSpecError, match="unknown pss measure"):
            measures_from_spec([{"kind": "rise_time"}], kind="pss")
