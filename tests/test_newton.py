"""Tests for the Newton-Raphson machinery (paper Fig. 2 behaviour)."""

import numpy as np
import pytest

from repro.baselines.newton import (
    CompanionAssembler,
    NewtonOptions,
    newton_solve,
    scalar_newton,
)
from repro.circuit import Circuit
from repro.devices import Diode, nmos
from repro.mna.assembler import MnaSystem
from repro.perf import FlopCounter


class TestScalarNewton:
    """Fig. 2: convergence of NR depends on the initial guess."""

    def test_converges_on_good_guess(self):
        def f(x):
            return x * x - 2.0

        def df(x):
            return 2.0 * x

        iterates, converged, oscillating = scalar_newton(f, df, 1.0)
        assert converged
        assert not oscillating
        assert iterates[-1] == pytest.approx(np.sqrt(2.0))

    def test_oscillates_on_bad_guess_nonmonotone_curve(self):
        # Classic NR two-cycle: f(x) = x^3 - 2x + 2 from x0 = 0
        # cycles between 0 and 1 forever.
        def f(x):
            return x**3 - 2.0 * x + 2.0

        def df(x):
            return 3.0 * x * x - 2.0

        iterates, converged, oscillating = scalar_newton(f, df, 0.0)
        assert not converged
        assert oscillating

    def test_same_curve_good_guess_converges(self):
        def f(x):
            return x**3 - 2.0 * x + 2.0

        def df(x):
            return 3.0 * x * x - 2.0

        iterates, converged, oscillating = scalar_newton(f, df, -2.0)
        assert converged
        assert not oscillating
        assert f(iterates[-1]) == pytest.approx(0.0, abs=1e-9)

    def test_rtd_load_line_guess_dependence(self, rtd):
        """NR on the RTD + resistor load line: a guess on the wrong side
        of the peak oscillates or walks away; a good guess converges."""
        vs, r = 1.3, 10.0
        def f(v):
            return rtd.current(v) - (vs - v) / r

        def df(v):
            return rtd.differential_conductance(v) + 1.0 / r

        _, converged_good, _ = scalar_newton(f, df, 1.25)
        assert converged_good

    def test_zero_derivative_stops(self):
        def f(x):
            return x * x

        def df(x):
            return 0.0

        iterates, converged, _ = scalar_newton(f, df, 1.0)
        assert not converged
        assert len(iterates) == 1


class TestCompanionAssembler:
    def test_residual_zero_at_solution(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_resistor("R2", "out", "0", 1e3)
        system = MnaSystem(circuit)
        assembler = CompanionAssembler(system)
        x = np.array([1.0, 0.5, -0.5e-3])
        residual, _ = assembler.residual_and_jacobian(
            x, system.source_vector(0.0))
        assert np.allclose(residual, 0.0, atol=1e-12)

    def test_jacobian_matches_finite_difference(self, rtd):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 100.0)
        circuit.add_device("X1", "out", "0", rtd)
        system = MnaSystem(circuit)
        assembler = CompanionAssembler(system)
        b = system.source_vector(0.0)
        x = np.array([1.0, 0.62, -1e-3])
        residual, jacobian = assembler.residual_and_jacobian(x, b)
        for col in range(3):
            h = 1e-7
            xp, xm = x.copy(), x.copy()
            xp[col] += h
            xm[col] -= h
            fd = (assembler.residual_and_jacobian(xp, b)[0]
                  - assembler.residual_and_jacobian(xm, b)[0]) / (2 * h)
            assert np.allclose(jacobian[:, col], fd, rtol=1e-4, atol=1e-8)

    def test_mosfet_stamps_match_finite_difference(self):
        circuit = Circuit()
        circuit.add_voltage_source("Vd", "d", "0", 3.0)
        circuit.add_voltage_source("Vg", "g", "0", 2.5)
        circuit.add_resistor("Rd", "d", "x", 1e3)
        circuit.add_mosfet("M1", "x", "g", "0", nmos())
        system = MnaSystem(circuit)
        assembler = CompanionAssembler(system)
        b = system.source_vector(0.0)
        x = np.array([3.0, 2.5, 1.5, 0.0, 0.0])
        _, jacobian = assembler.residual_and_jacobian(x, b)
        for col in range(len(x)):
            h = 1e-7
            xp, xm = x.copy(), x.copy()
            xp[col] += h
            xm[col] -= h
            fd = (assembler.residual_and_jacobian(xp, b)[0]
                  - assembler.residual_and_jacobian(xm, b)[0]) / (2 * h)
            assert np.allclose(jacobian[:, col], fd, rtol=1e-4, atol=1e-8)

    def test_gmin_adds_diagonal(self, rtd):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 100.0)
        circuit.add_device("X1", "out", "0", rtd)
        system = MnaSystem(circuit)
        assembler = CompanionAssembler(system)
        b = system.source_vector(0.0)
        x = np.zeros(3)
        _, j_plain = assembler.residual_and_jacobian(x, b)
        _, j_gmin = assembler.residual_and_jacobian(x, b, gmin=1e-3)
        assert j_gmin[1, 1] - j_plain[1, 1] == pytest.approx(1e-3)


class TestNewtonSolve:
    def _diode_circuit(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 5.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_device("D1", "out", "0", Diode())
        return MnaSystem(circuit)

    def test_diode_resistor_bias_point(self):
        system = self._diode_circuit()
        assembler = CompanionAssembler(system)
        outcome = newton_solve(assembler, system.initial_state(),
                               system.source_vector(0.0),
                               NewtonOptions(max_iterations=200,
                                             dv_limit=0.5))
        assert outcome.converged
        v_diode = outcome.x[1]
        assert 0.6 < v_diode < 0.9
        # KCL: diode current equals resistor current
        i_r = (5.0 - v_diode) / 1e3
        assert Diode().current(v_diode) == pytest.approx(i_r, rel=1e-6)

    def test_iteration_count_reported(self):
        system = self._diode_circuit()
        assembler = CompanionAssembler(system)
        outcome = newton_solve(assembler, system.initial_state(),
                               system.source_vector(0.0),
                               NewtonOptions(max_iterations=200,
                                             dv_limit=0.5))
        assert outcome.iterations == len(outcome.update_history)
        assert outcome.iterations > 1

    def test_flops_counted(self):
        system = self._diode_circuit()
        assembler_flops = FlopCounter()
        assembler = CompanionAssembler(system, flops=assembler_flops)
        newton_solve(assembler, system.initial_state(),
                     system.source_vector(0.0),
                     NewtonOptions(max_iterations=200, dv_limit=0.5),
                     flops=assembler_flops)
        assert assembler_flops.factorizations > 1
        assert assembler_flops.device_evaluations > 1

    def test_limiter_hook_applied(self):
        system = self._diode_circuit()
        assembler = CompanionAssembler(system)
        calls = []

        def limiter(x, dx):
            calls.append(1)
            return dx

        newton_solve(assembler, system.initial_state(),
                     system.source_vector(0.0),
                     NewtonOptions(max_iterations=50, dv_limit=0.5),
                     limiter=limiter)
        assert calls

    def test_max_iterations_gives_up(self):
        system = self._diode_circuit()
        assembler = CompanionAssembler(system)
        outcome = newton_solve(assembler, system.initial_state(),
                               system.source_vector(0.0),
                               NewtonOptions(max_iterations=2))
        assert not outcome.converged

    def test_options_validation(self):
        with pytest.raises(ValueError):
            NewtonOptions(max_iterations=0)
        with pytest.raises(ValueError):
            NewtonOptions(damping=0.0)
        with pytest.raises(ValueError):
            NewtonOptions(damping=1.5)
