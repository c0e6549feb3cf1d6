"""Shooting-Newton periodic steady-state on the SWEC march.

The shooting method treats one marched period as a map: ``Phi(x0)``
integrates the circuit from state ``x0`` over ``[0, T]`` on a fixed
``steps_per_period`` backward-Euler grid (the existing
:class:`~repro.swec.SwecTransient` march, any solver backend) and
returns the endpoint.  A periodic steady state is a fixed point
``Phi(x*) = x*``; Newton's method on the residual ``r = Phi(x0) - x0``
needs the sensitivity ``M = dPhi/dx0`` — the monodromy matrix.

``M`` is accumulated exactly, step by step, by differentiating the
marched update itself.  Each BE step solved

.. math:: A_n x_{n+1} = b(t_{n+1}) + (C/h)\\,x_n,
          \\qquad A_n = G_{base} + G_{chord}(x_n) + C/h,

so ``dx_{n+1}/dx_n = A_n^{-1} (C/h - D_n)`` where ``D_n`` collects the
state dependence of the chord stamps: a two-terminal device stamped
``g_{ch}(v_n) w_{n+1}`` contributes ``g_{ch}'(v_n) w_{n+1}``, and the
chord/tangent identity ``g_{ch}'(v)\\,v = dI/dV - g_{ch}`` ties that
correction to the element tangents ``dI/dV`` (and MOSFET ``gm``/``gds``)
that the AC linearization stamps.  The result is a
Jacobian consistent with the *discretized* map to machine precision,
which is what gives quadratic convergence — typically 3 iterations on
the RTD relaxation oscillator.

Two modes:

* **driven** — the period is imposed by the sources (or ``period=``);
  plain Newton ``(M - I) d = -r``.  Linear circuits converge in one
  iteration.
* **autonomous** — free-running oscillators have no imposed period and
  a translation-invariant orbit, so ``T`` joins the unknowns and a
  phase condition pins one state component: the augmented system

  .. math:: \\begin{pmatrix} M - I & f_T \\\\ e_k^\\top & 0
            \\end{pmatrix}
            \\begin{pmatrix} d \\\\ dT \\end{pmatrix}
            = \\begin{pmatrix} -r \\\\ 0 \\end{pmatrix}

  with ``f_T`` the endpoint state velocity.  The initial guess comes
  from a short adaptive settle march plus a level-crossing period
  estimate, refined on the fixed grid.

The converged orbit satisfies ``max|x(T) - x(0)| < tolerance`` on the
discrete map; anything less raises :class:`~repro.errors.PSSError`
(converged-or-raised, never silently wrong).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np

from repro.analysis.measure import crossing_times
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Pulse, Sine
from repro.errors import AnalysisError, PSSError
from repro.perf.flops import FlopCounter

__all__ = [
    "PSSOptions",
    "PSSResult",
    "ShootingPSS",
    "detect_drive_period",
    "run_pss",
]

#: Branch voltages smaller than this skip the chord-derivative
#: correction (the chord tends to the tangent there, so the correction
#: term ``(dI/dV - g_ch)/v`` is a removable 0/0).
_V_EPS = 1e-12

#: Size cap of one ``(steps, n, n)`` stack in the monodromy assembly:
#: a whole period for small circuits, a few steps for large meshes.
_STACK_BYTES = 1 << 20



@dataclass
class PSSOptions:
    """Tunables for the shooting analysis.

    Attributes
    ----------
    period:
        Fixed drive period for a driven circuit.  ``None`` auto-detects
        it from the periodic source waveforms; if none exist the
        circuit is treated as autonomous (which then needs
        ``period_guess``).
    period_guess:
        Rough period scale of an autonomous oscillator — it only sets
        the settle horizon and the crossing-detection window, so a
        factor-of-two error is harmless.  Implies autonomous mode.
    steps_per_period:
        Uniform BE steps per period.  The converged orbit is the fixed
        point of *this* grid's map; oracle comparisons must march the
        same grid.
    tolerance:
        Convergence threshold on ``max|x(T) - x(0)|``.
    max_iterations:
        Newton iteration cap; exceeding it raises
        :class:`~repro.errors.PSSError`.
    phase_node:
        Node whose state component is pinned by the autonomous phase
        condition (default: the largest-swing node of the settle tail).
    settle_periods:
        Autonomous settle horizon, in units of ``period_guess``.
    refine_periods:
        Fixed-grid periods marched after the settle to refine the
        period estimate and the starting state.
    swec:
        March options (:class:`~repro.swec.SwecOptions` or a flat
        mapping).  ``use_predictor`` and ``initialize_dc`` are forced
        off and ``method`` to ``"be"`` — the predictor carries history
        across the period boundary and breaks the fixed-point map.
    backend:
        Solver backend for every march (``dense``/``sparse``/
        ``stack``/``auto``); overrides any ``swec`` setting.
    """

    period: float | None = None
    period_guess: float | None = None
    steps_per_period: int = 400
    tolerance: float = 1e-9
    max_iterations: int = 10
    phase_node: str | None = None
    settle_periods: float = 5.0
    refine_periods: int = 2
    swec: Any = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.period is not None and self.period <= 0.0:
            raise AnalysisError(
                f"period must be positive, got {self.period!r}")
        if self.period_guess is not None and self.period_guess <= 0.0:
            raise AnalysisError(
                f"period_guess must be positive, got {self.period_guess!r}")
        if self.period is not None and self.period_guess is not None:
            raise AnalysisError(
                "give period= (driven) or period_guess= (autonomous), "
                "not both")
        if self.steps_per_period < 8:
            raise AnalysisError(
                f"steps_per_period must be >= 8, got "
                f"{self.steps_per_period!r}")
        if self.tolerance <= 0.0:
            raise AnalysisError(
                f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise AnalysisError(
                f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if self.refine_periods < 1:
            raise AnalysisError(
                f"refine_periods must be >= 1, got {self.refine_periods!r}")


class PSSResult:
    """One converged periodic orbit.

    ``times``/``states`` hold the closing period on its uniform grid
    (``steps_per_period + 1`` points, endpoint included); the
    periodicity defect ``max|states[-1] - states[0]|`` is below the
    requested tolerance by construction.
    """

    def __init__(self, node_names, times, states, *, period, mode,
                 iterations, residual, residual_history, phase_node,
                 backend, flops) -> None:
        self.node_names = tuple(node_names)
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        #: Converged period of the discrete map (equals the drive
        #: period in driven mode).
        self.period = float(period)
        #: ``"driven"`` or ``"autonomous"``.
        self.mode = mode
        self.iterations = int(iterations)
        #: Final periodicity residual ``max|x(T) - x(0)|``.
        self.residual = float(residual)
        #: Residual after each Newton iteration, first to last.
        self.residual_history = tuple(float(r) for r in residual_history)
        #: Pinned phase node (autonomous mode only).
        self.phase_node = phase_node
        #: Resolved solver backend the marches ran on.
        self.backend = backend
        #: Merged work counters: every Newton march plus the uniform
        #: per-step monodromy accounting (backend-invariant events).
        self.flops = flops if flops is not None else FlopCounter()

    def __len__(self) -> int:
        return len(self.times)

    @property
    def frequency(self) -> float:
        """Fundamental frequency ``1 / period``."""
        return 1.0 / self.period

    def _node_column(self, node: str | None) -> int:
        if node is None:
            return len(self.node_names) - 1
        try:
            return self.node_names.index(node)
        except ValueError:
            raise AnalysisError(
                f"no node named {node!r} "
                f"(has: {', '.join(self.node_names)})") from None

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of *node*'s voltage over the closing period."""
        return self.states[:, self._node_column(node)]

    def amplitude(self, node: str | None = None) -> float:
        """Half the peak-to-peak swing of *node* (default: last node)."""
        return 0.5 * self.peak_to_peak(node)

    def peak_to_peak(self, node: str | None = None) -> float:
        """Peak-to-peak swing of *node* over one period."""
        v = self.states[:, self._node_column(node)]
        return float(v.max() - v.min())

    def mean(self, node: str | None = None) -> float:
        """Period-average of *node* (endpoint excluded: uniform grid)."""
        return float(np.mean(self.states[:-1, self._node_column(node)]))

    def harmonic(self, node: str | None = None, order: int = 1) -> complex:
        """Complex Fourier coefficient of harmonic *order*.

        Order 0 is the mean; order ``k >= 1`` is ``c_k`` in
        ``v(t) = c_0 + sum_k 2 Re(c_k exp(2j pi k t / T))``, computed
        by FFT over the uniform one-period grid (endpoint dropped).
        """
        v = self.states[:-1, self._node_column(node)]
        if not 0 <= order < len(v) // 2:
            raise AnalysisError(
                f"harmonic order {order} out of range for "
                f"{len(v)} samples per period")
        return complex(np.fft.rfft(v)[order] / len(v))

    def harmonic_magnitude(self, node: str | None = None,
                           order: int = 1) -> float:
        """Amplitude of harmonic *order* (``2|c_k|`` for ``k >= 1``)."""
        coefficient = self.harmonic(node, order)
        return abs(coefficient) if order == 0 else 2.0 * abs(coefficient)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PSSResult(mode={self.mode!r}, period={self.period:.6e}, "
                f"iterations={self.iterations}, "
                f"residual={self.residual:.3e})")


def detect_drive_period(circuit: Circuit) -> float | None:
    """Common period of the circuit's periodic sources, if any.

    ``Pulse``/``Clock`` waveforms contribute their period, ``Sine``
    waveforms ``1/frequency``; DC and aperiodic sources are ignored.
    Returns ``None`` for a source-free (autonomous) circuit; raises
    :class:`~repro.errors.PSSError` when two sources disagree — pass
    ``period=`` explicitly in that case.
    """
    periods = []
    for source in list(circuit.voltage_sources) + \
            list(circuit.current_sources):
        waveform = source.waveform
        if isinstance(waveform, Pulse) and math.isfinite(waveform.period):
            periods.append(float(waveform.period))
        elif isinstance(waveform, Sine):
            periods.append(1.0 / float(waveform.frequency))
    if not periods:
        return None
    reference = periods[0]
    for period in periods[1:]:
        if abs(period - reference) > 1e-9 * reference:
            raise PSSError(
                f"sources disagree on the drive period "
                f"({sorted(set(periods))}); pass period= explicitly")
    return reference


class ShootingPSS:
    """Shooting-Newton periodic steady-state analysis of one circuit.

    Construction resolves the mode (driven vs. autonomous, see
    :class:`PSSOptions`) and builds the SWEC march; :meth:`run`
    executes the pipeline and returns a :class:`PSSResult` or raises
    :class:`~repro.errors.PSSError`.
    """

    def __init__(self, circuit: Circuit,
                 options: PSSOptions | None = None) -> None:
        from repro.runtime.jobs import _swec_options, apply_backend
        from repro.swec import SwecOptions, SwecTransient

        self.circuit = circuit
        self.options = options or PSSOptions()
        swec = apply_backend(self.options.swec, self.options.backend)
        if isinstance(swec, Mapping):
            swec = _swec_options(dict(swec))
        if swec is None:
            swec = SwecOptions()
        # The predictor extrapolates chords from march history, which
        # crosses the period boundary between Newton iterations and
        # floors the achievable periodicity at ~1e-7; BE is the one
        # formula the exact monodromy differentiates.
        self._swec = replace(swec, use_predictor=False,
                             initialize_dc=False, method="be",
                             trace_conductance=False)
        self.engine = SwecTransient(circuit, self._swec)
        self.system = self.engine.system
        self.linearization = self.engine.linearization
        self._base = self.system.conductance_base()
        self._capacitance = self.system.capacitance_matrix()
        period = self.options.period
        if period is None and self.options.period_guess is None:
            period = detect_drive_period(circuit)
        self.mode = "autonomous" if period is None else "driven"
        self._period = period
        if self.mode == "autonomous" and self.options.period_guess is None:
            raise PSSError(
                f"circuit {circuit.name!r} has no periodic source; "
                f"autonomous analysis needs period_guess=")

    @property
    def backend_name(self) -> str:
        """Registry name of the resolved solver backend."""
        return self.engine.backend_name

    # ------------------------------------------------------------------
    # Marching
    # ------------------------------------------------------------------

    def _march(self, x0: np.ndarray, period: float,
               periods: int, flops: FlopCounter):
        """March ``periods`` uniform periods from *x0*; merge flops."""
        steps = self.options.steps_per_period * periods
        grid = np.linspace(0.0, period * periods, steps + 1)
        result = self.engine.run_grid(grid, initial_state=x0)
        flops.merge(result.flops)
        if result.aborted:
            raise PSSError(
                f"period march aborted: {result.abort_reason}")
        return result

    def _settle_options(self, period_guess: float):
        """Adaptive step control scaled to the expected period."""
        from repro.swec.timestep import StepControlOptions

        if self.options.swec is not None:
            return self._swec
        return replace(self._swec, step=StepControlOptions(
            epsilon=0.2, h_min=1e-18,
            h_max=period_guess / 128.0,
            h_initial=period_guess / 4096.0))

    # ------------------------------------------------------------------
    # Monodromy
    # ------------------------------------------------------------------

    def _monodromy(self, states: np.ndarray, grid: np.ndarray,
                   flops: FlopCounter) -> tuple[np.ndarray, np.ndarray]:
        """Exact Jacobian ``M = dPhi/dx0`` of the marched chord map.

        Chains ``A_n^{-1} (C/h - D_n)`` over the period, where ``A_n``
        is exactly the matrix the march factored at step ``n`` (base
        stamps + clamped chords + ``C/h``) and ``D_n`` holds the chord
        derivatives, rewritten through the tangent identity
        ``g_ch'(v) v = dI/dV - g_ch`` so the correction uses the
        per-element tangents ``dI/dV`` of the AC linearization.  Also
        returns the endpoint state velocity ``f_T`` (the autonomous
        period column).

        ``A_n`` and ``C/h - D_n`` are assembled a chunk of steps at a
        time as ``(steps, n, n)`` stacks, with the same elementwise
        arithmetic and stamp order as one step at a time; only the
        chain itself, one LAPACK ``gesv`` per step, stays sequential.
        """
        from scipy.linalg import lapack

        system, lin, circuit = self.system, self.linearization, self.circuit
        n = system.size
        monodromy = np.eye(n)
        device_terminals = system.device_terminals()
        mosfet_terminals = system.mosfet_terminals()
        # Ground (index -1) reads the trailing zero column.
        padded = np.column_stack([states, np.zeros(len(states))])
        steps = len(grid) - 1
        chunk = max(1, _STACK_BYTES // (8 * max(n, 1) ** 2))
        for start in range(0, steps, chunk):
            stop = min(start + chunk, steps)
            h = grid[start + 1:stop + 1] - grid[start:stop]
            b = self._capacitance / h[:, None, None]
            a = self._base + b
            xs, xs_next = padded[start:stop], padded[start + 1:stop + 1]
            device_chords = np.array(
                [lin.device_conductances(x) for x in states[start:stop]]
            ).reshape(len(h), -1)
            mosfet_chords = np.array(
                [lin.mosfet_conductances(x) for x in states[start:stop]]
            ).reshape(len(h), -1)
            lin.stamp(a, device_chords, mosfet_chords)
            # The chord-derivative corrections, zero at the steps
            # they skip.
            for k, (anode, cathode) in enumerate(device_terminals):
                g_ch = device_chords[:, k]
                vn = xs[:, anode] - xs[:, cathode]
                live = (g_ch > 0.0) & (np.abs(vn) > _V_EPS)
                if not live.any():
                    continue
                device = circuit.devices[k]
                tangent = np.array([device.differential_conductance(v)
                                    for v in vn[live].tolist()])
                w = xs_next[live, anode] - xs_next[live, cathode]
                correction = np.zeros(len(h))
                correction[live] = -(tangent - g_ch[live]) * (w / vn[live])
                system.stamp_two_terminal(b, anode, cathode, correction)
            for k, (drain, gate, source) in enumerate(mosfet_terminals):
                c_ch = mosfet_chords[:, k]
                vds = xs[:, drain] - xs[:, source]
                live = (c_ch > 0.0) & (np.abs(vds) > _V_EPS)
                if not live.any():
                    continue
                mosfet = circuit.mosfets[k]
                vgs = xs[live, gate] - xs[live, source]
                partials = np.array([
                    mosfet.partials(*pair)
                    for pair in zip(vgs.tolist(), vds[live].tolist())])
                w = xs_next[live, drain] - xs_next[live, source]
                scale = w / vds[live]
                gds_correction = np.zeros(len(h))
                gds_correction[live] = -(partials[:, 1] - c_ch[live]) * scale
                gm_correction = np.zeros(len(h))
                gm_correction[live] = -partials[:, 0] * scale
                system.stamp_two_terminal(b, drain, source, gds_correction)
                system.stamp_transconductance(b, drain, source, gate, source,
                                              gm_correction)
            for a_n, b_n in zip(a, b):
                _, _, monodromy, info = lapack.dgesv(a_n, b_n @ monodromy)
                if info > 0:
                    raise np.linalg.LinAlgError("Singular matrix")
        # Uniform, backend-independent accounting: one factorization
        # plus an n-column solve per step.
        flops.count_factorization(n, count=steps)
        flops.count_solve(n, count=steps * n)
        velocity = (states[-1] - states[-2]) / (grid[-1] - grid[-2])
        return monodromy, velocity

    # ------------------------------------------------------------------
    # Autonomous period bootstrap
    # ------------------------------------------------------------------

    def _crossing_period(self, times, values) -> tuple[float | None, float]:
        """Mean rising-crossing interval of the mid-level, and level."""
        level = 0.5 * (float(values.min()) + float(values.max()))
        crossings = crossing_times(times, values, level, "rising")
        if len(crossings) < 3:
            return None, level
        intervals = np.diff(crossings[-4:])
        return float(np.mean(intervals)), level

    def _pick_phase_node(self, result) -> str:
        """Largest-swing node of a settle march (the phase pin)."""
        if self.options.phase_node is not None:
            return self.options.phase_node
        swings = {
            name: float(np.ptp(result.voltage(name)))
            for name in result.node_names
        }
        return max(swings, key=swings.get)

    def _bootstrap(self, flops: FlopCounter):
        """Settle, detect crossings, refine: ``(x0, T0, phase_node)``."""
        from repro.swec import SwecTransient

        guess = float(self.options.period_guess)
        settle_time = self.options.settle_periods * guess
        settle_engine = SwecTransient(
            self.circuit, self._settle_options(guess))
        period = None
        for attempt in range(2):
            horizon = settle_time * (2.0 ** attempt)
            settle = settle_engine.run(horizon)
            flops.merge(settle.flops)
            phase_node = self._pick_phase_node(settle)
            tail = settle.times > settle.times[-1] / 3.0
            period, _ = self._crossing_period(
                settle.times[tail], settle.voltage(phase_node)[tail])
            if period is not None:
                break
        if period is None:
            raise PSSError(
                f"no oscillation detected on {phase_node!r} within "
                f"{horizon:.3e} s; check period_guess= or the circuit "
                f"(is the DC point stable?)")
        x0 = settle.states[-1]
        refine = self._march(x0, period, self.options.refine_periods,
                             flops)
        refined, _ = self._crossing_period(
            refine.times, refine.voltage(phase_node))
        if refined is not None:
            period = refined
        return refine.states[-1], period, phase_node

    # ------------------------------------------------------------------
    # Newton iterations
    # ------------------------------------------------------------------

    def _result(self, march, *, period, iterations, residual, history,
                phase_node, flops) -> PSSResult:
        return PSSResult(
            march.node_names, march.times, march.states,
            period=period, mode=self.mode, iterations=iterations,
            residual=residual, residual_history=history,
            phase_node=phase_node, backend=self.backend_name,
            flops=flops)

    def run(self, initial_state: np.ndarray | None = None) -> PSSResult:
        """Execute the shooting pipeline; converged orbit or raise.

        *initial_state* overrides the starting guess (driven mode) or
        the post-settle state (autonomous mode, e.g. to re-seed from a
        brute-force march).
        """
        flops = FlopCounter()
        tolerance = self.options.tolerance
        history: list[float] = []
        if self.mode == "autonomous":
            if initial_state is None:
                x0, period, phase_node = self._bootstrap(flops)
            else:
                x0 = np.asarray(initial_state, dtype=float)
                period = float(self.options.period_guess)
                phase_node = self.options.phase_node or \
                    self.circuit.nodes[-1]
            phase_index = self.system.node_index(phase_node)
        else:
            period = float(self._period)
            phase_node = None
            x0 = (self.system.initial_state() if initial_state is None
                  else np.asarray(initial_state, dtype=float))
        n = self.system.size
        for iteration in range(1, self.options.max_iterations + 1):
            march = self._march(x0, period, 1, flops)
            residual = march.states[-1] - march.states[0]
            defect = float(np.max(np.abs(residual)))
            history.append(defect)
            if defect < tolerance:
                return self._result(
                    march, period=period, iterations=iteration - 1,
                    residual=defect, history=history,
                    phase_node=phase_node, flops=flops)
            monodromy, velocity = self._monodromy(
                march.states, march.times, flops)
            if self.mode == "autonomous":
                jacobian = np.zeros((n + 1, n + 1))
                jacobian[:n, :n] = monodromy - np.eye(n)
                jacobian[:n, n] = velocity
                jacobian[n, phase_index] = 1.0
                rhs = np.zeros(n + 1)
                rhs[:n] = -residual
                try:
                    delta = np.linalg.solve(jacobian, rhs)
                except np.linalg.LinAlgError as exc:
                    raise PSSError(
                        f"singular shooting Jacobian: {exc}",
                        iterations=iteration, residual=defect) from exc
                flops.count_factorization(n + 1)
                flops.count_solve(n + 1)
                x0 = x0 + delta[:n]
                period = period + float(delta[n])
                if not math.isfinite(period) or period <= 0.0:
                    raise PSSError(
                        f"shooting period update diverged to "
                        f"{period!r}; check period_guess=",
                        iterations=iteration, residual=defect)
            else:
                try:
                    delta = np.linalg.solve(
                        monodromy - np.eye(n), -residual)
                except np.linalg.LinAlgError as exc:
                    raise PSSError(
                        f"singular shooting Jacobian (is the circuit "
                        f"missing dynamics?): {exc}",
                        iterations=iteration, residual=defect) from exc
                flops.count_factorization(n)
                flops.count_solve(n)
                x0 = x0 + delta
            if not np.all(np.isfinite(x0)):
                raise PSSError(
                    "shooting Newton update diverged (non-finite state)",
                    iterations=iteration, residual=defect)
        raise PSSError(
            f"shooting Newton did not reach tolerance {tolerance:g} in "
            f"{self.options.max_iterations} iterations",
            iterations=self.options.max_iterations,
            residual=history[-1])


def run_pss(circuit: Circuit, options: PSSOptions | None = None,
            **kwargs) -> PSSResult:
    """One-call front door: ``run_pss(circuit, period=...)``.

    Keyword arguments build a :class:`PSSOptions` when *options* is
    omitted; see that class for the knobs.
    """
    if options is None:
        options = PSSOptions(**kwargs)
    elif kwargs:
        options = replace(options, **kwargs)
    return ShootingPSS(circuit, options).run()
