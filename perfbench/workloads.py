"""The in-process parts ``paper_k1``, ``grid_pss`` and ``mc_lockstep``,
and :class:`Composite`, which runs parts as one benchmark workload.

Each part builds its inputs from the seed in :meth:`setup` and runs
one fixed work list per :meth:`round`.  Every analysis call is one
:class:`Op`.  Oracles are queued on the :class:`Runner` and run after
the round, outside its timing and tracing.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import crossing_times
from repro.circuit import Pulse
from repro.circuits_lib import (
    fet_rtd_inverter,
    mobile_dflipflop,
    power_grid_mesh,
    rtd_chain,
    rtd_divider,
    rtd_relaxation_oscillator,
)
from repro.core.stepper import LinearStepper
from repro.devices import SCHULMAN_INGAAS, SchulmanRTD
from repro.pss import PSSOptions, ShootingPSS
from repro.stochastic import vr
from repro.swec import SwecDC, SwecEnsembleTransient, SwecOptions, SwecTransient
from repro.swec.dc import SwecDCOptions
from repro.swec.timestep import StepControlOptions


@dataclass
class Op:
    """One timed analysis call and what its oracle found."""

    name: str
    seconds: float
    stats: Counter = field(default_factory=Counter)
    #: ``None`` when the call returned and its oracle passed.
    problem: str | None = None
    #: ``hit``/``miss`` on ``mc_served``; ``vr`` for the VR estimator.
    kind: str = ""
    #: Non-additive observations (ratios), reported per layer.
    extra: dict = field(default_factory=dict)


class MarchTally:
    """Simulated statistics of every SWEC march, read off its result.

    Wraps ``LinearStepper.run``/``run_grid`` once per march (never per
    step), in traced and untraced rounds alike.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def install(self, patcher) -> None:
        for attr in ("run", "run_grid"):
            patcher.method(LinearStepper, attr, self._counted)

    def _counted(self, march):
        counts = self.counts

        def counted(stepper, *args, **kwargs):
            result = march(stepper, *args, **kwargs)
            counts["march_points"] += result.accepted_steps * result.n_instances
            counts["rejected_steps"] += result.rejected_steps
            counts["factorizations"] += result.flops.factorizations
            counts["linear_solves"] += result.flops.linear_solves
            counts["device_evaluations"] += result.flops.device_evaluations
            counts["factor_reuses"] += result.factor_reuses
            return result

        return counted


def flop_stats(flops) -> dict:
    return {"factorizations": flops.factorizations,
            "linear_solves": flops.linear_solves,
            "device_evaluations": flops.device_evaluations}


class Runner:
    """Times ops for one round; opens a ``bench.op`` root span when traced.

    Oracles wait in :attr:`checks` until :meth:`check` runs them, in the
    order they were queued, once the round is over.
    """

    def __init__(self, tally: MarchTally, tracer=None) -> None:
        self.tally = tally
        self.tracer = tracer
        self.checks: list = []

    def op(self, name: str, call, check, kind: str = "") -> Op:
        before = Counter(self.tally.counts)
        scope = self.tracer.span("bench.op") if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                out = call()
        except Exception as exc:  # a failed op is counted, not fatal
            return Op(name, time.perf_counter() - start,
                      problem=f"{type(exc).__name__}: {exc}", kind=kind)
        seconds = time.perf_counter() - start
        stats = Counter(self.tally.counts)
        stats.subtract(before)
        op = Op(name, seconds, +stats, kind=kind)
        self.defer(op, lambda: check(out, op))
        return op

    def defer(self, op: Op, check) -> None:
        """Queue ``check()``, whose problem (or ``None``) goes to *op*."""
        self.checks.append((op, check))

    def check(self) -> None:
        """Run the queued oracles; an op keeps its first problem."""
        for op, check in self.checks:
            try:
                problem = check()
            except Exception as exc:  # an oracle that cannot run fails the op
                problem = f"oracle {type(exc).__name__}: {exc}"
            op.problem = op.problem or problem
        self.checks.clear()


def _near(value: float, target: float, tol: float, what: str) -> str | None:
    if abs(value - target) <= tol:
        return None
    return f"{what} = {value:.4g}, expected {target:.4g} +- {tol:g}"


def _first(*problems):
    return next((p for p in problems if p), None)


class _InProcess:
    def close(self) -> None:
        """In-process workloads hold no processes, sockets or files."""


class PaperK1(_InProcess):
    """K = 1 adaptive SWEC on the paper's own circuits (Figs. 8, 9, Table I).

    The seed jitters pulse timing and device values inside ranges that
    keep each circuit's logic behaviour, so every seed has the same
    oracle.
    """

    name = "paper_k1"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])

        def jitter(nominal, spread):
            return float(nominal * rng.uniform(1.0 - spread, 1.0 + spread))

        # Capacitance and edge rates set the eq.-12 step count, so they
        # move least: the work per round stays within ~1% across seeds.
        vin = Pulse(0.0, 5.0, delay=jitter(1e-9, 0.05),
                    rise=jitter(0.3e-9, 0.01), fall=jitter(0.3e-9, 0.01),
                    width=jitter(4e-9, 0.02), period=10e-9)
        circuit, self.inv = fet_rtd_inverter(
            vin=vin, fet_vth=jitter(1.0, 0.01),
            load_capacitance=jitter(1e-12, 0.005))
        self.inverter = SwecTransient(circuit, SwecOptions(
            step=StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.2e-9,
                                    h_initial=1e-12),
            dv_limit=0.5))

        clock = Pulse(0.0, 1.15, delay=5e-9, rise=jitter(0.2e-9, 0.01),
                      fall=jitter(0.2e-9, 0.01), width=4.8e-9, period=10e-9)
        data = Pulse(0.0, 1.2, delay=float(rng.uniform(30.9e-9, 31.1e-9)),
                     rise=0.2e-9, fall=0.2e-9, width=1.0, period=math.inf)
        circuit, self.ff = mobile_dflipflop(
            clock=clock, data=data, output_capacitance=jitter(2e-12, 0.005))
        self.flipflop = SwecTransient(circuit, SwecOptions(
            step=StepControlOptions(epsilon=0.1, h_min=1e-13, h_max=0.2e-9,
                                    h_initial=1e-12),
            dv_limit=0.2))

        # Table I: the Fig. 7 divider traced through NDR by the chord
        # fixed point, the bistable divider and an 8-stage chain with
        # one chord solve per point (the paper's costing).
        circuit, self.easy = rtd_divider(resistance=jitter(10.0, 0.03))
        self.easy_dc = SwecDC(circuit)
        circuit, self.ndr = rtd_divider(resistance=jitter(300.0, 0.03))
        self.ndr_dc = SwecDC(circuit, SwecDCOptions(mode="stepwise"))
        circuit, self.chain = rtd_chain(8, resistance=jitter(50.0, 0.03))
        self.chain_dc = SwecDC(circuit, SwecDCOptions(mode="stepwise"))
        self.chain_nodes = ["in"] + [f"n{k}" for k in range(1, 9)]
        self.peak = SchulmanRTD(SCHULMAN_INGAAS).peak()

    def round(self, runner: Runner, index: int) -> list[Op]:
        return [
            runner.op("inverter_fig8", lambda: self.inverter.run(10e-9),
                      self._check_inverter),
            runner.op("flipflop_fig9", lambda: self.flipflop.run(40e-9),
                      self._check_flipflop),
            runner.op("dc_divider_ndr", lambda: self.easy_dc.sweep(
                self.easy.source, np.linspace(0.0, 2.6, 261)), self._check_easy),
            runner.op("dc_divider_bistable", lambda: self.ndr_dc.sweep(
                self.ndr.source, np.linspace(0.0, 4.0, 131)), self._check_ndr),
            runner.op("dc_chain8", lambda: self.chain_dc.sweep(
                self.chain.source, np.linspace(0.0, 2.0, 81)), self._check_chain),
        ]

    def _check_inverter(self, result, op) -> str | None:
        out = self.inv.output_node
        return _first(
            "aborted" if result.aborted else None,
            _near(result.at(4.5e-9, out), self.inv.v_out_low, 0.1, "v_out(4.5 ns)"),
            _near(result.at(9.5e-9, out), self.inv.v_out_high, 0.1, "v_out(9.5 ns)"))

    def _check_flipflop(self, result, op) -> str | None:
        q = self.ff.output_node
        held = [_near(result.at(t, q), self.ff.v_q_low, 0.1, f"q({t * 1e9:.0f} ns)")
                for t in (8e-9, 18e-9, 28e-9)]
        level = 0.5 * (self.ff.v_q_low + self.ff.v_q_high)
        rising = crossing_times(result.times, result.voltage(q), level, "rising")
        late = rising[rising > 30e-9]
        edge = ("no latch edge after 30 ns" if late.size == 0
                else _near(float(late[0]), 35e-9, 1e-9, "latch edge"))
        return _first(
            "aborted" if result.aborted else None, *held,
            None if result.at(33e-9, q) < 0.1 else "q latched before the 35 ns edge",
            _near(result.at(39e-9, q), self.ff.v_q_high, 0.1, "q(39 ns)"), edge)

    def _dc_stats(self, result, op) -> None:
        op.stats.update(flop_stats(result.flops))
        op.stats["dc_points"] += len(result)

    def _check_easy(self, result, op) -> str | None:
        self._dc_stats(result, op)
        v = self.easy_dc.device_voltages(result, self.easy.device)
        i = self.easy_dc.device_currents(result, self.easy.device)
        v_peak, i_peak = self.peak
        k = int(np.argmax(i))
        return _first(
            None if result.all_converged else "a sweep point did not converge",
            _near(float(i[k]), i_peak, 0.02 * i_peak, "peak current"),
            _near(float(v[k]), v_peak, 0.03, "peak voltage"),
            None if np.max(np.abs(np.diff(v))) < 0.05 else "NDR trace jumps")

    def _check_ndr(self, result, op) -> str | None:
        self._dc_stats(result, op)
        v = self.ndr_dc.device_voltages(result, self.ndr.device)
        ok = np.all(np.isfinite(v)) and np.all(np.diff(v) >= -1e-12)
        return None if ok and 0.0 <= v.min() and v.max() <= 4.0 else \
            "bistable ramp is not a bounded non-decreasing trace"

    def _check_chain(self, result, op) -> str | None:
        self._dc_stats(result, op)
        ladder = np.column_stack([result.voltage(n) for n in self.chain_nodes])
        ok = np.all(np.isfinite(ladder)) and np.all(np.diff(ladder, axis=1) <= 1e-12)
        return None if ok else "chain node voltages are not ordered along the ladder"


class GridPSS(_InProcess):
    """Shooting PSS: a driven 16x16 sparse power-grid mesh and two
    autonomous RTD relaxation oscillators."""

    name = "grid_pss"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])

        def jitter(nominal, spread):
            return float(nominal * rng.uniform(1.0 - spread, 1.0 + spread))

        grid, info = power_grid_mesh(16, 16, ripple=jitter(0.05, 0.05),
                                     decap=jitter(1e-12, 0.05))
        options = PSSOptions(period=info.ripple_period, backend="sparse")
        self.cases = [("pss_grid16", grid, ShootingPSS(grid, options), "sparse")]
        for k in range(2):
            circuit, osc = rtd_relaxation_oscillator(
                inductance=jitter(10e-9, 0.01), capacitance=jitter(1e-12, 0.01),
                bias=jitter(1.1, 0.005))
            options = PSSOptions(period_guess=osc.period_guess)
            self.cases.append((f"pss_oscillator{k}", circuit,
                               ShootingPSS(circuit, options), "dense"))
        # The oracle re-marches one period with its own engine, built
        # from the same march settings the shooting engine forces.
        self.remarch = [
            SwecTransient(circuit, SwecOptions(
                use_predictor=False, initialize_dc=False, method="be",
                backend=backend))
            for _, circuit, _, backend in self.cases]

    def round(self, runner: Runner, index: int) -> list[Op]:
        ops = []
        for (name, _, engine, _), remarch in zip(self.cases, self.remarch):
            tolerance = engine.options.tolerance
            ops.append(runner.op(
                name, engine.run,
                lambda orbit, op, r=remarch, tol=tolerance:
                    self._check(orbit, op, r, tol)))
        return ops

    @staticmethod
    def _check(orbit, op, remarch, tolerance) -> str | None:
        # The orbit's counter already holds its marches' flops, which
        # the march tally counted too: take the orbit's totals.
        for key, value in flop_stats(orbit.flops).items():
            op.stats[key] = value
        op.stats["newton_iterations"] += orbit.iterations
        closure = float(np.max(np.abs(orbit.states[-1] - orbit.states[0])))
        if closure > tolerance:
            return f"orbit closure {closure:.3g} > tolerance {tolerance:g}"
        again = remarch.run_grid(orbit.times - orbit.times[0],
                                 initial_state=orbit.states[0])
        # The re-march is the oracle's work, not the workload's: it is
        # recorded apart so it stays out of ``steps_per_s`` and the
        # per-layer counts, yet must repeat like every statistic.
        op.stats["oracle_march_points"] += again.accepted_steps
        op.stats.update({f"oracle_{key}": value
                         for key, value in flop_stats(again.flops).items()})
        drift = float(np.max(np.abs(again.states - orbit.states)))
        reclosure = float(np.max(np.abs(again.states[-1] - again.states[0])))
        if drift > 1e-8 or reclosure > 10.0 * tolerance:
            return (f"re-march disagrees with the orbit (drift {drift:.3g}, "
                    f"closure {reclosure:.3g})")
        return None


class McLockstep(_InProcess):
    """Circuit-noise Monte-Carlo on the Fig. 8 inverter, ``stack`` backend.

    A fixed K = 256 naive ensemble on seed-chosen noise streams, then
    two control-variate + antithetic runs that stop at a target
    relative CI.  The VR runs draw from fixed streams: where a run
    stops is random (its batch count varies by ~20% from stream to
    stream), and that would swing each round's work with the seed.
    """

    name = "mc_lockstep"
    PATHS = 256
    STEPS = 400
    T_STOP = 10e-9
    NOISE = 2e-8
    TARGET_REL_CI = 5e-4
    MAX_TRIALS = 1024
    BATCH = 32

    def setup(self, seed: int) -> None:
        vin = Pulse(0.0, 5.0, delay=1e-9, rise=0.3e-9, fall=0.3e-9,
                    width=4e-9, period=10e-9)
        self.circuit, info = fet_rtd_inverter(vin=vin)
        self.node = info.output_node
        self.noise = [(self.node, self.NOISE)]
        self.options = SwecOptions(backend="stack")
        self.engine = SwecEnsembleTransient(
            self.circuit, self.options, n_instances=self.PATHS, noise=self.noise)
        self.times = np.linspace(0.0, self.T_STOP, self.STEPS + 1)
        self.path_seeds = np.random.SeedSequence([seed, 3]).spawn(self.PATHS)
        self.naive = None

    def round(self, runner: Runner, index: int) -> list[Op]:
        self.naive = None  # set by this round's naive oracle
        ops = [runner.op("naive_k256", lambda: self.engine.run_grid(
            self.times, seeds=self.path_seeds), self._check_naive)]
        for k in range(2):
            ops.append(runner.op(f"vr_cv_antithetic{k}", lambda k=k: (
                vr.run_circuit_ensemble_vr(
                    self.circuit, self.noise, self.T_STOP, self.STEPS,
                    node=self.node, seed=[4, k], options=self.options,
                    control_variate=True, antithetic=True,
                    target_rel_ci=self.TARGET_REL_CI,
                    max_trials=self.MAX_TRIALS, batch_size=self.BATCH)),
                self._check_vr, kind="vr"))
        return ops

    def _check_naive(self, result, op) -> str | None:
        paths = result.voltage(self.node)
        if not np.all(np.isfinite(paths)):
            return "non-finite naive path"
        self.naive = (paths.mean(axis=0),
                      paths.std(axis=0, ddof=1) / math.sqrt(paths.shape[0]))
        op.stats["paths_simulated"] += paths.shape[0]
        return None

    def _check_vr(self, estimate, op) -> str | None:
        op.stats["paths_simulated"] += estimate.n_simulated
        op.stats["vr_batches"] += estimate.n_batches
        op.extra["variance_reduction"] = estimate.variance_reduction
        if not estimate.stopped_early:
            return "VR estimator hit max_trials before the CI target"
        if self.naive is None:
            return "no naive ensemble to compare against"
        mean, se = self.naive
        # z = 5 on every grid point keeps a false alarm below 1e-3 per
        # seed even though 401 points are tested.
        spread = 5.0 * np.sqrt(se**2 + estimate.standard_error**2) + 1e-9
        worst = float(np.max(np.abs(estimate.mean - mean) - spread))
        if worst > 0.0:
            return f"VR mean leaves the naive CI by {worst:.3g} V"
        return None


class Composite:
    """Parts run as one workload: set up, one round each and closed in order."""

    #: So that a run with a short ``--seconds`` still has a mean.
    min_rounds = 2

    def __init__(self, name: str, parts: list, key_ops: tuple[str, ...]) -> None:
        self.name = name
        self.parts = parts
        #: The operations whose latency ``key_op_p50_s`` and
        #: ``key_op_best_s`` report: the ones a ROADMAP item targets.
        self.key_ops = key_ops

    def setup(self, seed: int) -> None:
        for part in self.parts:
            part.setup(seed)

    def close(self) -> None:
        for part in self.parts:
            part.close()

    def round(self, runner: Runner, index: int) -> tuple[list[Op], dict]:
        """The round's operations and the seconds of each part's share."""
        ops, seconds = [], {}
        for part in self.parts:
            began = time.perf_counter()
            ops.extend(part.round(runner, index))
            seconds[part.name] = time.perf_counter() - began
        return ops, seconds
