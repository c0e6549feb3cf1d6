"""Golden corpus for the K = 1 SWEC march on the paper circuits.

Each ``tests/k1_corpus/*.expected.json`` snapshot pins one single-
instance analysis: the step and rejection counts, the factorization,
linear-solve and device-evaluation events, the flop totals by category
and a downsampled waveform.  Counts are compared exactly.  Floats are
stored at ten significant digits and must match to one unit in the last
digit (see the shared ``golden_json`` fixture), so a last-bit difference
between platforms passes; node voltages may instead match to
``ABS_TOL``, which only matters for nodes at round-off level.  The snapshots guard the
scalar chord path, the direct LAPACK solver and the breakpoint table
against any change in what the march computes.  Regenerate after an
intentional engine change with ``pytest --update-golden``; the diff is
the review artifact.

Cases:

- the Fig. 8 FET-RTD inverter, backward Euler and trapezoidal;
- the Fig. 9 MOBILE flip-flop, whose RTDs idle at 0 V until the first
  clock edge (the ``|v| < chord_epsilon`` chord branch);
- a step-wise SWEC DC sweep of the bistable RTD divider (Table I);
- one fixed-grid march of the RTD relaxation oscillator.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro.circuit import Pulse
from repro.circuits_lib import (
    fet_rtd_inverter,
    mobile_dflipflop,
    rtd_divider,
    rtd_relaxation_oscillator,
)
from repro.swec import SwecDC, SwecOptions, SwecTransient
from repro.swec.dc import SwecDCOptions
from repro.swec.timestep import StepControlOptions

CORPUS = Path(__file__).parent / "k1_corpus"

SIGNIFICANT_DIGITS = 10

#: Absolute floor for the node voltages (the waveform ``states``), in
#: volts.  Quiescent nodes sit at round-off level, 1e-19..1e-15 V, and
#: under the trapezoidal rule a node held near 0 V rings: a last-bit
#: change in one solve moves it by ~1e-12 V.  Sample times and every
#: other float are pinned to ten significant digits.
ABS_TOL = {"states": 1e-10}

#: Waveform samples kept per snapshot.
SAMPLES = 41


def _events(result) -> dict:
    flops = result.flops
    return {
        "factorizations": flops.factorizations,
        "linear_solves": flops.linear_solves,
        "device_evaluations": flops.device_evaluations,
        "flops": dict(sorted(flops.by_category().items())),
        "flops_total": flops.total,
    }


def _downsample(axis, states, names) -> dict:
    """Node voltages at SAMPLES evenly spaced points.

    Branch currents are left out: under the trapezoidal rule the
    voltage-source currents ring, so a last-bit change in one solve
    moves a 3 mA current by ~1e-11 A.
    """
    rows = np.unique(np.linspace(0, len(axis) - 1, SAMPLES).round().astype(int))
    return {
        "axis": np.asarray(axis)[rows].tolist(),
        "states": {name: states[rows, k].tolist()
                   for k, name in enumerate(names)},
    }


def _transient_payload(result) -> dict:
    payload = {
        "points": len(result),
        "accepted_steps": result.accepted_steps,
        "rejected_steps": result.rejected_steps,
        "aborted": result.aborted,
    }
    payload.update(_events(result))
    payload["waveform"] = _downsample(result.times, result.states,
                                      result.node_names)
    return payload


def _inverter(method: str) -> SwecTransient:
    vin = Pulse(0.0, 5.0, delay=1e-9, rise=0.3e-9, fall=0.3e-9,
                width=4e-9, period=10e-9)
    circuit, _ = fet_rtd_inverter(vin=vin)
    return SwecTransient(circuit, SwecOptions(
        step=StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.2e-9,
                                h_initial=1e-12),
        dv_limit=0.5, method=method))


def test_inverter_backward_euler_golden(golden_json):
    result = _inverter("be").run(10e-9)
    golden_json(CORPUS / "inverter_be.expected.json",
                _transient_payload(result),
                significant_digits=SIGNIFICANT_DIGITS, abs_tol=ABS_TOL)


def test_inverter_trapezoidal_golden(golden_json):
    result = _inverter("trap").run(10e-9)
    golden_json(CORPUS / "inverter_trap.expected.json",
                _transient_payload(result),
                significant_digits=SIGNIFICANT_DIGITS, abs_tol=ABS_TOL)


def test_flipflop_golden(golden_json):
    clock = Pulse(0.0, 1.15, delay=5e-9, rise=0.2e-9, fall=0.2e-9,
                  width=4.8e-9, period=10e-9)
    data = Pulse(0.0, 1.2, delay=2e-9, rise=0.2e-9, fall=0.2e-9,
                 width=1.0, period=math.inf)
    circuit, _ = mobile_dflipflop(clock=clock, data=data)
    engine = SwecTransient(circuit, SwecOptions(
        step=StepControlOptions(epsilon=0.1, h_min=1e-13, h_max=0.2e-9,
                                h_initial=1e-12),
        dv_limit=0.2))
    result = engine.run(8e-9)
    # The corpus must cover the near-zero chord branch: both RTDs sit
    # at exactly 0 V until the clock rises.
    states = np.column_stack([result.states, np.zeros(len(result))])
    idle = [np.abs(states[:, a] - states[:, c]) < 1e-9
            for a, c in engine.system.device_terminals()]
    assert all(branch.any() for branch in idle)
    assert not all(branch.all() for branch in idle)
    golden_json(CORPUS / "flipflop.expected.json",
                _transient_payload(result),
                significant_digits=SIGNIFICANT_DIGITS, abs_tol=ABS_TOL)


def test_stepwise_dc_divider_golden(golden_json):
    circuit, info = rtd_divider(resistance=300.0)
    sweep = SwecDC(circuit, SwecDCOptions(mode="stepwise")).sweep(
        info.source, np.linspace(0.0, 4.0, 131))
    payload = {"points": len(sweep), "converged": bool(sweep.all_converged)}
    payload.update(_events(sweep))
    payload["waveform"] = _downsample(sweep.sweep_values, sweep.states,
                                      sweep.node_names)
    golden_json(CORPUS / "dc_stepwise_divider.expected.json", payload,
                significant_digits=SIGNIFICANT_DIGITS, abs_tol=ABS_TOL)


def test_oscillator_grid_golden(golden_json):
    circuit, info = rtd_relaxation_oscillator()
    times = np.linspace(0.0, 2.0 * info.period_guess, 801)
    result = SwecTransient(circuit, SwecOptions()).run_grid(times)
    golden_json(CORPUS / "oscillator_grid.expected.json",
                _transient_payload(result),
                significant_digits=SIGNIFICANT_DIGITS, abs_tol=ABS_TOL)
