"""Shared fixtures for the Nano-Sim reproduction test suite."""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

from repro.circuit import Circuit, Pulse
from repro.circuits_lib import rtd_divider
from repro.devices import (
    Diode,
    QuantizedNanowire,
    SCHULMAN_INGAAS,
    SchulmanRTD,
    nmos,
)
from repro.swec.timestep import StepControlOptions


def pytest_addoption(parser):
    """``--update-golden`` rewrites the golden-corpus snapshots."""
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate golden corpus snapshots (tests/lint_corpus, "
             "tests/pss_corpus, ...) from the current output instead "
             "of comparing against them")


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite golden snapshots."""
    return request.config.getoption("--update-golden")


def _round_significant(value, digits: int):
    """Recursively round floats to *digits* significant figures.

    Golden corpora pin floating-point payloads; rounding both the
    fresh payload and the stored snapshot to the same significant
    precision keeps the comparison meaningful while tolerating
    last-bit BLAS/platform drift.
    """
    if isinstance(value, float):
        if value == 0.0 or not math.isfinite(value):
            return value
        scale = digits - 1 - math.floor(math.log10(abs(value)))
        return round(value, scale)
    if isinstance(value, dict):
        return {k: _round_significant(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_significant(v, digits) for v in value]
    return value


def _golden_mismatch(fresh, stored, digits: int, abs_tol: dict,
                     where: str = "payload", floor: float = 0.0):
    """Where *fresh* leaves the snapshot *stored*, or None.

    Floats may differ from the snapshot by one unit in its last
    significant digit (of *digits*); beneath a dict key named in
    *abs_tol* they may instead differ by that key's absolute floor,
    whichever is larger.  Everything else must be equal.
    """
    if isinstance(fresh, float) and isinstance(stored, float):
        unit = 0.0 if stored == 0.0 else \
            10.0 ** (math.floor(math.log10(abs(stored))) - digits + 1)
        if abs(fresh - stored) <= max(unit, floor):
            return None
    elif isinstance(fresh, dict) and isinstance(stored, dict):
        if fresh.keys() != stored.keys():
            return f"{where}: keys {sorted(fresh)} != {sorted(stored)}"
        for key in fresh:
            problem = _golden_mismatch(
                fresh[key], stored[key], digits, abs_tol,
                f"{where}[{key!r}]", abs_tol.get(key, floor))
            if problem:
                return problem
        return None
    elif isinstance(fresh, list) and isinstance(stored, list) \
            and len(fresh) == len(stored):
        for k, (a, b) in enumerate(zip(fresh, stored)):
            problem = _golden_mismatch(a, b, digits, abs_tol,
                                       f"{where}[{k}]", floor)
            if problem:
                return problem
        return None
    elif fresh == stored:
        return None
    return f"{where}: {fresh!r} != snapshot {stored!r}"


@pytest.fixture
def golden_json(update_golden):
    """Compare a JSON-serializable payload against a golden snapshot.

    Returns ``check(path, payload, significant_digits=None,
    text=None, abs_tol=None)``: with ``--update-golden`` the snapshot
    at *path* is rewritten first (from *text* when given, so a corpus
    can keep its own rendering, else ``json.dumps(payload, indent=2)``);
    then the payload must equal the parsed snapshot.
    ``significant_digits`` rounds every float on both sides before
    comparing — use it for numerical corpora.  At many digits a
    last-bit difference between platforms can flip a rounding
    boundary, so ``abs_tol`` (with ``significant_digits``) compares
    instead: each float may differ from the snapshot by one unit in
    its last digit.  ``abs_tol`` maps payload keys to absolute floors
    for the floats beneath them, for quantities that sit at round-off
    level (e.g. ``{"states": 1e-10}`` for node voltages); floats
    under other keys keep the one-unit rule alone.
    Shared by the lint, PSS and K = 1 golden corpora; any future
    corpus should use this fixture rather than growing its own update
    flag.
    """

    def check(path, payload, *, significant_digits=None, text=None,
              abs_tol=None):
        fresh = payload
        if significant_digits is not None:
            payload = _round_significant(payload, significant_digits)
        if update_golden:
            rendered = (text if text is not None
                        else json.dumps(payload, indent=2) + "\n")
            path.write_text(rendered)
        assert path.exists(), (
            f"{path.name} missing; run pytest --update-golden")
        stored = json.loads(path.read_text())
        if abs_tol is not None:
            problem = _golden_mismatch(fresh, stored, significant_digits,
                                       abs_tol)
            assert problem is None, f"{path.name}: {problem}"
            return
        if significant_digits is not None:
            stored = _round_significant(stored, significant_digits)
        assert payload == stored

    return check


@pytest.fixture
def slow_job_gate(monkeypatch):
    """Hold every transient job labelled ``slow`` in flight until the
    test sets the returned event.

    Daemon concurrency tests need a job that is still running when a
    second client connects; a gate makes that certain, where a longer
    simulation only makes it likely.  The gate opens on teardown, so a
    failing test never leaves a worker blocked.
    """
    from repro.runtime import TransientJob

    release = threading.Event()
    run = TransientJob.run

    def gated_run(job, seed=None):
        if job.label == "slow" and not release.wait(60):
            raise TimeoutError("slow_job_gate never opened")
        return run(job, seed)

    monkeypatch.setattr(TransientJob, "run", gated_run)
    yield release
    release.set()


@pytest.fixture
def rng():
    """Deterministic random generator for stochastic tests."""
    return np.random.default_rng(20050307)  # DATE'05 conference date


@pytest.fixture
def rtd():
    """Sub-volt InGaAs-style RTD (fast landmarks, realistic PVR)."""
    return SchulmanRTD(SCHULMAN_INGAAS)


@pytest.fixture
def nanowire():
    return QuantizedNanowire()


@pytest.fixture
def diode():
    return Diode()


@pytest.fixture
def divider():
    """Easy-load-line RTD divider circuit (unique DC solution)."""
    circuit, info = rtd_divider(resistance=10.0)
    return circuit, info


@pytest.fixture
def bistable_divider():
    """Large series resistance: bistable load line (NR stress case)."""
    circuit, info = rtd_divider(resistance=300.0)
    return circuit, info


@pytest.fixture
def rc_pulse_circuit():
    """Linear RC lowpass driven by a pulse — analytic reference case."""
    circuit = Circuit("rc-lowpass")
    circuit.add_voltage_source(
        "Vin", "in", "0",
        Pulse(0.0, 1.0, delay=1e-9, rise=0.01e-9, fall=0.01e-9,
              width=20e-9, period=50e-9))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


@pytest.fixture
def fast_steps():
    """Step-control options tuned for test speed."""
    return StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.5e-9,
                              h_initial=1e-12)


@pytest.fixture
def mosfet():
    return nmos(kp=2e-5, w=10e-6, l=1e-6, vth=1.0)
