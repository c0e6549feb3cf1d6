"""Equivalent-conductance evaluation for the SWEC engines.

Given a state vector, :class:`SwecLinearization` computes the chord
conductance of every nonlinear device (two-terminal and MOSFET) and stamps
them into a conductance matrix.  It optionally applies the paper's eq. (5)
first-order Taylor predictor

.. math::  G_{eq}(n+1) = G_{eq}(n) + \\frac{h_n}{2} G'_{eq}(n),
           \\qquad G'_{eq} = \\frac{dG_{eq}}{dV} \\frac{dV}{dt}

where ``dV/dt`` is estimated from the last two accepted points (eq. 9).

The paper's central claim is encoded in :meth:`device_conductances`: the
returned values are chords through the origin, which are non-negative for
passive devices even inside an NDR region.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Circuit
from repro.mna.assembler import MnaSystem
from repro.mna.batch import ConductanceStamper, chord_columns
from repro.perf.flops import FlopCounter


def _gather_arrays(indices) -> tuple[np.ndarray, np.ndarray]:
    """``(clipped indices, ground mask)`` for a vectorized gather.

    Ground terminals carry index ``-1``; clipping them to 0 keeps the
    fancy index legal and the 0.0 mask zeroes the gathered value, so
    ``state[..., idx] * mask`` reproduces the per-terminal
    ``state[k] if k >= 0 else 0.0`` lookup in one shot.
    """
    idx = np.asarray(indices, dtype=np.intp)
    mask = (idx >= 0).astype(float)
    return np.maximum(idx, 0), mask


class SwecLinearization:
    """Computes and stamps step-wise equivalent conductances.

    Parameters
    ----------
    system:
        Assembled MNA view of the circuit.
    use_predictor:
        Apply the eq. (5) Taylor correction when a previous point is
        available.  On by default, matching the paper.

    Branch-voltage extraction and stamping are index-based: terminal
    index arrays are precomputed once so :meth:`device_voltages`,
    :meth:`mosfet_voltages` and :meth:`stamp` run as numpy gathers and
    scatters with no per-device Python loop, and all three accept an
    optional leading batch axis (a ``(K, n)`` state stack or a
    ``(K, n, n)`` matrix stack) — the ensemble engine's hot path.
    """

    def __init__(self, system: MnaSystem, use_predictor: bool = True) -> None:
        self.system = system
        self.circuit: Circuit = system.circuit
        self.use_predictor = use_predictor
        self._device_terminals = system.device_terminals()
        self._mosfet_terminals = system.mosfet_terminals()
        terminals = np.asarray(self._device_terminals,
                               dtype=np.intp).reshape(-1, 2)
        self._anode_idx, self._anode_mask = _gather_arrays(terminals[:, 0])
        self._cathode_idx, self._cathode_mask = \
            _gather_arrays(terminals[:, 1])
        mosfets = np.asarray(self._mosfet_terminals,
                             dtype=np.intp).reshape(-1, 3)
        self._drain_idx, self._drain_mask = _gather_arrays(mosfets[:, 0])
        self._gate_idx, self._gate_mask = _gather_arrays(mosfets[:, 1])
        self._source_idx, self._source_mask = _gather_arrays(mosfets[:, 2])
        # The scalar chord path reads branch voltages out of a Python
        # list (``state.tolist()`` plus a trailing 0.0 that ground's
        # index -1 lands on): for a handful of devices that is several
        # times cheaper than the masked numpy gathers below.
        self._devices = [
            (anode, cathode, device.model, device.multiplicity)
            for device, (anode, cathode) in zip(self.circuit.devices,
                                                self._device_terminals)]
        self._mosfets = [
            (drain, gate, source, mosfet)
            for mosfet, (drain, gate, source) in zip(self.circuit.mosfets,
                                                     self._mosfet_terminals)]
        # MOSFETs stamp their chord across drain-source, exactly like a
        # two-terminal device (paper eq. 3).
        self._stamper = ConductanceStamper(
            list(self._device_terminals)
            + [(drain, source)
               for drain, _gate, source in self._mosfet_terminals],
            system.size)

    # ------------------------------------------------------------------
    # Branch voltage extraction
    # ------------------------------------------------------------------

    def device_voltages(self, state: np.ndarray) -> np.ndarray:
        """Branch voltage of each two-terminal device.

        *state* is ``(n,)`` or a ``(K, n)`` stack; the result matches
        with a trailing device axis.
        """
        state = np.asarray(state, dtype=float)
        va = state[..., self._anode_idx] * self._anode_mask
        vc = state[..., self._cathode_idx] * self._cathode_mask
        return va - vc

    def mosfet_voltages(self, state: np.ndarray) -> np.ndarray:
        """``(vgs, vds)`` rows for each MOSFET.

        *state* is ``(n,)`` or a ``(K, n)`` stack; the result is
        ``(..., n_mosfets, 2)``.
        """
        state = np.asarray(state, dtype=float)
        vd = state[..., self._drain_idx] * self._drain_mask
        vg = state[..., self._gate_idx] * self._gate_mask
        vs = state[..., self._source_idx] * self._source_mask
        return np.stack((vg - vs, vd - vs), axis=-1)

    # ------------------------------------------------------------------
    # Chord conductances (paper Section 3.2 / eq. 5)
    # ------------------------------------------------------------------

    def device_conductances(self, state: np.ndarray,
                            prev_state: np.ndarray | None = None,
                            h_prev: float | None = None,
                            h_next: float | None = None,
                            flops: FlopCounter | None = None) -> np.ndarray:
        """Chord conductance per two-terminal device, Taylor-corrected.

        ``prev_state``/``h_prev`` provide the finite-difference ``dV/dt``
        of eq. (9); ``h_next`` is the step the prediction targets.

        One :meth:`~repro.devices.base.TwoTerminalDevice.chord_and_derivative`
        call per device yields the chord and, when predicting, its
        derivative from a single ``current(v)`` evaluation.
        """
        values = np.asarray(state, dtype=float).tolist()
        values.append(0.0)
        predict = bool(self.use_predictor and prev_state is not None
                       and h_prev and h_next)
        if predict:
            previous = np.asarray(prev_state, dtype=float).tolist()
            previous.append(0.0)
        conductances = []
        for anode, cathode, model, m in self._devices:
            v = values[anode] - values[cathode]
            chord, derivative = model.chord_and_derivative(v, predict)
            g = m * chord
            if predict:
                dv_dt = (v - (previous[anode] - previous[cathode])) / h_prev
                g = g + 0.5 * h_next * (m * derivative) * dv_dt
            # The chord of a passive device is mathematically >= 0; the
            # predictor extrapolation may overshoot slightly, so clamp.
            conductances.append(max(g, 0.0))
        if flops is not None and conductances:
            # The chord is one current evaluation plus a division —
            # cheaper than the Jacobian's current+derivative pair.
            flops.count_device_eval("rtd_current", count=len(conductances))
            if predict:
                flops.count_device_eval("rtd_conductance",
                                        count=len(conductances))
        return np.array(conductances, dtype=float)

    def mosfet_conductances(self, state: np.ndarray,
                            flops: FlopCounter | None = None) -> np.ndarray:
        """Chord conductance ``Ids/Vds`` per MOSFET (paper eq. 3)."""
        values = np.asarray(state, dtype=float).tolist()
        values.append(0.0)
        conductances = []
        for drain, gate, source, mosfet in self._mosfets:
            vs = values[source]
            g = mosfet.chord_conductance(values[gate] - vs, values[drain] - vs)
            conductances.append(max(g, 0.0))
        if flops is not None and conductances:
            flops.count_device_eval("mosfet", count=len(conductances))
        return np.array(conductances, dtype=float)

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------

    def stamp(self, matrix: np.ndarray, device_g: np.ndarray,
              mosfet_g: np.ndarray) -> None:
        """Stamp all equivalent conductances into *matrix* in place.

        *matrix* is ``(n, n)`` or a C-contiguous ``(K, n, n)`` stack;
        the conductance arrays carry the matching leading batch axis.
        """
        self._stamper.stamp(matrix, chord_columns(device_g, mosfet_g))

    def conductance_matrix(self, base: np.ndarray, state: np.ndarray,
                           prev_state: np.ndarray | None = None,
                           h_prev: float | None = None,
                           h_next: float | None = None,
                           flops: FlopCounter | None = None) -> np.ndarray:
        """Return ``G(t_n)``: the base stamps plus all equivalent
        conductances evaluated at *state*."""
        matrix = base.copy()
        device_g = self.device_conductances(
            state, prev_state, h_prev, h_next, flops)
        mosfet_g = self.mosfet_conductances(state, flops)
        self.stamp(matrix, device_g, mosfet_g)
        return matrix
