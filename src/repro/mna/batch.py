"""Index-based batch assembly and chunked batched dense solves.

Pieces shared by every stacked-system path in the repo:

:class:`ConductanceStamper`
    Precomputed scatter indices for two-terminal conductance stamps.
    Built once per analysis from ``(i, j)`` terminal index pairs, it
    stamps a whole column of conductances into a dense ``(n, n)``
    matrix — or a ``(K, n, n)`` stack, one conductance row per
    instance — without a Python loop over devices;
    :func:`chord_columns` lays out the device and MOSFET chords it
    takes.

:func:`solve_stack`
    Chunked batched ``numpy.linalg.solve`` over a ``(B, n, n)`` stack
    of systems.  The AC sweeps (:mod:`repro.ac.analysis`, complex
    ``(F, n, n)`` frequency stacks) and the ensemble transient engine
    (:mod:`repro.swec.ensemble`, real ``(K, n, n)`` instance stacks)
    both route through it, so memory bounding and singular-system
    reporting live in one place.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SingularMatrixError

#: Matrix entries per solve chunk (~64 MB at complex128, ~32 MB at
#: float64) — the same bound the AC sweeps have always used.
CHUNK_ENTRIES = 4_000_000


def solve_stack(matrices, rhs, *, chunk_entries: int | None = None,
                describe: Callable[[int, int], str] | None = None,
                dtype=None) -> np.ndarray:
    """Solve a stack of linear systems with chunked batched LAPACK.

    Parameters
    ----------
    matrices:
        ``(B, n, n)`` array stack, or a callable ``matrices(lo, hi)``
        returning the ``(hi - lo, n, n)`` chunk — the lazy form lets
        callers assemble huge stacks chunk by chunk (the AC sweep
        never materializes its full ``(F, n, n)`` complex stack).
    rhs:
        ``(B, n)`` right-hand sides, or ``(B, n, k)`` for multiple
        columns per system.  A ``numpy.broadcast_to`` view is fine —
        it is only ever sliced.
    chunk_entries:
        Matrix entries per chunk; defaults to :data:`CHUNK_ENTRIES`.
    describe:
        Optional ``describe(lo, hi)`` callback naming the chunk in the
        :class:`~repro.errors.SingularMatrixError` message.
    dtype:
        Result dtype; defaults to the rhs dtype (callers passing a
        lazy complex ``matrices`` with a real rhs must say so).

    Returns the ``(B, n)`` or ``(B, n, k)`` solution stack, matching
    the rhs rank.
    """
    rhs = np.asarray(rhs)
    if rhs.ndim not in (2, 3):
        raise ValueError(
            f"rhs must have shape (B, n) or (B, n, k), got {rhs.shape}")
    squeeze = rhs.ndim == 2
    rhs3 = rhs[:, :, None] if squeeze else rhs
    batch, n = rhs3.shape[0], rhs3.shape[1]
    if dtype is None:
        dtype = rhs.dtype if np.iscomplexobj(rhs) else float
    out = np.empty((batch, n, rhs3.shape[2]), dtype=dtype)
    entries = CHUNK_ENTRIES if chunk_entries is None else int(chunk_entries)
    chunk = max(1, entries // max(n * n, 1))
    for lo in range(0, batch, chunk):
        hi = min(lo + chunk, batch)
        block = matrices(lo, hi) if callable(matrices) else matrices[lo:hi]
        try:
            out[lo:hi] = np.linalg.solve(block, rhs3[lo:hi])
        except np.linalg.LinAlgError as exc:
            context = describe(lo, hi) if describe is not None else \
                f"batch [{lo}, {hi})"
            raise SingularMatrixError(
                f"singular system in {context}: {exc}") from exc
    return out[:, :, 0] if squeeze else out


def chord_columns(device_g, mosfet_g) -> np.ndarray:
    """Two-terminal device chords, then MOSFET chords, along the last
    axis: the column order of every :class:`ConductanceStamper` built
    from device and MOSFET terminals.

    An empty block is dropped instead of concatenated, which skips a
    copy on the common no-MOSFET circuits and lets a 1-D empty block
    pair with a batched one.
    """
    device_g = np.asarray(device_g, dtype=float)
    mosfet_g = np.asarray(mosfet_g, dtype=float)
    if not mosfet_g.shape[-1]:
        return device_g
    if not device_g.shape[-1]:
        return mosfet_g
    return np.concatenate((device_g, mosfet_g), axis=-1)


class ConductanceStamper:
    """Scatter-index stamping of two-terminal conductances.

    Parameters
    ----------
    pairs:
        ``(i, j)`` row/column index pairs, one per conductance to be
        stamped; ``-1`` means ground (that side does not stamp).
    size:
        System dimension ``n``.

    ``stamp(matrix, values)`` adds each ``values[..., k]`` between
    ``pairs[k]`` exactly like
    :meth:`repro.mna.assembler.MnaSystem.stamp_conductance`, but as
    one ``np.add.at`` scatter instead of a Python loop — and with an
    optional leading batch axis on both arguments.  Scatter entries
    are emitted in the same device-then-entry order the loop used, so
    accumulation order (hence bitwise results) is unchanged.
    """

    def __init__(self, pairs, size: int) -> None:
        self.size = int(size)
        self.n_values = len(pairs)
        positions: list[int] = []
        columns: list[int] = []
        signs: list[float] = []
        for k, (i, j) in enumerate(pairs):
            if i >= 0:
                positions.append(i * size + i)
                columns.append(k)
                signs.append(1.0)
            if j >= 0:
                positions.append(j * size + j)
                columns.append(k)
                signs.append(1.0)
            if i >= 0 and j >= 0:
                positions.append(i * size + j)
                columns.append(k)
                signs.append(-1.0)
                positions.append(j * size + i)
                columns.append(k)
                signs.append(-1.0)
        self._positions = np.asarray(positions, dtype=np.intp)
        self._columns = np.asarray(columns, dtype=np.intp)
        self._signs = np.asarray(signs, dtype=float)

    def stamp(self, matrix: np.ndarray, values: np.ndarray) -> None:
        """Stamp *values* into *matrix* in place.

        *matrix* is ``(n, n)`` or a C-contiguous ``(K, n, n)`` stack;
        *values* correspondingly ``(n_values,)`` or ``(K, n_values)``.
        """
        if self._positions.size == 0:
            return
        if not matrix.flags.c_contiguous:
            # reshape on a non-contiguous array would copy and the
            # in-place scatter would be lost.
            raise ValueError("stamp target must be C-contiguous")
        values = np.asarray(values, dtype=float)
        contributions = values[..., self._columns] * self._signs
        flat = matrix.reshape(*matrix.shape[:-2], self.size * self.size)
        if flat.ndim == 1:
            np.add.at(flat, self._positions, contributions)
        else:
            flat2 = flat.reshape(-1, self.size * self.size)
            rows = np.arange(flat2.shape[0], dtype=np.intp)[:, None]
            np.add.at(flat2, (rows, self._positions[None, :]),
                      contributions.reshape(flat2.shape[0], -1))
