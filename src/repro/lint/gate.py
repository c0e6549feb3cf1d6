"""Pre-flight gating: lint jobs and sweep design points before solving.

This is the glue between the analyzer and the execution layers.  Three
callers use it:

* runtime jobs (``TransientJob(..., validate="strict")``) call
  :func:`enforce_job_lint` at the top of ``run()``,
* the sweep runner calls :func:`gate_sweep_jobs` after job expansion:
  in ``strict`` mode a broken design point's job is *replaced* by a
  refuser that raises :class:`~repro.errors.LintError` — the point
  shows up as a failed row in the report without a single matrix
  factorization having happened; in ``warn`` mode a
  :class:`LintWarning` is emitted and the point runs anyway,
* the service daemon calls :func:`lint_job` on uncacheable
  submissions, rejecting broken ones before they reach the pool.

Lockstep blocks (:class:`~repro.sweep.runner.SweepBatchJob`) are
refused *whole*: dropping one point would change the shared worst-case
adaptive grid for its neighbours, breaking the promise that lockstep
results depend only on ``(spec, vector)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.errors import LintError, NanoSimError
from repro.lint.analyzer import lint_circuit, lint_netlist
from repro.lint.report import Diagnostic, LintReport
from repro.runtime.jobs import (
    VALIDATE_MODES,
    as_circuit,
    check_validate_mode,
    materialize_circuit,
)
from repro.sweep.runner import SweepBatchJob

__all__ = [
    "VALIDATE_MODES",
    "LintWarning",
    "check_validate_mode",
    "enforce_job_lint",
    "gate_sweep_jobs",
    "lint_job",
]

class LintWarning(UserWarning):
    """Category of ``validate="warn"`` log messages."""


def _build_error_report(name: str, exc: Exception) -> LintReport:
    return LintReport(
        name=name,
        diagnostics=[
            Diagnostic(
                severity="error",
                check="build-error",
                message=f"{type(exc).__name__}: {exc}",
                hint="fix the builder parameters for this design point",
            )
        ],
    )


def lint_job(job: Any, name: str | None = None) -> LintReport | None:
    """Lint the circuit(s) a runtime job would materialize.

    Returns ``None`` for jobs without circuit topology (stochastic
    :class:`~repro.runtime.jobs.EnsembleJob`\\ s).  For
    ``variations=``-carrying ensemble transients every distinct
    design point is linted and the reports merged.  Never raises on a
    broken design — builder failures become ``build-error``
    diagnostics.
    """
    if hasattr(job, "sde"):
        return None  # SDE ensembles carry no circuit topology
    if not any(
        getattr(job, attr, None) is not None
        for attr in ("circuit", "netlist", "builder")
    ):
        return None
    if name is None:
        name = getattr(job, "label", "") or type(job).__name__
    params = dict(getattr(job, "params", None) or {})
    variations = getattr(job, "variations", None)
    if variations:
        param_sets = [{**params, **dict(v)} for v in variations]
    else:
        param_sets = [params]
    netlist = getattr(job, "netlist", None)
    reports = []
    for point_params in param_sets:
        if netlist is not None:
            reports.append(
                lint_netlist(netlist, params=point_params, name=name)
            )
            continue
        try:
            built = materialize_circuit(
                getattr(job, "circuit", None),
                getattr(job, "builder", None),
                None,
                point_params,
            )
        except (NanoSimError, TypeError, ValueError) as exc:
            reports.append(_build_error_report(name, exc))
            continue
        reports.append(lint_circuit(as_circuit(built), name=name))
    if len(reports) == 1:
        return reports[0]
    return LintReport.merge(name, reports)


def refusal_message(report: LintReport) -> str:
    """One-line refusal text: first error plus a count of the rest."""
    first = next(
        d for d in report.diagnostics if d.severity == "error"
    )
    more = report.errors - 1
    suffix = f" (+{more} more error(s))" if more else ""
    return (
        f"{report.name}: refused by pre-flight lint "
        f"[{first.check}] {first.message}{suffix}"
    )


def enforce_job_lint(
    job: Any, mode: str, name: str | None = None
) -> LintReport | None:
    """Apply a job's ``validate=`` knob; returns the report (or None).

    ``strict`` raises :class:`~repro.errors.LintError` when the design
    has lint errors; ``warn`` emits a :class:`LintWarning` and lets it
    run; ``off`` skips linting entirely.
    """
    from repro.errors import AnalysisError

    mode = check_validate_mode(mode, AnalysisError)
    if mode == "off":
        return None
    report = lint_job(job, name=name)
    if report is None or not report.errors:
        return report
    if mode == "strict":
        raise LintError(refusal_message(report), report)
    warnings.warn(
        f"{refusal_message(report).replace('refused', 'flagged')} "
        f"(validate='warn': running anyway)",
        LintWarning,
        stacklevel=2,
    )
    return report


# ----------------------------------------------------------------------
# Sweep gating
# ----------------------------------------------------------------------


@dataclass
class RefusedPointJob:
    """Stand-in inner job for a design point refused in strict mode.

    Its ``run`` raises immediately, so the existing failure-isolation
    path in the batch runner records the refusal as a failed row —
    with zero factorization events, since no engine is ever built.
    """

    refusal: str
    lint_report: LintReport | None = None
    label: str = ""

    def run(self, seed=None):
        """Refuse: raise :class:`~repro.errors.LintError`."""
        raise LintError(self.refusal, self.lint_report)


@dataclass
class RefusedBatchJob(SweepBatchJob):
    """A lockstep block refused whole in strict mode.

    Subclasses :class:`~repro.sweep.runner.SweepBatchJob` so report
    assembly still fans the failure out to every point in the block.
    """

    refusal: str = ""
    lint_report: LintReport | None = None

    def run(self, seed=None):
        """Refuse: raise :class:`~repro.errors.LintError`."""
        raise LintError(self.refusal, self.lint_report)


def _lint_batch_points(job: SweepBatchJob) -> list[LintReport]:
    """Per-point lint reports of a lockstep block (broken ones only)."""
    broken = []
    for label, params in zip(job.labels, job.params_list):
        if job.netlist_text is not None:
            report = lint_netlist(
                job.netlist_text, params=params, name=label
            )
        else:
            try:
                built = materialize_circuit(
                    None, job.template, None, params
                )
            except (NanoSimError, TypeError, ValueError) as exc:
                report = _build_error_report(label, exc)
            else:
                report = lint_circuit(as_circuit(built), name=label)
        if report.errors:
            broken.append(report)
    return broken


def gate_sweep_jobs(jobs: list, mode: str) -> list:
    """Lint every design point; refuse or warn per *mode*.

    Returns a new job list: in ``strict`` mode broken points (or
    blocks containing one) are replaced by refusers, clean jobs pass
    through untouched.
    """
    from repro.errors import SweepSpecError

    mode = check_validate_mode(mode, SweepSpecError)
    if mode == "off":
        return list(jobs)
    gated = []
    for job in jobs:
        if isinstance(job, SweepBatchJob):
            gated.append(_gate_batch_job(job, mode))
        else:
            gated.append(_gate_point_job(job, mode))
    return gated


def _gate_point_job(job, mode: str):
    report = lint_job(job.inner, name=job.label or None)
    if report is None or not report.errors:
        return job
    message = refusal_message(report)
    if mode == "warn":
        warnings.warn(
            f"{message.replace('refused', 'flagged')} "
            f"(validate='warn': running anyway)",
            LintWarning,
            stacklevel=3,
        )
        return job
    return replace(
        job,
        inner=RefusedPointJob(
            refusal=message, lint_report=report, label=job.label
        ),
    )


def _gate_batch_job(job: SweepBatchJob, mode: str):
    broken = _lint_batch_points(job)
    if not broken:
        return job
    merged = LintReport.merge(job.label or "block", broken)
    names = ", ".join(report.name for report in broken)
    message = (
        f"{merged.name}: lockstep block refused by pre-flight lint: "
        f"point(s) {names} failed ({merged.errors} error(s)); a block "
        f"shares one adaptive grid, so the whole block is refused"
    )
    if mode == "warn":
        warnings.warn(
            f"{message.replace('refused by', 'flagged by')} "
            f"(validate='warn': running anyway)",
            LintWarning,
            stacklevel=3,
        )
        return job
    base = {
        f.name: getattr(job, f.name) for f in fields(SweepBatchJob)
    }
    return RefusedBatchJob(refusal=message, lint_report=merged, **base)
