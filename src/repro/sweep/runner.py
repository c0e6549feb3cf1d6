"""Sweep execution: expand the grid, fan out, aggregate per point.

``run_sweep`` turns a :class:`~repro.sweep.spec.SweepSpec` into one
:class:`SweepPointJob` per design point, executes them on the PR-1
:class:`~repro.runtime.BatchRunner` (deterministic ``SeedSequence``
seeding: per-point results are bit-identical at any worker count), and
assembles the streamed-back scalars into a
:class:`~repro.sweep.report.SweepReport`.

With ``[batch] vector = N`` in the spec, a SWEC transient sweep
collapses every N consecutive same-topology design points into one
:class:`SweepBatchJob` marched in lockstep by
:class:`~repro.swec.ensemble.SwecEnsembleTransient` — one batched
solve per time point for the whole block instead of N independent
Python marches.  Grouping is by position in the deterministic point
order, so a sweep's results depend only on ``(spec, vector)`` — never
on the worker count.

The aggregation is *streaming* in the data-volume sense: each point's
waveforms/paths are reduced to measure scalars inside the worker
(:meth:`SweepPointJob.run` / :meth:`SweepBatchJob.run`), so the parent
process never holds more than one small dict per point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.runtime.jobs import (
    JOB_KINDS,
    ACJob,
    EnsembleJob,
    TransientJob,
    _swec_options,
    materialize_circuit,
)
from repro.runtime.report import BatchReport
from repro.runtime.runner import BatchRunner
from repro.sweep.measures import MeasureSpec
from repro.sweep.report import SweepReport
from repro.sweep.spec import SweepSpec

#: Diagnostic columns every transient sweep report carries.
_TRANSIENT_DIAGNOSTICS = ("points", "flops")


@dataclass
class SweepPointJob:
    """One design point: an inner job plus worker-side reduction.

    Wraps a :class:`~repro.runtime.jobs.TransientJob` or
    :class:`~repro.runtime.jobs.EnsembleJob` and reduces its result to
    the spec's measure scalars *before* returning, so the process
    boundary carries a small dict instead of full waveforms.
    """

    inner: TransientJob | EnsembleJob | ACJob
    measures: list[MeasureSpec] = field(default_factory=list)
    point: dict = field(default_factory=dict)
    label: str = ""

    def run(self, seed=None) -> dict:
        """Execute the inner job; return measure + diagnostic scalars."""
        value = self.inner.run(seed)
        scalars: dict[str, float] = {}
        for measure in self.measures:
            scalars[measure.column] = measure.extract(value)
        diagnostics: dict[str, float] = {}
        if hasattr(value, "flops"):  # TransientResult
            diagnostics["points"] = float(len(value))
            diagnostics["flops"] = float(value.flops.total)
        return {"measures": scalars, "diagnostics": diagnostics}


@dataclass
class SweepBatchJob:
    """A block of consecutive design points marched in lockstep.

    One worker materializes the block's circuits (template builder or
    ``.PARAM`` netlist, one per point), hands them to
    :class:`~repro.swec.ensemble.SwecEnsembleTransient`, and reduces
    each instance's waveforms to the spec's measure scalars before
    returning — the process boundary carries one small dict per point,
    exactly like the scalar path.  Instances share the block's
    worst-case adaptive grid, so measure values can differ from the
    scalar path within step-control tolerance; they are identical for
    any worker count because blocks are cut from the deterministic
    point order.
    """

    template: str | None
    netlist_text: str | None
    params_list: list[dict]
    t_stop: float
    options: object = None
    initial_state: object = None
    #: Solver backend for the lockstep march; overrides ``options``.
    backend: str | None = None
    measures: list[MeasureSpec] = field(default_factory=list)
    points: list[dict] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    label: str = ""

    def run(self, seed=None) -> list[dict]:
        """March the block; return per-point measure/diagnostic dicts."""
        import numpy as np

        from repro.runtime.jobs import apply_backend
        from repro.swec.ensemble import SwecEnsembleTransient

        circuits = [
            materialize_circuit(None, self.template, self.netlist_text,
                                params)
            for params in self.params_list
        ]
        options = apply_backend(self.options, self.backend)
        if isinstance(options, dict):
            options = _swec_options(dict(options))
        engine = SwecEnsembleTransient(circuits, options)
        kwargs = {}
        if self.initial_state is not None:
            kwargs["initial_states"] = np.asarray(self.initial_state, float)
        result = engine.run(self.t_stop, **kwargs)
        # The ensemble-level flop count is split evenly: every instance
        # followed the same recipe on the same grid.
        flops_each = result.flops.total // len(circuits)
        rows = []
        for k in range(len(circuits)):
            instance = result.instance(k)
            scalars = {measure.column: measure.extract(instance)
                       for measure in self.measures}
            rows.append({
                "measures": scalars,
                "diagnostics": {"points": float(len(instance)),
                                "flops": float(flops_each)},
            })
        return rows


def build_batch_jobs(spec: SweepSpec, vector: int) -> list[SweepBatchJob]:
    """Expand *spec* into lockstep blocks of up to *vector* points."""
    measures = spec.resolved_measures()
    settings = dict(spec.settings)
    settings.pop("engine", None)  # validated to be "swec"
    prepared = []
    for point in spec.points():
        params = dict(point)
        if spec.template is not None:
            params = spec.template_info().coerce(params)
        prepared.append((point, spec.point_label(point), params))
    jobs = []
    for lo in range(0, len(prepared), vector):
        block = prepared[lo:lo + vector]
        jobs.append(SweepBatchJob(
            template=spec.template,
            netlist_text=spec.netlist_text,
            params_list=[params for _, _, params in block],
            measures=measures,
            points=[point for point, _, _ in block],
            labels=[label for _, label, _ in block],
            label=f"block-{lo // vector}",
            **settings,
        ))
    return jobs


def build_jobs(spec: SweepSpec) -> list[SweepPointJob]:
    """Expand *spec* into one :class:`SweepPointJob` per grid point."""
    jobs = []
    measures = spec.resolved_measures()
    for point in spec.points():
        label = spec.point_label(point)
        params = dict(point)
        if spec.template is not None:
            params = spec.template_info().coerce(params)
        job_class = JOB_KINDS[spec.kind]
        settings = dict(spec.settings)
        if (spec.kind == "ac" and spec.template is not None
                and "source" not in settings
                and spec.template_info().ac_source is not None):
            settings["source"] = spec.template_info().ac_source
        # SweepSpec validation guarantees a template for ensembles.
        if spec.template is not None:
            inner = job_class(builder=spec.template, params=params,
                              label=label, **settings)
        else:
            inner = job_class(netlist=spec.netlist_text,
                              params=params, label=label, **settings)
        jobs.append(SweepPointJob(inner=inner, measures=measures,
                                  point=point, label=label))
    return jobs


def _block_point_jobs(block: SweepBatchJob) -> list[SweepPointJob]:
    """Rebuild a lockstep block's points as individual scalar jobs.

    Used by the opt-in ``isolate`` recovery path: when a block fails
    terminally, its design points re-run one by one so a single bad
    point cannot take its healthy neighbours down with it.
    """
    jobs = []
    for params, point, label in zip(block.params_list, block.points,
                                    block.labels):
        inner = TransientJob(
            t_stop=block.t_stop,
            builder=block.template,
            netlist=block.netlist_text,
            params=params,
            options=block.options,
            initial_state=block.initial_state,
            backend=block.backend,
            label=label,
        )
        jobs.append(SweepPointJob(inner=inner, measures=block.measures,
                                  point=point, label=label))
    return jobs


def _isolate_failed_blocks(runner: BatchRunner, jobs,
                           batch: BatchReport) -> BatchReport:
    """Re-run each terminally failed block's points individually.

    Lint refusers (:class:`~repro.lint.gate.RefusedBatchJob`, spotted
    by their ``refusal`` attribute) are left alone — re-running a
    design the gate rejected would defeat the gate.  Each surviving
    point's row replaces the block-wide failure; points that fail
    again carry their own error as a ``{"failed": ...}`` sentinel that
    :func:`_point_rows` unpacks into a per-point failed row.
    """
    targets = [
        (result, job) for result, job in zip(batch.results, jobs)
        if isinstance(job, SweepBatchJob) and not result.ok
        and not hasattr(job, "refusal")
    ]
    if not targets:
        return batch
    point_jobs: list[SweepPointJob] = []
    spans = []
    for result, block in targets:
        rebuilt = _block_point_jobs(block)
        spans.append((result, len(point_jobs), len(rebuilt)))
        point_jobs.extend(rebuilt)
    isolated = runner.run(point_jobs)
    for result, offset, count in spans:
        values = []
        for row in isolated.results[offset:offset + count]:
            if row.ok:
                values.append({**row.value, "seconds": row.seconds})
            else:
                values.append({"failed": row.error, "seconds": row.seconds})
        result.value = values
    return batch


def _point_rows(jobs, batch: BatchReport):
    """Flatten job results into per-point rows, preserving point order.

    Yields ``(index, label, point, ok, error, seconds, value)`` for
    scalar :class:`SweepPointJob`\\ s and lockstep
    :class:`SweepBatchJob` blocks alike.  A failed block marks every
    one of its points failed — unless the ``isolate`` recovery path
    replaced its value with per-point rows, in which case each point
    reports its own individual outcome.
    """
    index = 0
    for result, job in zip(batch.results, jobs):
        if isinstance(job, SweepBatchJob):
            per_point = result.ok or isinstance(result.value, list)
            values = (result.value if per_point
                      else [None] * len(job.points))
            seconds = result.seconds / max(len(job.points), 1)
            for label, point, value in zip(job.labels, job.points, values):
                if value is None:
                    yield (index, label, point, False, result.error,
                           seconds, None)
                elif "failed" in value:
                    yield (index, label, point, False, value["failed"],
                           value.get("seconds", seconds), None)
                else:
                    yield (index, label, point, True, None,
                           value.get("seconds", seconds), value)
                index += 1
        else:
            yield (index, result.label, job.point, result.ok,
                   result.error, result.seconds, result.value)
            index += 1


def _assemble_report(spec: SweepSpec, jobs, batch: BatchReport,
                     wall_seconds: float) -> SweepReport:
    """Stitch per-point scalars into tidy columns, preserving order."""
    param_names = tuple(axis.name for axis in spec.axes)
    measure_names = tuple(m.column for m in spec.measures)
    diagnostics = (_TRANSIENT_DIAGNOSTICS
                   if spec.kind in ("transient", "pss") else ())
    columns: dict[str, list] = {
        name: [] for name in
        ("index", "label", *param_names, *measure_names, *diagnostics,
         "ok", "error", "seconds")
    }
    for index, label, point, ok, error, seconds, value in \
            _point_rows(jobs, batch):
        columns["index"].append(index)
        columns["label"].append(label)
        for name in param_names:
            columns[name].append(point[name])
        scalars = value["measures"] if ok else {}
        for name in measure_names:
            columns[name].append(scalars.get(name))
        point_diag = value["diagnostics"] if ok else {}
        for name in diagnostics:
            columns[name].append(point_diag.get(name))
        columns["ok"].append(ok)
        columns["error"].append(error)
        columns["seconds"].append(seconds)
    return SweepReport(
        name=spec.name,
        param_names=param_names,
        measure_names=measure_names,
        columns=columns,
        wall_seconds=wall_seconds,
        workers=batch.workers,
        executor=batch.executor,
        seed=batch.seed,
    )


def run_sweep(spec: SweepSpec, max_workers: int | None = None,
              executor: str | None = None, seed: int | None = None,
              vector: int | None = None,
              backend: str | None = None,
              cache=None,
              validate: str | None = None,
              timeout: float | None = None,
              retries=None,
              fault_plan=None,
              resume=None,
              isolate: bool | None = None,
              antithetic: bool | None = None,
              control_variate: bool | None = None,
              target_ci: float | None = None,
              target_rel_ci: float | None = None,
              max_trials: int | None = None) -> SweepReport:
    """Run every design point of *spec* and aggregate the report.

    ``max_workers``/``executor``/``seed``/``vector`` override the
    spec's ``[batch]`` table; the defaults match
    :class:`~repro.runtime.BatchRunner` (process pool over all usable
    cores, seed 0 so sweeps replay identically by default).  With
    ``vector > 1`` (SWEC transient sweeps only) consecutive design
    points march in lockstep blocks of that size — see
    :class:`SweepBatchJob`.  ``backend`` forces the solver backend of
    every point (transient, AC and PSS sweeps), overriding the spec's
    ``backend`` setting.

    ``cache`` enables the content-addressed result store of
    :mod:`repro.service`: a path (or a ready
    :class:`~repro.service.ResultStore`, or ``True`` for the default
    root).  Each point's reduced measures are looked up by the
    fingerprint of ``(point job, base seed, position)`` before any
    solver runs; hits skip the pool entirely and misses are published
    for the next sweep.  Determinism is unaffected — misses execute
    under the exact seeds they would receive in an uncached run.

    ``validate`` overrides the spec's pre-flight lint mode (``"off"``,
    ``"warn"`` or ``"strict"``).  Strict mode replaces every broken
    design point's job with a refuser *before* dispatch: the point
    appears as a failed row (a :class:`~repro.errors.LintError`)
    without any factorization happening; a lockstep block containing
    a broken point is refused whole, because its points share one
    adaptive grid.

    Fault tolerance (see :mod:`repro.resilience`):

    ``timeout``
        Per-job wall-clock limit in seconds, passed to the runner's
        watchdog; defaults to the spec's ``[batch] timeout``.
    ``retries``
        Retry budget for transient failures — an int (extra attempts)
        or a :class:`~repro.resilience.RetryPolicy`; defaults to the
        spec's ``[batch] retries``.  Retried points re-run under their
        original seeds, so recovered results are bit-identical.
    ``fault_plan``
        A :class:`~repro.resilience.FaultPlan` for deterministic chaos
        testing; injected faults flow through the same retry/timeout
        machinery as real ones.
    ``resume``
        Sugar for ``cache=``: point at the result store of an
        interrupted run (which checkpoints every completed point as it
        finishes) and only the unfinished points re-simulate.
    ``isolate``
        When True (or ``[batch] isolate = true``), a lockstep block
        that fails terminally is re-run point by point, so one bad
        design costs only its own row instead of the whole block.
        Lint-refused blocks stay refused.  Off by default: the
        block-fails-whole behaviour is the documented lockstep
        contract.

    Variance reduction (ensemble sweeps only, see
    :mod:`repro.stochastic.vr`): ``antithetic`` mirrors each path
    pair's increments, ``target_ci``/``target_rel_ci`` stop every
    point once its confidence interval is tight enough (``max_trials``
    backstop).  They override the spec's matching ensemble settings.
    ``control_variate`` is rejected here: SDE ensemble sweeps march
    linear(ized) SDEs, so the linearized control would be the signal
    itself — use :func:`repro.stochastic.run_circuit_ensemble` or an
    ``ensemble_transient`` runtime job for circuit-level control
    variates.
    """
    vr_overrides = {
        key: value
        for key, value in (("antithetic", antithetic),
                           ("target_ci", target_ci),
                           ("target_rel_ci", target_rel_ci),
                           ("max_trials", max_trials))
        if value is not None
    }
    if control_variate:
        from repro.errors import SweepSpecError

        raise SweepSpecError(
            "control_variate= applies to circuit-level ensembles "
            "(run_circuit_ensemble / ensemble_transient jobs); SDE "
            "ensemble sweeps are linear, so the linearized control "
            "is the signal itself")
    if vr_overrides:
        if spec.kind != "ensemble":
            from repro.errors import SweepSpecError

            raise SweepSpecError(
                "antithetic=/target_ci=/target_rel_ci=/max_trials= "
                "apply to ensemble sweeps only")
        spec = replace(spec, settings={**spec.settings, **vr_overrides})
    if backend is not None:
        if spec.kind == "ensemble":
            from repro.errors import SweepSpecError

            raise SweepSpecError(
                "backend= applies to transient, AC and PSS sweeps only")
        spec = replace(spec, settings={**spec.settings,
                                       "backend": backend})
    runner = BatchRunner.from_table(
        spec.batch, workers=max_workers, executor=executor, seed=seed,
        timeout=timeout, retries=retries, fault_plan=fault_plan)
    if isolate is None:
        isolate = bool(spec.batch.get("isolate", False))
    if cache is None and resume is not None and resume is not False:
        cache = resume
    if vector is None:
        vector = spec.vector
    if vector > 1:
        if (spec.kind != "transient"
                or spec.settings.get("engine", "swec") != "swec"):
            from repro.errors import SweepSpecError

            raise SweepSpecError(
                "vector > 1 needs a SWEC transient sweep")
        jobs = build_batch_jobs(spec, vector)
    else:
        jobs = build_jobs(spec)
    mode = validate if validate is not None else spec.validate
    if mode != "off":
        from repro.lint.gate import gate_sweep_jobs

        jobs = gate_sweep_jobs(jobs, mode)
    start = time.perf_counter()
    if cache is not None and cache is not False:
        from repro.service import ResultStore, run_batch_cached

        batch = run_batch_cached(runner, jobs, ResultStore.resolve(cache))
    else:
        batch = runner.run(jobs)
    if isolate:
        batch = _isolate_failed_blocks(runner, jobs, batch)
    return _assemble_report(spec, jobs, batch,
                            time.perf_counter() - start)
