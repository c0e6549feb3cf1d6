"""The ``repro`` command line: one parser for the whole Nano-Sim stack.

Commands::

    repro batch jobs.toml              run a job-spec file in parallel
    repro sweep spec.toml              run a parametric design-space sweep
    repro ac lowpass.cir --noise       small-signal AC + Johnson noise
    repro pss --template NAME ...      periodic steady state (shooting)
    repro lint design.cir              static netlist topology lint
    repro service serve|submit|status|gc
                                       job daemon + content-addressed cache

``python -m repro <command>`` is the same entry.  The job-spec schema
is documented on :func:`repro.runtime.jobs.load_spec`, the sweep-spec
schema on :meth:`repro.sweep.SweepSpec.from_mapping`.

Options that several commands take are declared once, as argparse
parent parsers: the batch-runner knobs, the variance-reduction knobs
and ``--cache`` (``batch``, ``sweep``); the design source with
``--param``, ``--node`` and ``--rows`` (``ac``, ``pss``);
``--backend`` (``sweep``, ``ac``, ``pss``) and ``--validate``
(``sweep``, ``pss``).  Each parent is built fresh per command, so a
command's own defaults (``set_defaults``) never leak into another.

The older per-package entry points are aliases of one command each
(see :func:`alias`): ``repro-batch`` / ``python -m repro.runtime``,
``repro-sweep`` / ``python -m repro.sweep``, ``repro-ac`` /
``python -m repro.ac``, ``repro-pss`` / ``python -m repro.pss``,
``repro-lint`` / ``python -m repro.lint`` and ``repro-service`` /
``python -m repro.service``.

Exit status: 0 on success; 1 when a batch job, sweep point or service
submission failed, or a lint report reached ``--fail-on``; 2 on a
usage or configuration error, printed as ``error: ...``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.errors import AnalysisError, NanoSimError
from repro.runtime.jobs import VALIDATE_MODES


def main(argv: list[str] | None = None) -> int:
    """Run one ``repro`` command; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (NanoSimError, OSError, TypeError, ValueError) as exc:
        # Bad input, not a crash: ValueError covers JSON/TOML decode
        # errors; failed jobs and sweep points never raise this far.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def alias(*command: str):
    """An entry point that runs ``repro <command> ...`` under an older name."""

    def entry(argv: list[str] | None = None) -> int:
        return main([*command, *(sys.argv[1:] if argv is None else argv)])

    return entry


# ----------------------------------------------------------------------
# Shared option groups (argparse parents, built fresh per command)
# ----------------------------------------------------------------------


def _name_value(text: str) -> tuple[str, float]:
    """Parse one ``name=value`` item (``--param``, ``--bias``)."""
    name, separator, value = text.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{name!r}: non-numeric value {value!r}"
        ) from None


def _group(*adders) -> argparse.ArgumentParser:
    """A parent parser holding the options that *adders* declare."""
    group = argparse.ArgumentParser(add_help=False)
    for adder in adders:
        adder(group.add_argument)
    return group


def _runner_options(add) -> None:
    """Batch-runner knobs; each overrides its ``[batch]`` key."""
    add("--workers", type=int, help="worker count (default: CPU count)")
    choices = ("process", "thread", "serial")
    add("--executor", choices=choices, help="execution backend (default: process)")
    add("--seed", type=int, help="base RNG seed (default: 0)")
    add(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="per-job wall-clock limit; a hung worker is killed (default: none)",
    )
    add(
        "--retries",
        type=int,
        metavar="N",
        help="extra attempts on transient failures, under the original seeds",
    )


def _vr_options(add) -> None:
    """Variance-reduction knobs for ensemble jobs and sweep points."""
    add(
        "--antithetic",
        action="store_true",
        default=None,
        help="simulate mirrored path pairs (exact for linear responses)",
    )
    add(
        "--control-variate",
        action="store_true",
        default=None,
        help="pair ensemble_transient paths with a linearized control (batch only)",
    )
    add(
        "--target-ci",
        type=float,
        metavar="WIDTH",
        help="stop once the CI half-width is at most WIDTH",
    )
    add(
        "--target-rel-ci",
        type=float,
        metavar="FRACTION",
        help="stop once the CI half-width is at most FRACTION of the peak mean",
    )
    add("--max-trials", type=int, metavar="K", help="never simulate more than K paths")


def _cache_option(add) -> None:
    add(
        "--cache",
        nargs="?",
        const="",
        metavar="PATH",
        help="serve results from the result store at PATH (or the default store)",
    )


def _design_options(add) -> None:
    """The design an ac/pss run analyses, and how its tables print."""
    add("netlist", nargs="?", help="netlist file (or use --template)")
    add("--template", help="registered circuits_lib template name")
    add(
        "--param",
        action="append",
        type=_name_value,
        default=[],
        metavar="NAME=VALUE",
        help="template/netlist parameter override (repeatable)",
    )
    add("--node", help="observed node (default: last node)")
    add("--rows", type=int, default=15, help="table rows to print (default 15)")


def _backend_option(add) -> None:
    from repro.core.backends import available_backends

    add("--backend", choices=available_backends(), help="solver backend")


def _validate_option(add) -> None:
    add("--validate", choices=VALIDATE_MODES, help="pre-flight lint gating")


def _socket_option(add) -> None:
    add("--socket", metavar="PATH", help="daemon socket (default: in the store root)")


def _store_option(add) -> None:
    add("--store", metavar="PATH", help="result store root (default: REPRO_CACHE_DIR)")


# ----------------------------------------------------------------------
# The parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Nano-Sim SWEC circuit simulation tools."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, *adders, subcommands=commands, help=None):
        parents = [_group(*adders)]
        sub = subcommands.add_parser(name, parents=parents, help=help, description=help)
        sub.set_defaults(handler=handler, parser=sub)
        return sub.add_argument, sub

    add, batch = command(
        "batch",
        _batch,
        _runner_options,
        _vr_options,
        _cache_option,
        help="run a job-spec file in parallel; runner flags override [batch]",
    )
    add("spec", help="job-spec file (.toml or .json)")
    batch.set_defaults(antithetic=False, control_variate=False)

    add, _ = command(
        "sweep",
        _sweep,
        _runner_options,
        _vr_options,
        _cache_option,
        _backend_option,
        _validate_option,
        help="run a parametric sweep in parallel; runner flags override [batch]",
    )
    add("spec", nargs="?", help="sweep-spec file (.toml or .json)")
    add("--vector", type=int, metavar="N", help="design points per lockstep march")
    add(
        "--resume",
        nargs="?",
        const="",
        metavar="PATH",
        help="resume an interrupted sweep from its checkpoint store",
    )
    add(
        "--isolate",
        action="store_true",
        default=None,
        help="re-run a failed lockstep block point by point",
    )
    add("--csv", metavar="PATH", help="write the tidy table as CSV")
    add("--json", metavar="PATH", help="write the full report as JSON")
    add("--list-templates", action="store_true", help="list sweep templates and exit")

    add, _ = command(
        "ac",
        _ac,
        _design_options,
        _backend_option,
        help="small-signal AC (and Johnson noise) analysis",
    )
    add("--source", help="AC-driven source (default: first source)")
    add(
        "--bias",
        action="append",
        type=_name_value,
        default=[],
        metavar="SOURCE=VALUE",
        help="DC bias override for a source (repeatable)",
    )
    add("--start", type=float, default=1e3, help="first frequency in Hz (default 1e3)")
    add("--stop", type=float, default=1e9, help="last frequency in Hz (default 1e9)")
    add("--points", type=int, default=101, help="points (per decade: --scale decade)")
    scales = ("linear", "log", "decade")
    add("--scale", choices=scales, default="log", help="grid spacing (default log)")
    add("--noise", action="store_true", help="also compute the Johnson noise spectrum")
    add("--temperature", type=float, default=300.0, help="noise temperature in kelvin")
    add("--csv", metavar="PATH", help="write the Bode table as CSV")

    add, pss = command(
        "pss",
        _pss,
        _design_options,
        _backend_option,
        _validate_option,
        help="periodic steady-state (shooting-Newton) analysis",
    )
    add("--period", type=float, help="drive period in s (default: from the sources)")
    add("--period-guess", type=float, help="rough period in s (autonomous mode)")
    add("--steps", type=int, default=400, help="steps per period (default 400)")
    add("--tol", type=float, default=1e-9, help="periodicity tolerance (default 1e-9)")
    add("--max-iter", type=int, default=10, help="Newton iteration cap (default 10)")
    add("--phase-node", help="node pinned by the autonomous phase condition")
    add("--json", action="store_true", help="print a JSON summary instead of tables")
    pss.set_defaults(validate="off")

    add, _ = command("lint", _lint, help="static topology lint of netlist files")
    add("files", nargs="*", type=Path, help="netlist file(s) to lint")
    add("--json", action="store_true", help="emit one JSON array of reports")
    severities = ("error", "warning", "info")
    add("--fail-on", choices=severities, default="error", help="exit 1 from this level")
    add(
        "--param",
        action="append",
        type=_name_value,
        default=[],
        metavar="NAME=VALUE",
        help=".PARAM override applied to every file (repeatable)",
    )
    add("--list-checks", action="store_true", help="print the check registry and exit")

    service = commands.add_parser("service", help="job daemon and result cache")
    actions = service.add_subparsers(dest="action", required=True)
    add, _ = command(
        "serve",
        _serve,
        _socket_option,
        _store_option,
        subcommands=actions,
        help="run the job daemon",
    )
    add("--workers", type=int, help="worker pool width (default: CPU count)")
    flavours = ("process", "thread")
    add("--executor", choices=flavours, default="process", help="worker pool flavour")
    add(
        "--progress-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="heartbeat period for running jobs (default: 1.0)",
    )
    add, _ = command(
        "submit",
        _submit,
        _socket_option,
        subcommands=actions,
        help="submit a job-spec file to a running daemon",
    )
    add("spec", help="job-spec file (.toml or .json)")
    add("--seed", type=int, default=0, help="RNG seed per job (default: 0)")
    add("--no-cache", action="store_true", help="bypass the result cache")
    add("--timeout", type=float, default=300.0, help="socket read timeout in s")
    add("--json", metavar="PATH", help="write the final event list as JSON")
    add("--quiet", action="store_true", help="suppress running heartbeats")
    add, _ = command(
        "status",
        _status,
        _socket_option,
        subcommands=actions,
        help="print a running daemon's counters",
    )
    add("--timeout", type=float, default=30.0, help="socket read timeout in s")
    add, _ = command(
        "gc",
        _gc,
        _store_option,
        subcommands=actions,
        help="garbage-collect a result store on disk",
    )
    add("--max-age-days", type=float, metavar="DAYS", help="evict older entries")
    add("--max-entries", type=int, metavar="N", help="keep at most N entries")
    return parser


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------


def _job_tables(spec: dict) -> list:
    """The ``[[jobs]]`` tables of a job-spec document (never empty)."""
    tables = spec.get("jobs", [])
    if not tables:
        raise AnalysisError("job-spec file defines no [[jobs]] entries")
    return tables


def _apply_vr_overrides(jobs: list, args) -> list:
    """Apply the variance-reduction flags to the ensemble jobs.

    Overrides land on every ``ensemble`` and ``ensemble_transient``
    job (``--control-variate`` on the latter only: SDE ensembles are
    linear by construction, so a linearized control is the signal
    itself).  Other jobs pass through; a spec with no ensemble job is
    an error, because the flags would silently do nothing.
    """
    from repro.runtime.jobs import EnsembleJob, EnsembleTransientJob

    overrides = {
        key: getattr(args, key)
        for key in ("target_ci", "target_rel_ci", "max_trials")
        if getattr(args, key) is not None
    }
    if args.antithetic:
        overrides["antithetic"] = True
    if not overrides and not args.control_variate:
        return jobs
    updated = []
    touched = 0
    for job in jobs:
        if isinstance(job, EnsembleTransientJob):
            extra = {"control_variate": True} if args.control_variate else {}
            job = dataclasses.replace(job, **overrides, **extra)
            touched += 1
        elif isinstance(job, EnsembleJob):
            if args.control_variate:
                raise AnalysisError(
                    "--control-variate applies to ensemble_transient "
                    "jobs (SDE ensembles are linear, so the linearized "
                    "control is the signal itself)"
                )
            job = dataclasses.replace(job, **overrides)
            touched += 1
        updated.append(job)
    if not touched:
        raise AnalysisError(
            "variance-reduction flags (--antithetic/--control-variate/"
            "--target-ci/--target-rel-ci/--max-trials) need at least "
            "one ensemble or ensemble_transient job in the spec"
        )
    return updated


def _batch(args) -> int:
    from repro.runtime.jobs import job_from_mapping, load_spec
    from repro.runtime.runner import BatchRunner

    spec = load_spec(args.spec)
    jobs = [job_from_mapping(table) for table in _job_tables(spec)]
    jobs = _apply_vr_overrides(jobs, args)
    runner = BatchRunner.from_table(
        spec.get("batch", {}),
        workers=args.workers,
        executor=args.executor,
        seed=args.seed,
        timeout=args.timeout,
        retries=args.retries,
    )
    if args.cache is not None:
        from repro.service import ResultStore, run_batch_cached

        report = run_batch_cached(runner, jobs, ResultStore.resolve(args.cache))
    else:
        report = runner.run(jobs)
    print(report.summary())
    for result in report.results:
        value = result.value
        if result.ok and hasattr(value, "stopped_early"):
            print(
                f"  vr[{result.index}] {result.label}: "
                f"n_simulated={value.n_simulated} "
                f"n_batches={value.n_batches} "
                f"stopped_early={value.stopped_early} "
                f"variance_reduction={value.variance_reduction:.3g}"
            )
    for result in report.failures():
        if result.traceback:
            print(
                f"\n--- traceback [{result.index}] {result.label} ---",
                file=sys.stderr,
            )
            print(result.traceback, file=sys.stderr)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def _template_table() -> str:
    """The ``sweep --list-templates`` table text."""
    from repro.circuits_lib.templates import TEMPLATES

    lines = ["registered sweep templates:"]
    width = max(len(name) for name in TEMPLATES)
    for name in sorted(TEMPLATES):
        template = TEMPLATES[name]
        lines.append(f"  {name:<{width}}  [{template.kind:>7}]  {template.description}")
        lines.append(
            f"  {'':<{width}}             sweepable: "
            f"{', '.join(template.sweepable)}"
        )
    return "\n".join(lines)


def _sweep(args) -> int:
    if args.list_templates:
        print(_template_table())
        return 0
    if args.spec is None:
        args.parser.error("a sweep-spec file is required (or use --list-templates)")
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import load_sweep_spec

    overrides = (
        "executor seed vector backend cache validate timeout retries resume "
        "isolate antithetic control_variate target_ci target_rel_ci max_trials"
    ).split()
    report = run_sweep(
        load_sweep_spec(args.spec),
        max_workers=args.workers,
        **{key: getattr(args, key) for key in overrides},
    )
    print(report.summary())
    for row in report.failures():
        print(
            f"  point {row['index']} ({row['label']}): {row['error']}",
            file=sys.stderr,
        )
    if args.csv:
        report.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        report.to_json(args.json)
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# ac and pss: one design, printed as down-sampled tables
# ----------------------------------------------------------------------


def _design(args):
    """``(template, netlist_text)`` for the design an ac/pss run names.

    Exactly one of the netlist file and ``--template`` must be given;
    an unregistered template name comes back as ``None`` and fails
    later with the builder lookup's own error.
    """
    if args.netlist is not None and args.template is not None:
        args.parser.error("give a netlist file or --template, not both")
    if args.netlist is None and args.template is None:
        args.parser.error("a netlist file (or --template) is required")
    if args.netlist is not None:
        return None, Path(args.netlist).read_text()
    from repro.circuits_lib.templates import TEMPLATES

    return TEMPLATES.get(args.template), None


def _downsample(count: int, max_rows: int):
    """At most *max_rows* evenly spread row indices out of *count*."""
    import numpy as np

    return np.unique(np.linspace(0, count - 1, max_rows).astype(int))


def _ac(args) -> int:
    from repro.ac import ACAnalysis, frequency_grid
    from repro.runtime.jobs import materialize_circuit

    template, netlist = _design(args)
    source = args.source
    if source is None and template is not None:
        source = template.ac_source
    circuit = materialize_circuit(None, args.template, netlist, dict(args.param))
    # One ACAnalysis = one bias solve, shared by the Bode sweep and
    # the --noise spectra.
    analysis = ACAnalysis(
        circuit, source=source, bias=dict(args.bias), backend=args.backend
    )
    result = analysis.solve(
        frequency_grid(args.start, args.stop, args.points, args.scale)
    )
    node = args.node or result.node_names[-1]
    _print_bode(result, node, args.rows)
    _print_measures(result, node)
    if args.noise:
        noise = analysis.noise(result.frequencies, temperature=args.temperature)
        _print_noise(noise, node, args.rows)
    if args.csv:
        result.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _print_bode(result, node: str, max_rows: int) -> None:
    print(f"\nBode plot of V({node})/{result.source_name} ({len(result)} points):")
    print(f"  {'freq Hz':>12} {'|H| dB':>10} {'phase deg':>10}")
    rows = result.bode_rows(node)
    for k in _downsample(len(rows), max_rows):
        frequency, magnitude_db, phase = rows[k]
        print(f"  {frequency:>12.4g} {magnitude_db:>10.2f} {phase:>10.1f}")


def _print_measures(result, node: str) -> None:
    import numpy as np

    gain = abs(result.low_frequency_gain(node))
    level = f"{gain:.6g} ({20.0 * np.log10(gain):.2f} dB)" if gain > 0.0 else "0"
    print(f"\nderived measures at {node!r}:")
    print(f"  low-frequency gain   {level}")
    for label, method, unit, spec in (
        ("-3 dB bandwidth", result.bandwidth_3db, "Hz", ".6g"),
        ("unity-gain frequency", result.unity_gain_frequency, "Hz", ".6g"),
        ("phase margin", result.phase_margin, "deg", ".2f"),
    ):
        try:
            print(f"  {label:<20} {method(node):{spec}} {unit}")
        except AnalysisError as exc:
            print(f"  {label:<20} n/a ({exc})")


def _print_noise(noise, node: str, max_rows: int) -> None:
    psd = noise.psd(node)
    print(f"\nJohnson noise at {node!r} (T={noise.temperature:g} K):")
    print(f"  {'freq Hz':>12} {'S_v V^2/Hz':>12}")
    for k in _downsample(len(noise), max_rows):
        print(f"  {noise.frequencies[k]:>12.4g} {psd[k]:>12.4g}")
    print(
        f"  integrated RMS over the analysed band: "
        f"{noise.integrated_rms(node):.4g} V"
    )


def _pss(args) -> int:
    from repro.runtime.jobs import PSSJob

    template, netlist = _design(args)
    params = dict(args.param)
    node = args.node
    if template is not None:
        params = template.coerce(params)
        if node is None:
            node = template.default_node
    job = PSSJob(
        builder=args.template,
        netlist=netlist,
        params=params,
        period=args.period,
        period_guess=args.period_guess,
        steps_per_period=args.steps,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        phase_node=args.phase_node,
        backend=args.backend,
        validate=args.validate,
    )
    orbit = job.run()
    if node is None:
        node = orbit.node_names[-1]
    summary = _orbit_summary(orbit, node)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"periodic steady state ({orbit.mode}, backend {orbit.backend}):")
    print(f"  period        {orbit.period:.6e} s")
    print(f"  frequency     {orbit.frequency:.6e} Hz")
    print(f"  iterations    {orbit.iterations}")
    print(f"  residual      {orbit.residual:.3e}")
    if orbit.phase_node is not None:
        print(f"  phase node    {orbit.phase_node}")
    print(f"\nmeasures at {node!r}:")
    print(f"  mean          {summary['mean']:.6g} V")
    print(f"  amplitude     {summary['amplitude']:.6g} V")
    print(f"  peak-to-peak  {summary['peak_to_peak']:.6g} V")
    for order, magnitude in enumerate(summary["harmonics"], start=1):
        print(f"  |harmonic {order}|  {magnitude:.6g} V")
    print(f"\none period of V({node}) ({len(orbit)} points):")
    print(f"  {'t s':>12} {'V':>12}")
    voltage = orbit.voltage(node)
    for k in _downsample(len(orbit), args.rows):
        print(f"  {orbit.times[k]:>12.5g} {voltage[k]:>12.6g}")
    return 0


def _orbit_summary(orbit, node: str) -> dict:
    """The ``pss --json`` record; the text tables print from it too."""
    return {
        "mode": orbit.mode,
        "backend": orbit.backend,
        "period": orbit.period,
        "frequency": orbit.frequency,
        "iterations": orbit.iterations,
        "residual": orbit.residual,
        "residual_history": list(orbit.residual_history),
        "phase_node": orbit.phase_node,
        "node": node,
        "mean": orbit.mean(node),
        "amplitude": orbit.amplitude(node),
        "peak_to_peak": orbit.peak_to_peak(node),
        "harmonics": [
            orbit.harmonic_magnitude(node, order)
            for order in range(1, min(6, len(orbit) // 2))
        ],
        "flops": orbit.flops.total,
    }


# ----------------------------------------------------------------------
# lint
# ----------------------------------------------------------------------


def _check_table() -> str:
    """The ``lint --list-checks`` registry text."""
    from repro.lint.checks import CHECKS, PARSE_CHECK_IDS

    rows = [
        f"  {check.check_id:<22} {check.severity:<8} {check.title}"
        for check in CHECKS.values()
    ]
    rows.extend(
        f"  {check_id:<22} {'error':<8} {title}"
        for check_id, title in PARSE_CHECK_IDS.items()
    )
    return "registered checks:\n" + "\n".join(sorted(rows))


def _fails(report, threshold: str) -> bool:
    if threshold == "error":
        return report.errors > 0
    if threshold == "warning":
        return report.errors + report.warnings > 0
    return bool(report.diagnostics)


def _lint(args) -> int:
    from repro.lint.analyzer import lint_netlist

    if args.list_checks:
        print(_check_table())
        return 0
    if not args.files:
        args.parser.error("no netlist files given")
    params = dict(args.param)
    reports = []
    for path in args.files:
        try:
            text = path.read_text()
        except OSError as exc:
            raise OSError(f"cannot read {path}: {exc}") from exc
        reports.append(lint_netlist(text, params=params, name=str(path)))
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True))
    else:
        print("\n\n".join(r.render() for r in reports))
    return 1 if any(_fails(r, args.fail_on) for r in reports) else 0


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------


def _client(args):
    from repro.service.client import ServiceClient
    from repro.service.daemon import default_socket_path

    socket = args.socket if args.socket is not None else str(default_socket_path())
    return ServiceClient(socket, timeout=args.timeout)


def _serve(args) -> int:
    from repro.service.daemon import ServiceDaemon

    daemon = ServiceDaemon(
        socket_path=args.socket,
        store=args.store,
        max_workers=args.workers,
        executor=args.executor,
        progress_interval=args.progress_interval,
    )
    print(
        f"repro.service daemon: socket={daemon.socket_path} "
        f"store={daemon.store.root} executor={daemon.executor} "
        f"workers={daemon.max_workers}",
        flush=True,
    )
    daemon.run()
    return 0


def _submit(args) -> int:
    from repro.runtime.jobs import load_spec

    tables = _job_tables(load_spec(args.spec))
    client = _client(args)
    finals = []
    failures = 0
    for index, table in enumerate(tables):
        label = table.get("label", f"job-{index}")

        def show(event, label=label):
            if event.get("event") == "running" and not args.quiet:
                seconds = event.get("seconds")
                tick = f" ({seconds:.1f} s)" if seconds else ""
                print(f"  {label}: running{tick}", flush=True)

        final = client.submit(
            table, seed=args.seed, cache=not args.no_cache, on_event=show
        )
        finals.append(final)
        if final.get("event") == "done":
            source = "cache" if final.get("cached") else "pool"
            print(
                f"  {label}: done [{source}] {final.get('seconds', 0.0):.3f} s",
                flush=True,
            )
        else:
            failures += 1
            print(
                f"  {label}: FAILED: {final.get('error')}",
                file=sys.stderr,
                flush=True,
            )
    print(
        f"submitted {len(tables)} job(s): {len(tables) - failures} ok, "
        f"{failures} failed"
    )
    if args.json:
        Path(args.json).write_text(json.dumps(finals, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 1 if failures else 0


def _status(args) -> int:
    print(json.dumps(_client(args).status(), indent=2, sort_keys=True))
    return 0


def _gc(args) -> int:
    from repro.service.store import ResultStore

    max_age = None
    if args.max_age_days is not None:
        max_age = args.max_age_days * 86400.0
    stats = ResultStore(args.store).gc(
        max_age_seconds=max_age, max_entries=args.max_entries
    )
    print(stats.summary())
    return 0
