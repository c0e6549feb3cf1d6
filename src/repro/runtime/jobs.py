"""Job specifications for the batch runtime.

Five job flavours cover the workloads:

* :class:`TransientJob` — one deterministic transient simulation: a
  circuit (given directly or as a builder from
  :mod:`repro.circuits_lib`), an engine name, engine options and a
  ``t_stop``.
* :class:`EnsembleJob` — one seeded stochastic ensemble: an SDE (given
  directly or as a builder), Euler-Maruyama grid parameters and the
  ensemble size.
* :class:`ACJob` — one small-signal frequency sweep
  (:mod:`repro.ac`): a circuit plus the frequency grid, the AC-driven
  source and optional DC bias overrides.
* :class:`EnsembleTransientJob` — K same-topology circuit instances
  marched in lockstep by
  :class:`~repro.swec.ensemble.SwecEnsembleTransient`: per-instance
  parameter variations and/or seeded circuit-noise realizations, one
  batched solve per time point.
* :class:`PSSJob` — one periodic steady-state shooting analysis
  (:mod:`repro.pss`): the circuit plus period/convergence knobs,
  driven or autonomous.

Jobs are plain picklable dataclasses so they cross process boundaries.
Builders referenced *by name* are resolved inside the worker, which also
side-steps pickling limits of closure-carrying objects such as
:class:`~repro.stochastic.sde.CircuitSDE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, ClassVar, Mapping, Sequence

import numpy as np

from repro.errors import AnalysisError


def apply_backend(options: Any, backend: str | None):
    """Fold a job-level ``backend=`` into SWEC engine options.

    *options* may be None, a flat mapping (the CLI form) or a built
    :class:`~repro.swec.SwecOptions`; returns the options with
    ``backend`` set (the job-level knob wins over the options table).
    """
    if backend is None:
        return options
    from repro.core.backends import available_backends
    from repro.swec import SwecOptions

    if backend not in available_backends():
        raise AnalysisError(
            f"unknown solver backend {backend!r} "
            f"(available: {', '.join(available_backends())})"
        )
    if options is None:
        return SwecOptions(backend=backend)
    if isinstance(options, Mapping):
        return {**dict(options), "backend": backend}
    return replace(options, backend=backend)


def _resolve_circuit_builder(name: str) -> Callable:
    """Look up a circuit builder by name in :mod:`repro.circuits_lib`."""
    import repro.circuits_lib as lib

    builder = getattr(lib, name, None)
    if builder is None or not callable(builder):
        raise AnalysisError(
            f"unknown circuit builder {name!r} "
            f"(available: {', '.join(lib.__all__)})"
        )
    return builder


def _resolve_sde_builder(name: str) -> Callable:
    """Look up an SDE builder by name."""
    builder = SDE_BUILDERS.get(name)
    if builder is None:
        raise AnalysisError(
            f"unknown SDE builder {name!r} "
            f"(available: {', '.join(sorted(SDE_BUILDERS))})"
        )
    return builder


def _first(value):
    """Unwrap ``(object, info)`` builder conventions."""
    if isinstance(value, tuple):
        return value[0]
    return value


def as_circuit(built):
    """Unwrap builders that return a ``CircuitSDE``-like object.

    The noisy-RC builders return an SDE wrapping the circuit; the
    lockstep engine and the lint gate act on the circuit itself (the
    noise term is re-injected via ``noise=``).
    """
    from repro.circuit.netlist import Circuit

    if not isinstance(built, Circuit) and hasattr(built, "circuit"):
        return built.circuit
    return built


def materialize_circuit(circuit, builder, netlist, params):
    """Shared circuit/builder/netlist resolution for circuit jobs.

    Exactly one of *circuit* (a ready object), *builder* (a callable
    or :mod:`repro.circuits_lib` name) or *netlist* (source text) may
    be non-None; *params* feeds the builder or the ``.PARAM``
    overrides.  The AC CLI uses this directly.
    """
    if circuit is not None:
        return circuit
    if netlist is not None:
        from repro.circuit.parser import parse_netlist

        return parse_netlist(netlist, params=params)
    if isinstance(builder, str):
        builder = _resolve_circuit_builder(builder)
    return _first(builder(**params))


def _linear_sde(
    decay_rate: float = 1.0,
    noise_amplitude: float = 0.1,
    drift_level: float = 0.0,
):
    """Scalar OU-form ``dX = (a - lambda X) dt + sigma dW`` as a LinearSDE."""
    from repro.stochastic.sde import LinearSDE

    return LinearSDE(
        [[-float(decay_rate)]],
        [[float(noise_amplitude)]],
        drift_offset=[float(drift_level)],
    )


def _noisy_rc_sde(**params):
    from repro.circuits_lib import noisy_rc_node

    return noisy_rc_node(**params)[0]


def _noisy_rc_ladder_sde(**params):
    from repro.circuits_lib import noisy_rc_ladder

    return noisy_rc_ladder(**params)[0]


#: SDE builders addressable by name from job-spec files.
SDE_BUILDERS: dict[str, Callable] = {
    "ornstein_uhlenbeck": _linear_sde,
    "noisy_rc_node": _noisy_rc_sde,
    "noisy_rc_ladder": _noisy_rc_ladder_sde,
}


def _swec_options(mapping: Mapping[str, Any]):
    """Build :class:`SwecOptions` from a flat mapping.

    Step-control keys (``epsilon``, ``h_min``, ...) are routed into the
    nested :class:`StepControlOptions`; the rest go to ``SwecOptions``.
    """
    from repro.swec import SwecOptions
    from repro.swec.timestep import StepControlOptions

    step_keys = {f.name for f in fields(StepControlOptions)}
    step_kwargs = {k: v for k, v in mapping.items() if k in step_keys}
    engine_kwargs = {k: v for k, v in mapping.items() if k not in step_keys}
    return SwecOptions(step=StepControlOptions(**step_kwargs), **engine_kwargs)


def _one_of(names: Sequence[str]) -> str:
    """``'a', 'b' or 'c'`` for error messages."""
    quoted = [repr(name) for name in names]
    return f"{', '.join(quoted[:-1])} or {quoted[-1]}"


#: Legal values of every ``validate=`` knob: runtime jobs, sweep specs,
#: the lint gate (:mod:`repro.lint.gate`) and the CLI.
VALIDATE_MODES = ("off", "warn", "strict")


def check_validate_mode(mode: str, error_class: type = AnalysisError) -> str:
    """Reject a bad ``validate=`` value with *error_class*; return it."""
    if mode not in VALIDATE_MODES:
        raise error_class(f"validate must be {_one_of(VALIDATE_MODES)}, got {mode!r}")
    return mode


def _enforce_validate(job) -> None:
    """Apply a job's ``validate=`` knob at the top of ``run``."""
    if job.validate != "off":
        from repro.lint.gate import enforce_job_lint

        enforce_job_lint(job, job.validate)


def _engine_factory(engine: str) -> tuple[Callable, Callable]:
    """Return ``(engine_class, options_from_dict)`` for an engine name."""
    if engine == "swec":
        from repro.swec import SwecTransient

        return SwecTransient, _swec_options
    if engine == "spice":
        from repro.baselines import SpiceTransient
        from repro.baselines.spice import SpiceOptions

        return SpiceTransient, lambda m: SpiceOptions(**m)
    if engine == "mla":
        from repro.baselines import MlaTransient
        from repro.baselines.mla import MlaOptions

        return MlaTransient, lambda m: MlaOptions(**m)
    if engine == "aces":
        from repro.baselines import AcesTransient
        from repro.baselines.aces import AcesOptions

        return AcesTransient, lambda m: AcesOptions(**m)
    raise AnalysisError(
        f"unknown engine {engine!r} (expected swec, spice, mla or aces)"
    )


@dataclass
class TransientJob:
    """One deterministic transient simulation.

    Exactly one of ``circuit`` (a ready :class:`~repro.circuit.Circuit`),
    ``builder`` (a callable, or the name of a :mod:`repro.circuits_lib`
    builder, invoked with ``params``) or ``netlist`` (SPICE-dialect
    source text, parsed with ``params`` as ``.PARAM`` overrides inside
    the worker) must be given.  Builders returning ``(circuit, info)``
    tuples are unwrapped.
    """

    #: Spec-file ``type=`` tag; the cache layer records it
    #: with every stored result (:mod:`repro.service`).
    kind: ClassVar[str] = "transient"

    t_stop: float
    circuit: Any = None
    builder: str | Callable | None = None
    netlist: str | None = None
    params: dict = field(default_factory=dict)
    engine: str = "swec"
    options: Any = None
    initial_state: Sequence[float] | None = None
    #: Solver backend for the SWEC engine (``dense``/``sparse``/
    #: ``stack``/``auto``); overrides any ``options`` setting.
    backend: str | None = None
    label: str = ""
    #: Pre-flight lint mode (``off``/``warn``/``strict``); ``strict``
    #: makes ``run`` raise :class:`~repro.errors.LintError` on a
    #: structurally broken design before any engine is built.
    validate: str = "off"

    def __post_init__(self) -> None:
        given = sum(
            source is not None
            for source in (self.circuit, self.builder, self.netlist)
        )
        if given != 1:
            raise AnalysisError(
                "TransientJob needs exactly one of circuit=, builder= "
                "or netlist="
            )
        if self.backend is not None and self.engine != "swec":
            raise AnalysisError(
                f"backend= applies to the swec engine only, not {self.engine!r}"
            )
        check_validate_mode(self.validate)

    def build_circuit(self):
        """Materialize the circuit this job simulates."""
        return materialize_circuit(
            self.circuit, self.builder, self.netlist, self.params
        )

    def run(self, seed: np.random.SeedSequence | None = None):
        """Execute the job; *seed* is unused (transients are
        deterministic) but accepted for a uniform job interface."""
        _enforce_validate(self)
        engine_class, options_from_dict = _engine_factory(self.engine)
        options = apply_backend(self.options, self.backend)
        if isinstance(options, Mapping):
            options = options_from_dict(dict(options))
        engine = engine_class(self.build_circuit(), options)
        kwargs = {}
        if self.initial_state is not None:
            kwargs["initial_state"] = np.asarray(self.initial_state, float)
        return engine.run(self.t_stop, **kwargs)


@dataclass
class ACJob:
    """One small-signal AC frequency sweep (:mod:`repro.ac`).

    The circuit is given exactly like :class:`TransientJob` (one of
    ``circuit=``, ``builder=`` or ``netlist=``, with ``params``
    resolved inside the worker).  The frequency grid follows
    :func:`repro.ac.frequency_grid`: ``n_points`` on ``scale``
    (``"linear"``/``"log"``, or points per decade with ``"decade"``)
    between ``f_start`` and ``f_stop``.  ``source`` names the
    AC-driven independent source (default: the circuit's first),
    ``bias`` maps source names to DC operating-point overrides, and
    ``dc_options`` configures the bias solve
    (:class:`~repro.swec.dc.SwecDCOptions`, or a flat mapping).
    """

    #: Spec-file ``type=`` tag; the cache layer records it
    #: with every stored result (:mod:`repro.service`).
    kind: ClassVar[str] = "ac"

    f_start: float
    f_stop: float
    circuit: Any = None
    builder: str | Callable | None = None
    netlist: str | None = None
    params: dict = field(default_factory=dict)
    n_points: int = 101
    scale: str = "log"
    source: str | None = None
    bias: dict = field(default_factory=dict)
    dc_options: Any = None
    #: Solver backend for the frequency solves (``stack``/``sparse``/
    #: ``dense``/``auto``); default is the vectorized ``stack`` path.
    backend: str | None = None
    label: str = ""
    #: Pre-flight lint mode (``off``/``warn``/``strict``); see
    #: :class:`TransientJob`.
    validate: str = "off"

    def __post_init__(self) -> None:
        given = sum(
            source is not None
            for source in (self.circuit, self.builder, self.netlist)
        )
        if given != 1:
            raise AnalysisError(
                "ACJob needs exactly one of circuit=, builder= or netlist="
            )
        check_validate_mode(self.validate)

    def build_circuit(self):
        """Materialize the circuit this job analyses."""
        return materialize_circuit(
            self.circuit, self.builder, self.netlist, self.params
        )

    def run(self, seed: np.random.SeedSequence | None = None):
        """Execute the sweep; *seed* is unused (AC is deterministic)
        but accepted for a uniform job interface.  Returns an
        :class:`~repro.ac.ACResult`."""
        _enforce_validate(self)
        from repro.ac import ACAnalysis, frequency_grid
        from repro.swec.dc import SwecDCOptions

        dc_options = self.dc_options
        if isinstance(dc_options, Mapping):
            dc_options = SwecDCOptions(**dict(dc_options))
        analysis = ACAnalysis(
            self.build_circuit(),
            source=self.source,
            bias=self.bias,
            dc_options=dc_options,
            backend=self.backend,
        )
        return analysis.solve(
            frequency_grid(self.f_start, self.f_stop, self.n_points, self.scale)
        )


@dataclass
class EnsembleJob:
    """One seeded Euler-Maruyama ensemble.

    Exactly one of ``sde`` (a picklable
    :class:`~repro.stochastic.sde.LinearSDE`) or ``builder`` (a callable
    or an :data:`SDE_BUILDERS` name, invoked with ``params`` inside the
    worker) must be given.  The RNG seed is injected by the runner via
    deterministic ``SeedSequence`` spawning, so a batch reproduces
    bit-for-bit at any worker count; ``path_seeds`` instead pins one
    stream per path (one per *pair* with ``antithetic``) — the
    split-invariant form
    :func:`~repro.stochastic.montecarlo.run_ensemble_parallel` uses so
    chunked ensembles are bit-identical at any chunk count.

    Setting ``target_ci`` or ``target_rel_ci`` switches the job to the
    adaptive batched estimator of
    :func:`repro.stochastic.vr.run_sde_ensemble_vr`: paths run in
    ``batch_size`` batches until the confidence-interval target is met,
    with ``max_trials`` (default ``n_paths``) as the backstop.
    """

    #: Spec-file ``type=`` tag; the cache layer records it
    #: with every stored result (:mod:`repro.service`).
    kind: ClassVar[str] = "ensemble"

    t_final: float
    steps: int
    n_paths: int
    sde: Any = None
    builder: str | Callable | None = None
    params: dict = field(default_factory=dict)
    x0: Sequence[float] | None = None
    component: int = 0
    confidence: float = 0.95
    antithetic: bool = False
    return_paths: bool = False
    path_seeds: Any = None
    target_ci: float | None = None
    target_rel_ci: float | None = None
    max_trials: int | None = None
    batch_size: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if (self.sde is None) == (self.builder is None):
            raise AnalysisError("EnsembleJob needs exactly one of sde= or builder=")
        if self.path_seeds is not None:
            stride = 2 if self.antithetic else 1
            if len(self.path_seeds) * stride != self.n_paths:
                raise AnalysisError(
                    f"path_seeds carries {len(self.path_seeds)} streams for "
                    f"{self.n_paths} paths (expected one per "
                    f"{'pair' if self.antithetic else 'path'})"
                )
        if self._adaptive and (self.return_paths or self.path_seeds is not None):
            raise AnalysisError(
                "target_ci/target_rel_ci is incompatible with return_paths= "
                "and path_seeds= (the adaptive driver owns the path streams)"
            )

    @property
    def _adaptive(self) -> bool:
        return self.target_ci is not None or self.target_rel_ci is not None

    def build_sde(self):
        """Materialize the SDE this job integrates."""
        if self.sde is not None:
            return self.sde
        builder = self.builder
        if isinstance(builder, str):
            builder = _resolve_sde_builder(builder)
        return _first(builder(**self.params))

    def run(self, seed: np.random.SeedSequence | None = None):
        """Integrate the ensemble; returns
        :class:`~repro.stochastic.montecarlo.EnsembleStatistics`, or the
        raw :class:`~repro.stochastic.em.EMResult` with
        ``return_paths=True``."""
        from repro.stochastic.em import euler_maruyama
        from repro.stochastic.montecarlo import ensemble_statistics

        sde = self.build_sde()
        x0 = (
            np.zeros(sde.dimension)
            if self.x0 is None
            else np.asarray(self.x0, dtype=float)
        )
        if self._adaptive:
            from repro.stochastic.vr import run_sde_ensemble_vr

            return run_sde_ensemble_vr(
                sde,
                x0,
                self.t_final,
                self.steps,
                component=self.component,
                confidence=self.confidence,
                antithetic=self.antithetic,
                target_ci=self.target_ci,
                target_rel_ci=self.target_rel_ci,
                max_trials=self.max_trials or self.n_paths,
                batch_size=self.batch_size,
                seed=seed,
            )
        if self.path_seeds is not None:
            from repro.stochastic.vr import antithetic_normals, path_normals

            draw = antithetic_normals if self.antithetic else path_normals
            normals = draw(self.path_seeds, self.steps, sde.num_noises)
            dw = normals * np.sqrt(self.t_final / self.steps)
            result = euler_maruyama(
                sde, x0, self.t_final, self.steps, n_paths=self.n_paths, dw=dw
            )
        else:
            result = euler_maruyama(
                sde,
                x0,
                self.t_final,
                self.steps,
                n_paths=self.n_paths,
                rng=np.random.default_rng(seed),
                antithetic=self.antithetic,
            )
        if self.return_paths:
            return result
        return ensemble_statistics(
            result.times, result.component(self.component), self.confidence
        )


@dataclass
class EnsembleTransientJob:
    """One lockstep transient ensemble over K same-topology instances.

    The base design is given exactly like :class:`TransientJob` (one
    of ``circuit=``, ``builder=`` or ``netlist=``, with shared
    ``params``).  Instances come from either

    * ``variations`` — a sequence of K per-instance parameter override
      mappings, each merged over ``params`` and fed to the builder /
      ``.PARAM`` substitution inside the worker, and/or
    * ``n_instances`` — a plain replication count (the circuit-noise
      Monte-Carlo form).

    ``steps`` selects the fixed uniform grid of ``steps``
    backward-Euler points over ``[0, t_stop]`` (required when
    ``noise`` injections are present; omitted, the adaptive worst-case
    grid is used).  ``noise`` lists ``(node, amplitude)`` white-noise
    current injections; ``path_seeds`` pins one RNG stream per
    instance (the split-invariant form used by
    :func:`~repro.stochastic.montecarlo.run_circuit_ensemble_parallel`),
    otherwise the runner-provided seed is spawned into K children.

    The job returns the raw
    :class:`~repro.swec.ensemble.EnsembleTransientResult` when
    ``return_result=True`` or ``node`` is unset; with ``node=`` it is
    reduced worker-side to
    :class:`~repro.stochastic.montecarlo.EnsembleStatistics` of that
    node's voltage, so the process boundary carries three small arrays
    instead of the ``(K, T, n)`` stack.

    The variance-reduction knobs mirror
    :func:`~repro.stochastic.montecarlo.run_circuit_ensemble`:
    ``antithetic`` mirrors the Gaussian increments in pairs
    (``path_seeds`` then pins one stream per *pair*), while
    ``control_variate`` and ``target_ci``/``target_rel_ci`` switch the
    job to the adaptive batched estimator of
    :func:`repro.stochastic.vr.run_circuit_ensemble_vr` (which needs
    ``noise``, ``steps`` and ``node``, and returns
    :class:`~repro.stochastic.vr.VarianceReducedStatistics`).  All new
    fields participate in the service-cache fingerprint
    (:func:`repro.service.job_key`) like every other dataclass field.
    """

    #: Spec-file ``type=`` tag; the cache layer records it
    #: with every stored result (:mod:`repro.service`).
    kind: ClassVar[str] = "ensemble_transient"

    t_stop: float
    circuit: Any = None
    builder: str | Callable | None = None
    netlist: str | None = None
    params: dict = field(default_factory=dict)
    variations: Sequence[Mapping[str, Any]] | None = None
    n_instances: int | None = None
    steps: int | None = None
    noise: Any = None
    options: Any = None
    initial_states: Any = None
    node: str | None = None
    confidence: float = 0.95
    return_result: bool = False
    path_seeds: Any = None
    #: Solver backend for the lockstep march (``stack``/``sparse``/
    #: ``dense``/``auto``); overrides any ``options`` setting.
    backend: str | None = None
    control_variate: bool = False
    antithetic: bool = False
    target_ci: float | None = None
    target_rel_ci: float | None = None
    max_trials: int | None = None
    batch_size: int | None = None
    label: str = ""
    #: Pre-flight lint mode (``off``/``warn``/``strict``); every
    #: distinct variation is linted — see :class:`TransientJob`.
    validate: str = "off"

    def __post_init__(self) -> None:
        check_validate_mode(self.validate)
        given = sum(
            source is not None
            for source in (self.circuit, self.builder, self.netlist)
        )
        if given != 1:
            raise AnalysisError(
                "EnsembleTransientJob needs exactly one of circuit=, "
                "builder= or netlist="
            )
        if self.variations is not None:
            self.variations = [dict(v) for v in self.variations]
            if not self.variations:
                raise AnalysisError("variations= must not be empty")
            if self.circuit is not None:
                raise AnalysisError(
                    "variations need a builder= or netlist= base "
                    "(a ready circuit cannot be re-parameterized)"
                )
            count = self.n_instances
            if count is not None and count != len(self.variations):
                raise AnalysisError(
                    f"n_instances={count} does not match "
                    f"{len(self.variations)} variations"
                )
        elif self.n_instances is None:
            raise AnalysisError(
                "EnsembleTransientJob needs variations= and/or n_instances="
            )
        elif self.n_instances < 1:
            raise AnalysisError(f"n_instances must be >= 1, got {self.n_instances!r}")
        self._check_vr()
        if self.noise is not None and self.steps is None:
            raise AnalysisError("noise ensembles need steps= (a fixed shared grid)")
        if self.steps is not None and self.steps < 1:
            raise AnalysisError(f"steps must be >= 1, got {self.steps!r}")

    @property
    def _vr_adaptive(self) -> bool:
        return (
            self.control_variate
            or self.target_ci is not None
            or self.target_rel_ci is not None
        )

    def _check_vr(self) -> None:
        if not self._vr_adaptive and not self.antithetic:
            return
        if self.noise is None:
            raise AnalysisError(
                "variance reduction applies to noise ensembles: add noise="
            )
        if self.variations is not None:
            raise AnalysisError(
                "variance reduction needs i.i.d. replicas: use n_instances=, "
                "not variations="
            )
        if self.antithetic:
            if self.size % 2:
                raise AnalysisError(
                    f"antithetic ensembles need an even instance count, "
                    f"got {self.size}"
                )
            if self.path_seeds is not None and len(self.path_seeds) != self.size // 2:
                raise AnalysisError(
                    f"antithetic path_seeds carries one stream per pair: "
                    f"expected {self.size // 2}, got {len(self.path_seeds)}"
                )
        if self._vr_adaptive:
            if self.node is None:
                raise AnalysisError(
                    "adaptive/control-variate ensembles need node= "
                    "(the measured quantity the stopping rule watches)"
                )
            if self.return_result:
                raise AnalysisError(
                    "return_result= is incompatible with variance reduction "
                    "(the raw path stack is consumed batch by batch)"
                )
            if self.path_seeds is not None:
                raise AnalysisError(
                    "the adaptive driver owns the path streams: drop path_seeds="
                )

    @property
    def size(self) -> int:
        """Number of instances this job marches."""
        if self.variations is not None:
            return len(self.variations)
        return int(self.n_instances)

    def build_circuits(self) -> list:
        """Materialize the K circuit instances."""
        if self.variations is not None:
            circuits = []
            for overrides in self.variations:
                params = {**self.params, **overrides}
                built = materialize_circuit(None, self.builder, self.netlist, params)
                circuits.append(as_circuit(built))
            return circuits
        built = materialize_circuit(
            self.circuit, self.builder, self.netlist, self.params
        )
        return [as_circuit(built)] * self.size

    def _noise_pairs(self):
        if self.noise is None:
            return None
        if isinstance(self.noise, Mapping):
            return list(self.noise.items())
        return [tuple(entry) for entry in self.noise]

    def run(self, seed: np.random.SeedSequence | None = None):
        """March the ensemble; see the class docstring for the
        return-value contract."""
        _enforce_validate(self)
        from repro.stochastic.montecarlo import ensemble_statistics
        from repro.swec.ensemble import SwecEnsembleTransient

        options = apply_backend(self.options, self.backend)
        if isinstance(options, Mapping):
            options = _swec_options(dict(options))
        noise = self._noise_pairs()
        if self._vr_adaptive:
            from repro.stochastic.vr import run_circuit_ensemble_vr

            built = materialize_circuit(
                self.circuit, self.builder, self.netlist, self.params
            )
            return run_circuit_ensemble_vr(
                as_circuit(built),
                noise,
                self.t_stop,
                self.steps,
                node=self.node,
                seed=seed,
                options=options,
                confidence=self.confidence,
                control_variate=self.control_variate,
                antithetic=self.antithetic,
                target_ci=self.target_ci,
                target_rel_ci=self.target_rel_ci,
                max_trials=self.max_trials or self.size,
                batch_size=self.batch_size,
            )
        engine = SwecEnsembleTransient(self.build_circuits(), options, noise=noise)
        kwargs = {}
        if self.initial_states is not None:
            kwargs["initial_states"] = np.asarray(self.initial_states, float)
        if self.steps is None:
            result = engine.run(self.t_stop, **kwargs)
        elif self.antithetic:
            from repro.stochastic.vr import antithetic_normals

            times = np.linspace(0.0, float(self.t_stop), int(self.steps) + 1)
            pair_seeds = self.path_seeds
            if pair_seeds is None:
                source = seed if seed is not None else np.random.SeedSequence()
                pair_seeds = source.spawn(self.size // 2)
            normals = antithetic_normals(pair_seeds, int(self.steps), len(noise))
            result = engine.run_grid(times, normals=normals, **kwargs)
        else:
            times = np.linspace(0.0, float(self.t_stop), int(self.steps) + 1)
            seeds = self.path_seeds
            if seeds is None and noise is not None and seed is not None:
                seeds = seed.spawn(self.size)
            result = engine.run_grid(times, seeds=seeds, **kwargs)
        if self.return_result or self.node is None:
            return result
        return ensemble_statistics(
            result.times, result.voltage(self.node), self.confidence
        )


@dataclass
class PSSJob:
    """One periodic steady-state (shooting) analysis (:mod:`repro.pss`).

    The circuit is given exactly like :class:`TransientJob` (one of
    ``circuit=``, ``builder=`` or ``netlist=``, with ``params``
    resolved inside the worker).  ``period=`` forces driven mode,
    ``period_guess=`` autonomous mode; with neither, the drive period
    is auto-detected from the periodic source waveforms.  The
    remaining knobs mirror :class:`~repro.pss.PSSOptions`.
    """

    #: Spec-file ``type=`` tag; the cache layer records it
    #: with every stored result (:mod:`repro.service`).
    kind: ClassVar[str] = "pss"

    circuit: Any = None
    builder: str | Callable | None = None
    netlist: str | None = None
    params: dict = field(default_factory=dict)
    period: float | None = None
    period_guess: float | None = None
    steps_per_period: int = 400
    tolerance: float = 1e-9
    max_iterations: int = 10
    phase_node: str | None = None
    settle_periods: float = 5.0
    refine_periods: int = 2
    options: Any = None
    #: Solver backend for every shooting march (``dense``/``sparse``/
    #: ``stack``/``auto``); overrides any ``options`` setting.
    backend: str | None = None
    label: str = ""
    #: Pre-flight lint mode (``off``/``warn``/``strict``); see
    #: :class:`TransientJob`.
    validate: str = "off"

    def __post_init__(self) -> None:
        given = sum(
            source is not None
            for source in (self.circuit, self.builder, self.netlist)
        )
        if given != 1:
            raise AnalysisError(
                "PSSJob needs exactly one of circuit=, builder= or netlist="
            )
        check_validate_mode(self.validate)

    def build_circuit(self):
        """Materialize the circuit this job analyses."""
        return materialize_circuit(
            self.circuit, self.builder, self.netlist, self.params
        )

    def run(self, seed: np.random.SeedSequence | None = None):
        """Execute the shooting analysis; *seed* is unused (PSS is
        deterministic) but accepted for a uniform job interface.
        Returns a :class:`~repro.pss.PSSResult`."""
        _enforce_validate(self)
        from repro.pss import PSSOptions, ShootingPSS

        options = PSSOptions(
            period=self.period,
            period_guess=self.period_guess,
            steps_per_period=self.steps_per_period,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            phase_node=self.phase_node,
            settle_periods=self.settle_periods,
            refine_periods=self.refine_periods,
            swec=self.options,
            backend=self.backend,
        )
        return ShootingPSS(self.build_circuit(), options).run()


#: Spec-file ``type=`` tag -> job class, keyed by each class's ``kind``.
JOB_KINDS: dict[str, type] = {
    job_class.kind: job_class
    for job_class in (TransientJob, EnsembleJob, ACJob, EnsembleTransientJob, PSSJob)
}


def job_from_mapping(
    spec: Mapping[str, Any],
) -> "TransientJob | EnsembleJob | ACJob | EnsembleTransientJob | PSSJob":
    """Build a job from one deserialized job-spec table (CLI path).

    ``type`` selects the :data:`JOB_KINDS` entry (default
    ``"transient"``).  A string ``circuit=`` (``sde=`` for
    ``ensemble`` jobs) names a builder; ``netlist`` passes through as
    source text.
    """
    spec = dict(spec)
    kind = spec.pop("type", "transient")
    job_class = JOB_KINDS.get(kind)
    if job_class is None:
        raise AnalysisError(
            f"unknown job type {kind!r} (expected {_one_of(list(JOB_KINDS))})"
        )
    source = "sde" if job_class is EnsembleJob else "circuit"
    value = spec.pop(source, None)
    if isinstance(value, str):
        spec["builder"] = value
    elif value is not None:
        spec[source] = value
    return job_class(**spec)


def load_spec(
    path: str | Path, error_class: type = AnalysisError, what: str = "job"
) -> dict:
    """Parse a ``.toml`` or ``.json`` spec file into a dict.

    A missing file, a TOML file on Python 3.10 (no :mod:`tomllib`) or
    a document that is not a table raises *error_class* naming the
    *what*-spec; malformed content raises the decoder's ``ValueError``.  Sweep specs
    (:func:`repro.sweep.load_sweep_spec`) share this reader.  The
    job-spec schema read by ``repro batch`` and ``repro service
    submit``::

        [batch]                # all keys optional
        workers = 4
        executor = "process"   # process | thread | serial
        seed = 42
        timeout = 120.0        # per-job wall-clock limit (seconds)
        retries = 2            # extra attempts for transient failures

        [[jobs]]
        type = "transient"     # default
        label = "inverter"
        circuit = "fet_rtd_inverter"   # repro.circuits_lib builder name
        t_stop = 1e-8
        engine = "swec"                # swec | spice | mla | aces
        backend = "auto"               # SWEC solver backend: dense |
                                       # sparse | stack | auto
        [jobs.params]                  # builder keyword arguments
        [jobs.options]                 # flat engine + step-control options
        epsilon = 0.05
        h_max = 2e-10

        [[jobs]]
        type = "ensemble"
        label = "noise-band"
        sde = "noisy_rc_node"          # SDE builder name
        t_final = 5e-9
        steps = 2000
        n_paths = 400

        [[jobs]]
        type = "ensemble_transient"    # K instances per batched solve
        label = "inverter-corners"
        circuit = "fet_rtd_inverter"
        t_stop = 2e-8
        steps = 400                    # fixed grid (required with noise)
        node = "out"                   # reduce to EnsembleStatistics
        variations = [                 # and/or n_instances = K
            { load_capacitance = 0.5e-12 },
            { load_capacitance = 2e-12 },
        ]

    Each ``[[jobs]]`` table becomes a job through
    :func:`job_from_mapping`.  Noisy ensemble jobs accept the
    variance-reduction knobs of :mod:`repro.stochastic.vr` —
    ``antithetic``, ``target_ci``, ``target_rel_ci``, ``max_trials``,
    ``batch_size`` and (for ``ensemble_transient``) ``control_variate``
    — either as job keys or as the ``repro batch`` overrides
    ``--antithetic``/``--control-variate``/``--target-ci``/
    ``--target-rel-ci``/``--max-trials``, which apply to every ensemble
    job in the spec.
    """
    path = Path(path)
    if not path.exists():
        raise error_class(f"{what}-spec file not found: {path}")
    if path.suffix.lower() == ".json":
        import json

        document = json.loads(path.read_text())
    else:
        try:
            import tomllib
        except ImportError:  # Python 3.10: TOML needs 3.11+, JSON always works
            raise error_class(
                f"TOML {what} specs need Python 3.11+ (tomllib); "
                "use a .json spec on older interpreters"
            ) from None
        with open(path, "rb") as handle:
            document = tomllib.load(handle)
    if not isinstance(document, dict):
        raise error_class(f"{what} spec must be a table/object, got {type(document)}")
    return document
