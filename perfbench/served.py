"""The ``mc_served`` part: seed-generated jobs through the service daemon.

A :class:`~repro.service.ServiceDaemon` runs on a thread of this
process, on a socket and result store inside the checkout, with one
process-pool worker.  Two closed-loop :class:`~repro.service.ServiceClient`
threads (no more than ``nproc``) each send the next submission only
when the previous one has finished.

The traffic is the resubmission pattern that ``docs/service.md`` shows
and the CI ``service-smoke`` and ``vr-smoke`` steps run: a client
submits its job-spec list, then submits the same list again, so every
spec is one miss followed by one hit of the client's own completed
spec, and hits are half of the submissions.  Each client's list holds
a 16-instance inverter ``ensemble_transient``, a netlist-text
transient of ``examples/rtd_stage_family.cir`` and another ensemble,
with values from the seed; the order is fixed, so the misses meet the
single worker in the same pattern for every seed.  Specs carry the
round in their label, which is part of the fingerprint, so every
round starts from misses.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import threading
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.service import ResultStore, ServiceClient, ServiceDaemon, ServiceError
from workloads import Op, Runner

_FAST = {"epsilon": 0.1, "h_min": 1e-13, "h_max": 2e-10, "h_initial": 1e-12}
_ENSEMBLE_K = 16


class McServed:
    name = "mc_served"
    CLIENTS = 2
    WORKERS = 1
    #: Each client's job-spec list, in submission order.
    KINDS = ("ensemble", "netlist", "ensemble")

    def __init__(self, root: Path) -> None:
        self.netlist = (root / "examples" / "rtd_stage_family.cir").read_text()
        self.scratch = root / ".bench_out" / f"served-{os.getpid()}"
        self.clients = min(self.CLIENTS, os.cpu_count() or 1)
        self._starts = 0
        self.daemon = None
        self._thread = None

    # -- set-up: inputs, daemon start, one warm-up miss --------------------

    def setup(self, seed: int) -> None:
        self.plans = [self._plan(seed, k) for k in range(self.clients)]
        # Spawned workers import the package afresh: they inherit no
        # tracing wrappers from this process, and the fork-with-threads
        # hazard of the default start method does not arise.
        multiprocessing.set_start_method("spawn", force=True)
        self._starts += 1
        where = self.scratch / f"d{self._starts}"
        where.mkdir(parents=True, exist_ok=True)
        socket_path = where / "daemon.sock"
        if len(str(socket_path)) > 100:  # AF_UNIX path limit
            socket_path = Path(os.path.relpath(socket_path))
        self.socket = socket_path
        self.daemon = ServiceDaemon(socket_path=socket_path,
                                    store=ResultStore(where / "store"),
                                    max_workers=self.WORKERS, executor="process")
        ready = threading.Event()
        self._thread = threading.Thread(target=self.daemon.run,
                                        kwargs={"ready": ready}, daemon=True)
        self._thread.start()
        if not ready.wait(60):
            raise RuntimeError("service daemon did not start")
        warm = ServiceClient(self.socket, timeout=120).submit(
            {"type": "transient", "circuit": "rtd_divider", "t_stop": 0.5e-9,
             "params": {"resistance": 50.0}, "options": dict(_FAST),
             "label": "warm-up"})
        if warm.get("event") != "done" or warm.get("cached"):
            raise RuntimeError(f"warm-up submission did not run: {warm}")
        # The daemon counters a round's oracle compares against.
        self.status = ServiceClient(self.socket, timeout=60).status()

    def close(self) -> None:
        """Stop the daemon, wait for every process it started, and
        remove its socket and store."""
        if self.daemon is None:
            return
        from multiprocessing import resource_tracker

        try:
            ServiceClient(self.socket, timeout=30).shutdown()
        except ServiceError:
            pass
        self._thread.join(60)
        for child in multiprocessing.active_children():
            child.join(30)
            if child.is_alive():
                child.terminate()
                child.join(10)
        # Release the pool's semaphores while the tracker still runs,
        # or it reports them leaked and unlinks them under their owner.
        self.daemon = self._thread = None
        gc.collect()
        # The spawn start method runs a resource tracker process; stop
        # it too (the next pool start launches a fresh one).
        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- inputs ------------------------------------------------------------

    def _plan(self, seed: int, client: int) -> list[tuple[dict, int]]:
        """The client's job-spec list: ``(spec, job_seed)``, label unset."""
        rng = np.random.default_rng([seed, 5, client])
        plan = []
        for kind in self.KINDS:
            if kind == "netlist":
                spec = {"type": "transient", "netlist": self.netlist,
                        "t_stop": 4e-9, "options": dict(_FAST),
                        "params": {"rstage": float(40.0 * rng.uniform(0.9, 1.1)),
                                   "vdrive": float(1.2 * rng.uniform(0.95, 1.05)),
                                   "area": float(rng.uniform(0.9, 1.1))}}
            else:
                spec = {"type": "ensemble_transient", "circuit": "fet_rtd_inverter",
                        "t_stop": 10e-9, "steps": 400,
                        "variations": [
                            {"fet_vth": float(1.0 + rng.uniform(-0.05, 0.05)),
                             "load_capacitance": float(1e-12 * rng.uniform(0.8, 1.2))}
                            for _ in range(_ENSEMBLE_K)]}
            plan.append((spec, int(rng.integers(2**31))))
        return plan

    # -- one round ---------------------------------------------------------

    def round(self, runner: Runner, index: int) -> list[Op]:
        results: list[list] = [[] for _ in range(self.clients)]
        resubmit = threading.Barrier(self.clients, timeout=300)
        threads = [threading.Thread(target=self._client,
                                    args=(k, index, runner.tracer, results[k], resubmit))
                   for k in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for client_results in results:
            produced: dict[int, dict] = {}
            for op, final, spec_index in client_results:
                runner.defer(op, lambda op=op, final=final, i=spec_index, p=produced:
                             self._check(final, op, i, p))
        ops = [op for client_results in results for op, _, _ in client_results]
        misses = [op for op in ops if op.kind == "miss"]
        runner.defer(misses[0], lambda: self._check_counters(ops, misses))
        return ops

    def _client(self, k: int, round_index: int, tracer, results: list,
                resubmit: threading.Barrier) -> None:
        client = ServiceClient(self.socket, timeout=120)
        plan = self.plans[k]
        # The list, then the same list again: a miss, later its hit.
        for spec_index, (spec, job_seed) in [*enumerate(plan), *enumerate(plan)]:
            if len(results) == len(plan):
                # Both clients resubmit once both lists have run, as
                # two scripted runs of the submit-then-resubmit pattern
                # would; the misses then queue in the same order in
                # every round.
                resubmit.wait()
            kind = "hit" if len(results) >= len(plan) else "miss"
            table = {**spec, "label": f"c{k}-r{round_index}-n{spec_index}"}
            marks: dict = {}

            def on_event(event, marks=marks):
                name = event.get("event")
                if name == "queued":
                    marks["queued"] = time.perf_counter_ns()
                    marks["key"] = event.get("key")
                elif name == "running" and "running" not in marks:
                    marks["running"] = time.perf_counter_ns()

            name = f"{kind}:{spec['type']}"
            scope = tracer.span("bench.op") if tracer else nullcontext()
            start = time.perf_counter()
            try:
                with scope as span:
                    final = client.submit(table, seed=job_seed, on_event=on_event)
                    if tracer and marks.get("key"):
                        span.set_request(marks["key"])
                        if "running" in marks:
                            tracer.record("service.queue_wait", marks["queued"],
                                          marks["running"], marks["key"])
            except ServiceError as exc:
                results.append((Op(name, time.perf_counter() - start,
                                   problem=f"ServiceError: {exc}", kind=kind),
                                None, spec_index))
                continue
            results.append((Op(name, time.perf_counter() - start, Counter(), kind=kind),
                            final, spec_index))

    @staticmethod
    def _check(final: dict | None, op: Op, spec_index: int,
               produced: dict) -> str | None:
        """One submission; *produced* maps the client's spec index to
        the record its miss produced."""
        if final is None:
            return None  # the submission failed; its op says why
        if final.get("event") != "done":
            return f"submission ended {final.get('event')}: {final.get('error')}"
        record = final["record"]
        op.stats["payload_bytes"] += int(record.get("payload_bytes", 0))
        expect_hit = op.kind == "hit"
        if bool(final.get("cached")) != expect_hit:
            return f"expected a {op.kind}, daemon reported cached={final.get('cached')}"
        if expect_hit:
            op.stats["cache_hits"] += 1
            if spec_index not in produced:
                return "no record from this spec's miss to compare against"
            if record != produced[spec_index]:
                return "hit record differs from the record its miss produced"
            return None
        produced[spec_index] = record
        summary = record["summary"]
        ensemble = summary.get("type") == "EnsembleTransientResult"
        instances = _ENSEMBLE_K if ensemble else 1
        op.stats["cache_misses"] += 1
        op.stats["march_points"] += (summary["points"] - 1) * instances
        op.stats["factorizations"] += summary["factorizations"]
        op.stats["linear_solves"] += summary["solves"]
        return None

    def _check_counters(self, ops: list[Op], misses: list[Op]) -> str | None:
        """The daemon's counters moved by what this round's submissions
        report; read after the round, so no status call is timed."""
        after = ServiceClient(self.socket, timeout=60).status()
        before, self.status = self.status, after
        counters = ("cache_hits", "executed", "coalesced", "failed")
        ops[0].extra.update(
            {f"service.{name}": after[name] - before[name] for name in counters})
        moved = after["factorizations"] - before["factorizations"]
        expected = sum(op.stats["factorizations"] for op in misses)
        if moved != expected:
            return f"daemon factorizations moved {moved}, misses account for {expected}"
        return None
