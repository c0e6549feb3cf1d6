"""Tests for the simulation service (repro.service).

Covers the three layers of the service subsystem:

* fingerprinting — invariance under irrelevant re-spellings, strict
  sensitivity to every physical field, honest failure on closures;
* the on-disk store — round-trips, corruption-as-miss semantics, gc;
* cached execution — ``run_batch_cached`` / ``run_sweep(cache=)`` and
  the daemon: a resubmitted job is served from the store without any
  solver invocation (asserted via the daemon's factorization counter).
"""

import json
import threading

import numpy as np
import pytest

from repro.circuit.parser import parse_netlist
from repro.runtime import BatchRunner, EnsembleJob, TransientJob
from repro.runtime.jobs import job_from_mapping
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceDaemon,
    UncacheableJobError,
    batch_job_keys,
    job_key,
    job_kind,
    run_batch_cached,
)
from repro.service.store import default_store_root

FAST_OPTIONS = {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-11,
                "h_initial": 1e-12}

SPEC = {"type": "transient", "label": "divider",
        "circuit": "rtd_divider", "t_stop": 0.5e-9,
        "params": {"resistance": 50.0}, "options": dict(FAST_OPTIONS)}


def _job(**overrides):
    table = {**SPEC, **overrides}
    return job_from_mapping(table)


def _ac_job():
    return job_from_mapping({"type": "ac", "circuit": "rtd_divider",
                             "params": {"resistance": 50.0},
                             "label": "divider", "f_start": 1e6,
                             "f_stop": 1e9, "source": "V1"})


# ---------------------------------------------------------------------------
# fingerprinting


class TestFingerprintInvariance:
    def test_mapping_order_is_irrelevant(self):
        shuffled = dict(reversed(list(SPEC.items())))
        shuffled["options"] = dict(reversed(list(SPEC["options"].items())))
        assert job_key(_job(), seed=0) == \
            job_key(job_from_mapping(shuffled), seed=0)

    def test_toml_and_dict_spellings_agree(self):
        tomllib = pytest.importorskip("tomllib")
        text = """
        type = "transient"
        label = "divider"
        circuit = "rtd_divider"
        t_stop = 0.5e-9
        [params]
        resistance = 50.0
        [options]
        epsilon = 0.05
        h_min = 1e-13
        h_max = 5e-11
        h_initial = 1e-12
        """
        from_toml = job_from_mapping(tomllib.loads(text))
        assert job_key(from_toml, seed=3) == job_key(_job(), seed=3)

    def test_equivalent_netlist_spellings_share_a_key(self):
        plain = ("V1 in 0 1.0\n"
                 "R1 in out 1000\n"
                 "C1 out 0 1e-12\n")
        fancy = ("* an RC divider, spelled differently\n"
                 "v1 in 0 1.0\n\n"
                 "r1 in out 1k   ; unit suffix\n"
                 "c1 out 0 1p\n"
                 ".end\n")
        key_plain = job_key(TransientJob(netlist=plain, t_stop=1e-9), seed=0)
        key_fancy = job_key(TransientJob(netlist=fancy, t_stop=1e-9), seed=0)
        assert key_plain == key_fancy

    def test_element_names_are_presentation_only(self):
        renamed = ("V1 in 0 1.0\n"
                   "Rload in out 1000\n"
                   "Cout out 0 1e-12\n")
        base = ("V1 in 0 1.0\n"
                "R1 in out 1000\n"
                "C1 out 0 1e-12\n")
        assert job_key(TransientJob(netlist=base, t_stop=1e-9), seed=0) == \
            job_key(TransientJob(netlist=renamed, t_stop=1e-9), seed=0)

    def test_numpy_scalars_hash_like_python_scalars(self):
        assert job_key(_job(t_stop=np.float64(0.5e-9)), seed=0) == \
            job_key(_job(), seed=0)


class TestFingerprintSensitivity:
    def test_every_field_change_yields_a_distinct_key(self):
        variants = [
            _job(),
            _job(t_stop=0.6e-9),
            _job(params={"resistance": 51.0}),
            _job(options={**FAST_OPTIONS, "epsilon": 0.04}),
            _job(circuit="fet_rtd_inverter", params={}),
            _job(label="renamed"),
            _ac_job(),
        ]
        keys = [job_key(job, seed=0) for job in variants]
        assert len(set(keys)) == len(keys)

    def test_seed_is_part_of_the_address(self):
        keys = {job_key(_job(), seed=s) for s in (0, 1, 2)}
        keys.add(job_key(_job(), seed={"entropy": 0, "spawn": 1}))
        assert len(keys) == 4

    def test_package_version_salts_the_key(self, monkeypatch):
        import repro

        before = job_key(_job(), seed=0)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert job_key(_job(), seed=0) != before

    def test_netlist_physics_changes_the_key(self):
        base = TransientJob(netlist="V1 in 0 1.0\nR1 in 0 1k\n", t_stop=1e-9)
        bumped = TransientJob(netlist="V1 in 0 1.0\nR1 in 0 2k\n",
                              t_stop=1e-9)
        assert job_key(base, seed=0) != job_key(bumped, seed=0)

    def test_circuit_object_params_split_the_key(self):
        # params may be inert next to a ready Circuit, but the cache is
        # conservative: a params change must never share an address.
        circuit = parse_netlist("V1 in 0 1.0\nR1 in 0 1k\n")
        base = TransientJob(circuit=circuit, t_stop=1e-9)
        tweaked = TransientJob(circuit=circuit, t_stop=1e-9,
                               params={"resistance": 51.0})
        assert job_key(base, seed=0) != job_key(tweaked, seed=0)

    def test_callable_builder_is_uncacheable(self):
        job = TransientJob(builder=lambda: None, t_stop=1e-9)
        with pytest.raises(UncacheableJobError):
            job_key(job, seed=0)

    def test_non_dataclass_is_uncacheable(self):
        with pytest.raises(UncacheableJobError):
            job_key(object(), seed=0)

    def test_job_kind_tags(self):
        assert job_kind(_job()) == "transient"
        assert job_kind(_ac_job()) == "ac"


# ---------------------------------------------------------------------------
# the store


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        assert store.get(key) is None
        store.put(key, {"x": 1.5}, kind="transient", label="t", seconds=0.25)
        entry = store.get(key)
        assert entry.value == {"x": 1.5}
        assert entry.kind == "transient"
        assert entry.seconds == 0.25
        assert key in store and len(store) == 1

    def test_record_is_deterministic(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "1" * 62
        store.put(key, [1, 2, 3], kind="transient", label="t", seconds=1.0)
        first = json.dumps(store.get(key).record(), sort_keys=True)
        second = json.dumps(store.get(key).record(), sort_keys=True)
        assert first == second
        assert "created_utc" not in store.get(key).record()

    def test_truncated_payload_is_a_miss_not_a_crash(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "2" * 62
        store.put(key, {"big": list(range(1000))})
        meta_path, payload_path = store._paths(key)
        payload_path.write_bytes(payload_path.read_bytes()[:10])
        assert store.get(key) is None
        # the corrupt entry was swept from disk
        assert key not in store

    def test_garbage_metadata_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "01" + "3" * 62
        store.put(key, 42)
        meta_path, _ = store._paths(key)
        meta_path.write_text("{not json")
        assert store.get(key) is None

    def test_schema_skew_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "23" + "4" * 62
        store.put(key, 42)
        meta_path, _ = store._paths(key)
        meta = json.loads(meta_path.read_text())
        meta["schema"] = "repro-store/999"
        meta_path.write_text(json.dumps(meta))
        assert store.get(key) is None

    def test_gc_sweeps_orphans_and_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        good = "45" + "5" * 62
        store.put(good, "keep me")
        # an interrupted write: payload without metadata
        orphan = "67" + "6" * 62
        _, payload_path = store._paths(orphan)
        payload_path.parent.mkdir(parents=True, exist_ok=True)
        payload_path.write_bytes(b"half a write")
        # a truncated published entry
        bad = "89" + "7" * 62
        store.put(bad, {"big": list(range(1000))})
        _, bad_payload = store._paths(bad)
        bad_payload.write_bytes(b"oops")
        stats = store.gc()
        assert stats.corrupt == 2
        assert stats.remaining == 1
        assert store.get(good).value == "keep me"

    def test_gc_caps_entry_count_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"{i:02x}" + f"{i}" * 62 for i in range(4)]
        for age, key in enumerate(keys):
            store.put(key, age)
            meta_path, _ = store._paths(key)
            meta = json.loads(meta_path.read_text())
            meta["created_utc"] = 1000.0 + age  # synthetic clock
            meta_path.write_text(json.dumps(meta))
        stats = store.gc(max_entries=2)
        assert stats.removed == 2 and stats.remaining == 2
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
        assert store.get(keys[3]).value == 3

    def test_gc_by_age(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "8" * 62
        store.put(key, 1)
        meta_path, _ = store._paths(key)
        meta = json.loads(meta_path.read_text())
        meta["created_utc"] -= 7200.0
        meta_path.write_text(json.dumps(meta))
        assert store.gc(max_age_seconds=3600).removed == 1
        assert len(store) == 0

    def test_resolve_coercions(self, tmp_path, monkeypatch):
        assert ResultStore.resolve(ResultStore(tmp_path)).root == tmp_path
        assert ResultStore.resolve(str(tmp_path)).root == tmp_path
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_store_root() == tmp_path / "env"
        assert ResultStore.resolve(True).root == tmp_path / "env"
        assert ResultStore.resolve("").root == tmp_path / "env"


# ---------------------------------------------------------------------------
# cached batch execution


class TestRunBatchCached:
    def test_second_run_is_served_entirely_from_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = BatchRunner(executor="serial", seed=0)
        jobs = [_job(), _job(params={"resistance": 300.0}, label="R300")]
        cold = run_batch_cached(runner, jobs, store)
        assert cold.ok and cold.n_cached == 0

        def boom(self, jobs, seeds=None):  # pragma: no cover - guard
            raise AssertionError("solver path must not run on a full hit")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BatchRunner, "run", boom)
            warm = run_batch_cached(runner, jobs, store)
        assert warm.ok and warm.n_cached == 2
        assert warm.executor == "cache"
        for a, b in zip(cold.values(), warm.values()):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.states, b.states)

    def test_partial_miss_reuses_original_seeds(self, tmp_path):
        """A recomputed miss is bit-identical to the uncached run.

        Ensemble jobs consume their seeds, so any drift in the seed
        plumbing shows up as statistically different trajectories.
        """
        jobs = [EnsembleJob(builder="noisy_rc_node", t_final=1e-9,
                            steps=64, n_paths=16, label=f"band-{k}")
                for k in range(3)]
        runner = BatchRunner(executor="serial", seed=7)
        reference = runner.run(jobs)
        store = ResultStore(tmp_path)
        run_batch_cached(runner, jobs, store)
        # evict the middle entry: index 1 becomes a miss among hits
        keys = batch_job_keys(jobs, runner.seed)
        store._discard(keys[1])
        mixed = run_batch_cached(runner, jobs, store)
        assert mixed.n_cached == 2
        for ref, got in zip(reference.values(), mixed.values()):
            assert np.array_equal(ref.mean, got.mean)
            assert np.array_equal(ref.std, got.std)

    def test_failures_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = BatchRunner(executor="serial", seed=0)
        jobs = [_job(circuit="no_such_builder", params={})]
        report = run_batch_cached(runner, jobs, store)
        assert not report.ok
        assert len(store) == 0

    def test_uncacheable_jobs_always_execute(self, tmp_path):
        from repro.circuits_lib import rtd_divider

        store = ResultStore(tmp_path)
        runner = BatchRunner(executor="serial", seed=0)
        jobs = [TransientJob(builder=rtd_divider,
                             params={"resistance": 50.0}, t_stop=0.5e-9,
                             options=dict(FAST_OPTIONS))]
        first = run_batch_cached(runner, jobs, store)
        second = run_batch_cached(runner, jobs, store)
        assert first.ok and second.ok
        assert second.n_cached == 0 and len(store) == 0

    def test_sweep_cache_round_trip(self, tmp_path):
        from repro.sweep import run_sweep
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec.from_mapping({
            "sweep": {"name": "cache-sweep", "circuit": "rtd_divider",
                      "kind": "transient", "t_stop": 0.5e-9,
                      "options": dict(FAST_OPTIONS)},
            "axes": [{"name": "resistance",
                      "values": [5.0, 50.0, 300.0]}],
            "measures": [{"kind": "final", "node": "out"}],
            "batch": {"executor": "serial"},
        })
        store = ResultStore(tmp_path)
        cold = run_sweep(spec, cache=store)
        warm = run_sweep(spec, cache=store)
        assert cold.ok and warm.ok
        assert warm.executor == "cache"
        assert warm.columns["final"] == cold.columns["final"]
        assert warm.columns["seconds"] == cold.columns["seconds"]


# ---------------------------------------------------------------------------
# the daemon


@pytest.fixture()
def daemon(tmp_path):
    """A live thread-executor daemon on a tmp store; shut down after."""
    service = ServiceDaemon(store=ResultStore(tmp_path / "store"),
                            socket_path=tmp_path / "daemon.sock",
                            executor="thread", max_workers=2,
                            progress_interval=0.1)
    ready = threading.Event()
    thread = threading.Thread(target=service.run, kwargs={"ready": ready},
                              daemon=True)
    thread.start()
    assert ready.wait(10), "daemon failed to start"
    yield service
    try:
        ServiceClient(service.socket_path, timeout=10).shutdown()
    except Exception:
        pass
    thread.join(10)


class TestServiceDaemon:
    def test_resubmission_hits_cache_without_solving(self, daemon):
        client = ServiceClient(daemon.socket_path, timeout=60)
        first = client.submit(SPEC, seed=0)
        assert first["event"] == "done" and first["cached"] is False
        after_first = client.status()
        assert after_first["executed"] == 1
        assert after_first["factorizations"] > 0

        second = client.submit(SPEC, seed=0)
        assert second["event"] == "done" and second["cached"] is True
        after_second = client.status()
        # no new solver work: the factorization counter did not move
        assert after_second["factorizations"] == \
            after_first["factorizations"]
        assert after_second["executed"] == 1
        assert after_second["cache_hits"] == 1
        # and the served record is byte-identical to the original
        assert json.dumps(first["record"], sort_keys=True) == \
            json.dumps(second["record"], sort_keys=True)

    def test_spec_change_triggers_fresh_simulation(self, daemon):
        client = ServiceClient(daemon.socket_path, timeout=60)
        client.submit(SPEC, seed=0)
        changed = client.submit({**SPEC, "t_stop": 0.6e-9}, seed=0)
        assert changed["cached"] is False
        reseeded = client.submit(SPEC, seed=1)
        assert reseeded["cached"] is False
        assert client.status()["executed"] == 3

    def test_payload_round_trip(self, daemon):
        client = ServiceClient(daemon.socket_path, timeout=60)
        fresh = client.submit(SPEC, seed=0, payload=True)
        cached = client.submit(SPEC, seed=0, payload=True)
        assert np.array_equal(fresh["value"].times, cached["value"].times)
        assert np.array_equal(fresh["value"].states, cached["value"].states)

    def test_failed_job_is_isolated(self, daemon):
        client = ServiceClient(daemon.socket_path, timeout=60)
        bad = client.submit({**SPEC, "circuit": "no_such_builder",
                             "params": {}}, seed=0)
        assert bad["event"] == "failed"
        assert "no_such_builder" in bad["error"]
        # daemon is still alive and serving
        assert client.ping()["protocol"] == "repro-service/1"
        good = client.submit(SPEC, seed=0)
        assert good["event"] == "done"
        # nothing was cached for the failure
        assert len(daemon.store) == 1

    def test_cache_false_forces_execution(self, daemon):
        client = ServiceClient(daemon.socket_path, timeout=60)
        client.submit(SPEC, seed=0)
        forced = client.submit(SPEC, seed=0, cache=False)
        assert forced["cached"] is False
        assert client.status()["executed"] == 2

    def test_concurrent_identical_submissions_coalesce(self, daemon,
                                                       slow_job_gate):
        client = ServiceClient(daemon.socket_path, timeout=60)
        slow = {**SPEC, "label": "slow"}
        running = threading.Event()
        joined = threading.Event()
        box = {}

        def first_submission():
            box["first"] = client.submit(
                slow, seed=0,
                on_event=lambda e: (e.get("event") == "running"
                                    and running.set()))

        def second_submission():
            box["second"] = ServiceClient(
                daemon.socket_path, timeout=60).submit(
                    slow, seed=0,
                    on_event=lambda e: e.get("coalesced") and joined.set())

        worker = threading.Thread(target=first_submission, daemon=True)
        worker.start()
        # the first 'running' event guarantees the in-flight slot is
        # registered, and the gate keeps the job there, so this second
        # submission must coalesce onto it
        assert running.wait(30)
        follower = threading.Thread(target=second_submission, daemon=True)
        follower.start()
        assert joined.wait(30)
        slow_job_gate.set()
        worker.join(60)
        follower.join(60)
        second = box["second"]
        assert box["first"]["event"] == "done"
        assert second["event"] == "done" and second["cached"] is True
        status = ServiceClient(daemon.socket_path).status()
        assert status["executed"] == 1
        assert status["coalesced"] == 1
        assert json.dumps(box["first"]["record"], sort_keys=True) == \
            json.dumps(second["record"], sort_keys=True)

    def test_gc_and_status_ops(self, daemon):
        client = ServiceClient(daemon.socket_path, timeout=60)
        client.submit(SPEC, seed=0)
        status = client.status()
        assert status["store"]["entries"] == 1
        swept = client.gc(max_entries=0)
        assert swept["removed"] == 1
        assert client.status()["store"]["entries"] == 0

    def test_malformed_submission_fails_cleanly(self, daemon):
        client = ServiceClient(daemon.socket_path, timeout=60)
        missing = client.submit({"type": "transient"}, seed=0)
        assert missing["event"] == "failed"
        with pytest.raises(Exception):
            client._single({"op": "frobnicate"}, "done")


# ---------------------------------------------------------------------------
# CLI integration


class TestCacheCLI:
    def test_runtime_cli_cache_flag(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({
            "batch": {"executor": "serial"},
            "jobs": [SPEC],
        }))
        store = tmp_path / "store"
        assert main(["batch", str(spec), "--cache", str(store)]) == 0
        cold_out = capsys.readouterr().out
        assert "cached" not in cold_out
        assert main(["batch", str(spec), "--cache", str(store)]) == 0
        warm_out = capsys.readouterr().out
        assert "ok (cached)" in warm_out
        assert "1 cached" in warm_out

    def test_service_cli_gc(self, tmp_path, capsys):
        from repro.cli import main

        store = ResultStore(tmp_path / "store")
        store.put("ab" + "0" * 62, 1)
        assert main(["service", "gc", "--store", str(store.root),
                     "--max-entries", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert len(store) == 0

    def test_service_cli_submit_without_daemon_errors(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({"jobs": [SPEC]}))
        missing = tmp_path / "no-daemon.sock"
        assert main(["service", "submit", str(spec),
                     "--socket", str(missing)]) == 2
        assert "cannot reach daemon" in capsys.readouterr().err
