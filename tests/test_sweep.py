"""Tests for the parametric sweep subsystem (repro.sweep)."""

import json

import pytest

from repro.errors import SweepSpecError
from repro.sweep import (
    ParameterAxis,
    SweepReport,
    SweepSpec,
    build_jobs,
    load_sweep_spec,
    run_sweep,
)
from repro.cli import main
from repro.sweep.measures import MeasureSpec

FAST_OPTIONS = {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-11,
                "h_initial": 1e-12}

PARAM_NETLIST = """
.title swept-divider
.param rser=10 vin=1.0
Vs in 0 {vin}
R1 in out {rser}
Cload out 0 0.5p
.model m RTD
X1 out 0 m
"""

SUBCKT_NETLIST = """
.param rstage=20 vdrive=1.0
.model m RTD
.subckt stage in out R=20
Rser in out {R}
Xd out 0 m
Cn out 0 0.5p
.ends
Vs in 0 {vdrive}
X1 in mid stage R={rstage}
X2 mid out stage R={rstage * 2}
"""


def _divider_spec(**overrides):
    settings = dict(
        template="rtd_divider",
        settings={"t_stop": 2e-10, "options": dict(FAST_OPTIONS)},
        axes=[ParameterAxis.from_values("resistance", [5.0, 50.0, 300.0])],
        measures=[MeasureSpec(kind="final", node="out")],
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestParameterAxis:
    def test_from_values(self):
        axis = ParameterAxis.from_values("r", [1, 2, 3])
        assert axis.values == (1.0, 2.0, 3.0)

    def test_linear_range(self):
        axis = ParameterAxis.from_range("r", 0.0, 10.0, 5)
        assert axis.values[0] == 0.0 and axis.values[-1] == 10.0
        assert len(axis) == 5

    def test_log_range(self):
        axis = ParameterAxis.from_range("r", 1.0, 100.0, 3, scale="log")
        assert axis.values == pytest.approx((1.0, 10.0, 100.0))

    def test_empty_values_rejected(self):
        with pytest.raises(SweepSpecError):
            ParameterAxis.from_values("r", [])

    def test_non_numeric_values_rejected(self):
        with pytest.raises(SweepSpecError):
            ParameterAxis.from_values("r", ["a"])

    def test_bad_num_rejected(self):
        with pytest.raises(SweepSpecError):
            ParameterAxis.from_range("r", 0.0, 1.0, 0)

    def test_log_with_nonpositive_endpoint_rejected(self):
        with pytest.raises(SweepSpecError):
            ParameterAxis.from_range("r", 0.0, 1.0, 4, scale="log")

    def test_unknown_scale_rejected(self):
        with pytest.raises(SweepSpecError):
            ParameterAxis.from_range("r", 1.0, 2.0, 2, scale="cubic")

    def test_mapping_requires_name(self):
        with pytest.raises(SweepSpecError):
            ParameterAxis.from_mapping({"values": [1.0]})

    def test_mapping_rejects_mixed_forms(self):
        with pytest.raises(SweepSpecError):
            ParameterAxis.from_mapping(
                {"name": "r", "values": [1.0], "start": 0.0})


class TestSweepSpecValidation:
    def test_grid_is_cartesian_product(self):
        spec = _divider_spec(axes=[
            ParameterAxis.from_values("resistance", [1.0, 2.0]),
        ])
        assert spec.n_points == 2
        spec = SweepSpec(
            netlist_text=PARAM_NETLIST,
            settings={"t_stop": 1e-10},
            axes=[ParameterAxis.from_values("rser", [1.0, 2.0]),
                  ParameterAxis.from_values("vin", [0.5, 1.0, 1.5])],
            measures=[MeasureSpec(kind="final", node="out")],
        )
        assert spec.n_points == 6
        points = spec.points()
        assert points[0] == {"rser": 1.0, "vin": 0.5}
        assert points[-1] == {"rser": 2.0, "vin": 1.5}

    def test_zip_mode_pairs_positionwise(self):
        spec = SweepSpec(
            netlist_text=PARAM_NETLIST, mode="zip",
            settings={"t_stop": 1e-10},
            axes=[ParameterAxis.from_values("rser", [1.0, 2.0]),
                  ParameterAxis.from_values("vin", [0.5, 1.5])],
            measures=[MeasureSpec(kind="final", node="out")],
        )
        assert spec.n_points == 2
        assert spec.points() == [{"rser": 1.0, "vin": 0.5},
                                 {"rser": 2.0, "vin": 1.5}]

    def test_zip_mode_rejects_ragged_axes(self):
        with pytest.raises(SweepSpecError):
            SweepSpec(
                netlist_text=PARAM_NETLIST, mode="zip",
                settings={"t_stop": 1e-10},
                axes=[ParameterAxis.from_values("rser", [1.0, 2.0]),
                      ParameterAxis.from_values("vin", [0.5])],
                measures=[MeasureSpec(kind="final")],
            )

    def test_no_axes_rejected(self):
        with pytest.raises(SweepSpecError):
            _divider_spec(axes=[])

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(SweepSpecError):
            _divider_spec(axes=[
                ParameterAxis.from_values("resistance", [1.0]),
                ParameterAxis.from_values("resistance", [2.0]),
            ])

    def test_fixed_and_swept_overlap_rejected(self):
        with pytest.raises(SweepSpecError):
            _divider_spec(fixed={"resistance": 1.0})

    def test_no_measures_rejected(self):
        with pytest.raises(SweepSpecError):
            _divider_spec(measures=[])

    def test_unknown_template_rejected(self):
        with pytest.raises(SweepSpecError):
            _divider_spec(template="warp_core")

    def test_unsweepable_parameter_rejected(self):
        with pytest.raises(SweepSpecError):
            _divider_spec(axes=[
                ParameterAxis.from_values("flux", [1.0])])

    def test_template_and_netlist_both_rejected(self):
        with pytest.raises(SweepSpecError):
            _divider_spec(netlist_text=PARAM_NETLIST)

    def test_sde_template_needs_ensemble_kind(self):
        with pytest.raises(SweepSpecError):
            _divider_spec(template="noisy_rc_node", axes=[
                ParameterAxis.from_values("resistance", [1.0])])

    def test_unknown_measure_rejected(self):
        with pytest.raises(SweepSpecError):
            MeasureSpec.from_mapping({"kind": "sparkle"})

    def test_ensemble_measure_on_transient_rejected(self):
        with pytest.raises(SweepSpecError):
            MeasureSpec.from_mapping({"kind": "mean_peak"},
                                     kind="transient")

    def test_duplicate_measure_columns_rejected(self):
        from repro.sweep.measures import measures_from_spec
        with pytest.raises(SweepSpecError):
            measures_from_spec([{"kind": "final"}, {"kind": "final"}])

    def test_unknown_setting_key_rejected_eagerly(self):
        with pytest.raises(SweepSpecError) as excinfo:
            _divider_spec(settings={"tstop": 1e-10})
        assert "tstop" in str(excinfo.value)

    def test_missing_required_setting_rejected_eagerly(self):
        with pytest.raises(SweepSpecError) as excinfo:
            SweepSpec(
                kind="ensemble", template="noisy_rc_node",
                settings={"t_final": 1e-9, "steps": 100},
                axes=[ParameterAxis.from_values("resistance", [1.0])],
                measures=[MeasureSpec(kind="std_final")],
            )
        assert "n_paths" in str(excinfo.value)

    def test_ensemble_over_netlist_rejected_at_construction(self):
        with pytest.raises(SweepSpecError):
            SweepSpec(
                kind="ensemble", netlist_text=PARAM_NETLIST,
                settings={"t_final": 1e-9, "steps": 10, "n_paths": 4},
                axes=[ParameterAxis.from_values("rser", [1.0])],
                measures=[MeasureSpec(kind="std_final")],
            )


class TestRunSweep:
    def test_netlist_sweep_runs_and_orders_rows(self):
        spec = SweepSpec(
            netlist_text=PARAM_NETLIST,
            settings={"t_stop": 2e-10, "options": dict(FAST_OPTIONS)},
            axes=[ParameterAxis.from_values("rser", [5.0, 20.0]),
                  ParameterAxis.from_values("vin", [0.5, 1.0])],
            measures=[MeasureSpec(kind="final", node="out"),
                      MeasureSpec(kind="peak", node="out")],
        )
        report = run_sweep(spec, executor="serial")
        assert report.ok and report.n_points == 4
        assert report.columns["rser"] == [5.0, 5.0, 20.0, 20.0]
        assert report.columns["vin"] == [0.5, 1.0, 0.5, 1.0]
        assert all(isinstance(v, float) for v in report.columns["final"])

    def test_results_identical_across_executors(self):
        spec = _divider_spec()
        serial = run_sweep(spec, executor="serial")
        threaded = run_sweep(spec, max_workers=3, executor="thread")
        assert serial.ok and threaded.ok
        assert serial.columns["final"] == threaded.columns["final"]
        assert serial.columns["flops"] == threaded.columns["flops"]

    def test_subckt_netlist_sweep(self):
        spec = SweepSpec(
            netlist_text=SUBCKT_NETLIST,
            settings={"t_stop": 2e-10, "options": dict(FAST_OPTIONS)},
            axes=[ParameterAxis.from_values("rstage", [10.0, 40.0])],
            measures=[MeasureSpec(kind="final", node="out")],
        )
        report = run_sweep(spec, executor="serial")
        assert report.ok and report.n_points == 2

    def test_ensemble_sweep_seeded_deterministically(self):
        spec = SweepSpec(
            kind="ensemble", template="noisy_rc_node",
            settings={"t_final": 1e-9, "steps": 100, "n_paths": 16},
            axes=[ParameterAxis.from_values(
                "noise_amplitude", [1e-8, 2e-8])],
            measures=[MeasureSpec(kind="std_final")],
        )
        first = run_sweep(spec, executor="serial", seed=9)
        second = run_sweep(spec, max_workers=2, executor="thread", seed=9)
        assert first.ok
        assert first.columns["std_final"] == second.columns["std_final"]
        assert first.columns["std_final"][0] != \
            first.columns["std_final"][1]

    def test_failures_are_isolated_per_point(self):
        # resistance=0 keeps the load line vertical: the point fails,
        # the rest of the sweep must not.
        spec = _divider_spec(axes=[
            ParameterAxis.from_values("resistance", [-5.0, 50.0])])
        report = run_sweep(spec, executor="serial")
        ok_column = report.columns["ok"]
        assert report.n_points == 2
        assert ok_column[1] is True
        if not report.ok:
            failed = report.failures()[0]
            assert failed["error"]
            assert failed["final"] is None

    def test_template_default_node_used_when_measure_omits_node(self):
        # rtd_chain registers default_node="n1"; a measure without
        # node= must act on it, not on the last node of the chain.
        settings = {"t_stop": 2e-10, "options": dict(FAST_OPTIONS)}
        axes = [ParameterAxis.from_values("stages", [3.0])]
        implicit = SweepSpec(
            template="rtd_chain", settings=settings, axes=axes,
            measures=[MeasureSpec(kind="final")])
        explicit = SweepSpec(
            template="rtd_chain", settings=settings, axes=axes,
            measures=[MeasureSpec(kind="final", node="n1")])
        jobs = build_jobs(implicit)
        assert jobs[0].measures[0].node == "n1"
        a = run_sweep(implicit, executor="serial")
        b = run_sweep(explicit, executor="serial")
        assert a.ok and a.columns["final"] == b.columns["final"]

    def test_integer_parameters_are_cast(self):
        spec = SweepSpec(
            template="rtd_chain",
            settings={"t_stop": 1e-10, "options": dict(FAST_OPTIONS)},
            axes=[ParameterAxis.from_values("stages", [1.0, 2.0])],
            measures=[MeasureSpec(kind="final", node="n1")],
        )
        jobs = build_jobs(spec)
        assert jobs[0].inner.params["stages"] == 1
        assert isinstance(jobs[1].inner.params["stages"], int)


class TestSweepReport:
    def _report(self):
        return run_sweep(_divider_spec(), executor="serial")

    def test_rows_round_trip_columns(self):
        report = self._report()
        rows = report.rows()
        assert len(rows) == report.n_points
        assert rows[0]["resistance"] == 5.0

    def test_best(self):
        report = self._report()
        best = report.best("final", mode="max")
        assert best["final"] == max(report.columns["final"])

    def test_csv_export(self, tmp_path):
        report = self._report()
        path = tmp_path / "sweep.csv"
        text = report.to_csv(path)
        assert path.read_text() == text
        header = text.splitlines()[0].split(",")
        assert "resistance" in header and "final" in header
        assert len(text.splitlines()) == report.n_points + 1

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "sweep.json"
        report.to_json(path)
        restored = SweepReport.from_json(path.read_text())
        assert restored.columns == report.columns
        assert restored.param_names == report.param_names

    def test_summary_mentions_counts(self):
        report = self._report()
        assert "3 points" in report.summary()


class TestSweepCli:
    def _write_spec(self, tmp_path, netlist_name="family.cir"):
        (tmp_path / netlist_name).write_text(PARAM_NETLIST)
        spec = {
            "sweep": {
                "name": "cli-sweep",
                "netlist": netlist_name,
                "t_stop": 2e-10,
                "options": dict(FAST_OPTIONS),
            },
            "axes": [
                {"name": "rser", "values": [5.0, 20.0]},
                {"name": "vin", "start": 0.5, "stop": 1.0, "num": 2},
            ],
            "measures": [{"kind": "final", "node": "out"}],
            "batch": {"seed": 3},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_cli_runs_spec_and_exports(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        csv_path = tmp_path / "out.csv"
        code = main(["sweep", str(spec_path), "--executor", "serial",
                     "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.exists()
        assert "cli-sweep" in capsys.readouterr().out

    def test_cli_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sweep": {"t_stop": 1.0}}))
        assert main(["sweep", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_rejects_missing_file(self, capsys):
        assert main(["sweep", "/nonexistent/spec.toml"]) == 2

    def test_cli_list_templates(self, capsys):
        assert main(["sweep", "--list-templates"]) == 0
        out = capsys.readouterr().out
        assert "rtd_divider" in out and "sweepable" in out

    def test_spec_loader_reports_missing_netlist(self, tmp_path):
        spec = {"sweep": {"netlist": "gone.cir", "t_stop": 1.0},
                "axes": [{"name": "x", "values": [1.0]}],
                "measures": [{"kind": "final"}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(SweepSpecError):
            load_sweep_spec(path)

    def test_spec_loader_rejects_unknown_tables(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"swep": {}}))
        with pytest.raises(SweepSpecError):
            load_sweep_spec(path)
