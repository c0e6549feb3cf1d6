"""Unit tests for the lint subsystem (repro.lint).

Covers the report/diagnostic containers, the check registry, each
built-in check's suppression rules (the corpus in
``test_lint_corpus.py`` pins the per-defect-class output; here we pin
the *interactions* — which check wins when a node is broken in more
than one way), ``lint_circuit`` over API-built circuits, and the
``repro-lint`` CLI contract (exit codes, JSON shape, ``--fail-on``).
"""

from __future__ import annotations

import json

import pytest

from repro.circuit import Circuit
from repro.cli import main
from repro.devices import SchulmanRTD
from repro.lint import (
    CHECKS,
    Diagnostic,
    LintReport,
    lint_circuit,
    lint_netlist,
    register_check,
)
from repro.lint.report import REPORT_SCHEMA


def _checks(report):
    return [d.check for d in report.diagnostics]


# ---------------------------------------------------------------------------
# Diagnostic / LintReport containers


class TestReportContainers:
    def test_bad_severity_is_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic(severity="fatal", check="x", message="m")

    def test_report_sorts_deterministically(self):
        d1 = Diagnostic("warning", "b-check", "m", line=2)
        d2 = Diagnostic("error", "a-check", "m", line=2)
        d3 = Diagnostic("error", "z-check", "m", line=1)
        d4 = Diagnostic("error", "late", "m", line=None)
        report = LintReport("t", [d1, d2, d3, d4])
        shuffled = LintReport("t", [d4, d1, d3, d2])
        assert report.diagnostics == [d3, d2, d1, d4]
        assert report.to_json() == shuffled.to_json()

    def test_counts_ok_and_worst(self):
        report = LintReport("t", [
            Diagnostic("warning", "w", "m"),
            Diagnostic("info", "i", "m"),
        ])
        assert (report.errors, report.warnings, report.infos) == (0, 1, 1)
        assert report.ok and report.worst() == "warning"
        report = LintReport("t", [Diagnostic("error", "e", "m")])
        assert not report.ok and report.worst() == "error"
        assert LintReport("t").worst() is None

    def test_render_and_summary(self):
        clean = LintReport("design.cir")
        assert clean.render() == "design.cir: clean"
        report = LintReport("d", [
            Diagnostic("error", "e-check", "broken", line=3,
                       source="R1 a b", hint="fix it"),
        ])
        text = report.render()
        assert "d: 1 error(s), 0 warning(s), 0 info(s)" in text
        assert "line 3 [error] e-check: broken" in text
        assert "> R1 a b" in text and "hint: fix it" in text

    def test_as_dict_has_fixed_keys_and_schema(self):
        report = LintReport("t", [Diagnostic("error", "e", "m")])
        data = report.as_dict()
        assert data["schema"] == REPORT_SCHEMA
        assert set(data["diagnostics"][0]) == {
            "severity", "check", "message", "line", "source",
            "subject", "hint"}

    def test_merge_dedupes_identical_findings(self):
        d = Diagnostic("error", "e", "m", line=1, subject="n")
        merged = LintReport.merge("m", [
            LintReport("a", [d]),
            LintReport("b", [d, Diagnostic("error", "e2", "m2")]),
        ])
        assert _checks(merged) == ["e", "e2"]

    def test_by_check(self):
        report = LintReport("t", [
            Diagnostic("error", "e", "m1"),
            Diagnostic("warning", "w", "m2"),
        ])
        assert [d.message for d in report.by_check("w")] == ["m2"]


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_duplicate_id_is_an_error(self):
        with pytest.raises(ValueError, match="already registered"):
            register_check("floating-node", severity="error", title="dup")(
                lambda graph: [])

    def test_parser_owned_ids_are_reserved(self):
        with pytest.raises(ValueError, match="already registered"):
            register_check("duplicate-element", severity="error",
                           title="dup")(lambda graph: [])

    def test_registry_is_documented(self):
        for check in CHECKS.values():
            assert check.title and check.scope in ("graph", "text")


# ---------------------------------------------------------------------------
# check interactions (one diagnostic per broken node)


class TestCheckInteractions:
    def test_cap_only_node_is_open_circuit_not_floating(self):
        report = lint_netlist(
            "* t\nV1 in 0 DC 1\nR1 in 0 1k\nC1 in mid 1p\nC2 mid x 1p\n")
        assert set(_checks(report)) == {"open-circuit"}

    def test_unreachable_dead_end_is_floating_not_dangling(self):
        # stub hangs off an *unreachable* island: the dangling-node
        # warning must yield to the floating-node errors.
        report = lint_netlist(
            "* t\nV1 in 0 DC 1\nR1 in 0 1k\nR2 a b 1k\nR3 b a 1k\n"
            "R4 a stub 1k\n")
        assert "dangling-node" not in _checks(report)
        assert "floating-node" in _checks(report)

    def test_no_ground_suppresses_floating(self):
        report = lint_netlist("* t\nV1 a b DC 1\nR1 a b 1k\n")
        assert _checks(report) == ["no-ground"]

    def test_voltage_source_self_loop_is_vsource_loop(self):
        report = lint_netlist("* t\nV1 a a DC 1\nR1 a 0 1k\n")
        assert "vsource-loop" in _checks(report)
        assert "self-loop" not in _checks(report)

    def test_inductor_across_source_closes_loop(self):
        report = lint_netlist(
            "* t\nV1 in 0 DC 1\nL1 in 0 1u\nR1 in 0 1k\n")
        assert _checks(report) == ["vsource-loop"]

    def test_mosfet_gate_only_node_is_singular(self):
        # the gate stamps nothing into G: a node driven only by a
        # MOSFET gate has an all-zero conductance row.
        report = lint_netlist(
            "* t\n.MODEL mn NMOS\nV1 d 0 DC 1\nR1 d 0 1k\n"
            "M1 d g 0 mn\n")
        assert _checks(report) == ["singular-mna"]

    def test_mosfet_channel_conducts(self):
        # drain-source is a conductive edge: a resistor ladder hanging
        # off the source is reachable through the channel.
        report = lint_netlist(
            "* t\n.MODEL mn NMOS\nV1 d 0 DC 1\nV2 g 0 DC 1\n"
            "R2 g 0 1k\nM1 d g s mn\nR1 s 0 1k\n")
        assert report.ok

    def test_current_source_is_not_a_dc_path(self):
        report = lint_netlist(
            "* t\nV1 in 0 DC 1\nR1 in 0 1k\nI1 in x 1m\nR2 x y 1k\n"
            "R3 y x 1k\n")
        assert set(_checks(report)) == {"floating-node"}


# ---------------------------------------------------------------------------
# lint_circuit (API-built circuits)


class TestLintCircuit:
    def test_clean_api_circuit(self):
        circuit = Circuit("divider")
        circuit.add_voltage_source("Vs", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 10.0)
        circuit.add_device("X1", "out", "0", SchulmanRTD())
        report = lint_circuit(circuit)
        assert report.ok and report.name == "divider"

    def test_broken_api_circuit_reports_without_line_numbers(self):
        circuit = Circuit("broken")
        circuit.add_voltage_source("Vs", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "0", 10.0)
        circuit.add_resistor("R2", "a", "b", 10.0)
        circuit.add_resistor("R3", "b", "a", 10.0)
        report = lint_circuit(circuit)
        assert not report.ok
        assert all(d.line is None for d in report.diagnostics)

    def test_name_override(self):
        circuit = Circuit("c")
        circuit.add_resistor("R1", "a", "0", 1.0)
        assert lint_circuit(circuit, name="label").name == "label"


# ---------------------------------------------------------------------------
# analyzer robustness


class TestAnalyzer:
    def test_never_raises_on_garbage(self):
        for text in ("", "@@@@", "R1", ".SUBCKT\n", "+ leading cont\n"):
            report = lint_netlist(text)
            assert isinstance(report, LintReport)

    def test_param_overrides_reach_the_parser(self):
        family = ("* t\n.PARAM rser=10\nV1 in 0 DC 1\n"
                  "R1 in out {rser}\nR2 out 0 1k\n")
        assert lint_netlist(family).ok
        broken = lint_netlist(family, params={"rser": 0.0})
        assert not broken.ok
        assert _checks(broken) == ["parse-error"]

    def test_unparsable_netlist_still_reports_text_findings(self):
        text = ("* t\n.SUBCKT unused a b\nR1 a b 1k\n.ENDS\n"
                "R1 in out\n")
        report = lint_netlist(text)
        assert "unused-subckt" in _checks(report)
        assert "parse-error" in _checks(report)


# ---------------------------------------------------------------------------
# CLI


CLEAN = "* ok\nV1 in 0 DC 1\nR1 in 0 1k\n"
BROKEN = "* bad\nV1 in 0 DC 1\nR1 in 0 1k\nC1 in mid 1p\n"
WARN_ONLY = "* warn\nV1 in 0 DC 1\nR1 in 0 1k\nR2 in in 1k\n"


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        assert main(["lint", self._write(tmp_path, "ok.cir", CLEAN)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_broken_file_exits_one(self, tmp_path, capsys):
        assert main(["lint", self._write(tmp_path, "bad.cir", BROKEN)]) == 1
        assert "open-circuit" in capsys.readouterr().out

    def test_json_output_is_valid_and_tagged(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.cir", BROKEN)
        assert main(["lint", path, "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        assert reports[0]["schema"] == REPORT_SCHEMA
        assert reports[0]["errors"] == 1
        assert reports[0]["diagnostics"][0]["check"] == "open-circuit"

    def test_fail_on_widens_the_gate(self, tmp_path, capsys):
        path = self._write(tmp_path, "warn.cir", WARN_ONLY)
        assert main(["lint", path]) == 0
        assert main(["lint", path, "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_multiple_files_worst_wins(self, tmp_path, capsys):
        good = self._write(tmp_path, "ok.cir", CLEAN)
        bad = self._write(tmp_path, "bad.cir", BROKEN)
        assert main(["lint", good, bad]) == 1
        capsys.readouterr()

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing.cir")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_param_override(self, tmp_path, capsys):
        family = ("* t\n.PARAM rser=10\nV1 in 0 DC 1\n"
                  "R1 in out {rser}\nR2 out 0 1k\n")
        path = self._write(tmp_path, "family.cir", family)
        assert main(["lint", path]) == 0
        assert main(["lint", path, "--param", "rser=0"]) == 1
        capsys.readouterr()

    def test_bad_param_is_a_usage_error(self, tmp_path, capsys):
        # Exit 2 (usage), never 1, which means "lint found errors".
        path = self._write(tmp_path, "ok.cir", CLEAN)
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", path, "--param", "nonsense"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", path, "--param", "r=abc"])
        assert excinfo.value.code == 2
        assert "non-numeric value" in capsys.readouterr().err

    def test_list_checks(self, capsys):
        assert main(["lint", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for check_id in ("floating-node", "open-circuit", "parse-error",
                         "duplicate-element"):
            assert check_id in out
