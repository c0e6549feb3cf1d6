"""The one ``repro`` command line and its legacy entry points.

The option table below was copied from the six per-package parsers
this CLI replaced (``repro.{runtime,sweep,ac,pss,lint,service}.cli``
before they became aliases): every subcommand must keep exactly those
option strings, defaults and choices.
"""

from __future__ import annotations

import argparse
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

#: subcommand -> {option string (or positional dest): (default, choices)}.
LEGACY_OPTIONS = {
    "batch": {
        "spec": (None, None),
        "--workers": (None, None),
        "--executor": (None, ("process", "thread", "serial")),
        "--seed": (None, None),
        "--timeout": (None, None),
        "--retries": (None, None),
        "--antithetic": (False, None),
        "--control-variate": (False, None),
        "--target-ci": (None, None),
        "--target-rel-ci": (None, None),
        "--max-trials": (None, None),
        "--cache": (None, None),
    },
    "sweep": {
        "spec": (None, None),
        "--workers": (None, None),
        "--executor": (None, ("process", "thread", "serial")),
        "--seed": (None, None),
        "--vector": (None, None),
        "--backend": (None, ("dense", "sparse", "stack", "auto")),
        "--cache": (None, None),
        "--validate": (None, ("off", "warn", "strict")),
        "--timeout": (None, None),
        "--retries": (None, None),
        "--resume": (None, None),
        "--isolate": (None, None),
        "--antithetic": (None, None),
        "--control-variate": (None, None),
        "--target-ci": (None, None),
        "--target-rel-ci": (None, None),
        "--max-trials": (None, None),
        "--csv": (None, None),
        "--json": (None, None),
        "--list-templates": (False, None),
    },
    "ac": {
        "netlist": (None, None),
        "--template": (None, None),
        "--param": ([], None),
        "--source": (None, None),
        "--bias": ([], None),
        "--start": (1000.0, None),
        "--stop": (1000000000.0, None),
        "--points": (101, None),
        "--scale": ("log", ("linear", "log", "decade")),
        "--node": (None, None),
        "--backend": (None, ("dense", "sparse", "stack", "auto")),
        "--noise": (False, None),
        "--temperature": (300.0, None),
        "--rows": (15, None),
        "--csv": (None, None),
    },
    "pss": {
        "netlist": (None, None),
        "--template": (None, None),
        "--param": ([], None),
        "--period": (None, None),
        "--period-guess": (None, None),
        "--steps": (400, None),
        "--tol": (1e-09, None),
        "--max-iter": (10, None),
        "--phase-node": (None, None),
        "--node": (None, None),
        "--backend": (None, ("dense", "sparse", "stack", "auto")),
        "--validate": ("off", ("off", "warn", "strict")),
        "--json": (False, None),
        "--rows": (15, None),
    },
    "lint": {
        "files": (None, None),
        "--json": (False, None),
        "--fail-on": ("error", ("error", "warning", "info")),
        "--param": ([], None),
        "--list-checks": (False, None),
    },
    "service serve": {
        "--socket": (None, None),
        "--store": (None, None),
        "--workers": (None, None),
        "--executor": ("process", ("process", "thread")),
        "--progress-interval": (1.0, None),
    },
    "service submit": {
        "spec": (None, None),
        "--socket": (None, None),
        "--seed": (0, None),
        "--no-cache": (False, None),
        "--timeout": (300.0, None),
        "--json": (None, None),
        "--quiet": (False, None),
    },
    "service status": {
        "--socket": (None, None),
        "--timeout": (30.0, None),
    },
    "service gc": {
        "--store": (None, None),
        "--max-age-days": (None, None),
        "--max-entries": (None, None),
    },
}

#: legacy package -> the subcommand its script and ``python -m`` run.
LEGACY_PACKAGES = {
    "runtime": "batch",
    "sweep": "sweep",
    "ac": "ac",
    "pss": "pss",
    "lint": "lint",
    "service": "service",
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _options(parser: argparse.ArgumentParser) -> dict:
    table = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        key = ",".join(action.option_strings) or action.dest
        choices = tuple(action.choices) if action.choices else None
        table[key] = (action.default, choices)
    return table


def _command_parsers() -> dict:
    parsers = {}
    for name, sub in _subparsers(build_parser()).items():
        if name == "service":
            for action, nested in _subparsers(sub).items():
                parsers[f"service {action}"] = nested
        else:
            parsers[name] = sub
    return parsers


def test_every_subcommand_keeps_its_options_defaults_and_choices():
    parsers = _command_parsers()
    assert sorted(parsers) == sorted(LEGACY_OPTIONS)
    for name, expected in LEGACY_OPTIONS.items():
        assert _options(parsers[name]) == expected, name


@pytest.mark.parametrize("package", sorted(LEGACY_PACKAGES))
def test_legacy_cli_module_dispatches_to_its_subcommand(package, monkeypatch):
    calls = []
    monkeypatch.setattr(repro.cli, "main", lambda argv: calls.append(argv) or 0)
    module = importlib.import_module(f"repro.{package}.cli")
    assert module.main(["--flag", "value"]) == 0
    monkeypatch.setattr(sys, "argv", [f"repro-{package}", "spec.toml"])
    assert module.main() == 0
    command = LEGACY_PACKAGES[package]
    assert calls == [[command, "--flag", "value"], [command, "spec.toml"]]


@pytest.mark.parametrize("package", sorted(LEGACY_PACKAGES))
def test_python_m_legacy_package_runs_its_subcommand(package, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [f"repro.{package}", "--help"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module(f"repro.{package}", run_name="__main__")
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage.startswith(f"usage: repro {LEGACY_PACKAGES[package]}")


def test_console_scripts_point_at_the_one_parser():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "scripts"
    ]
    assert scripts["repro"] == "repro.cli:main"
    for package, command in LEGACY_PACKAGES.items():
        assert scripts[f"repro-{command}"] == f"repro.{package}.cli:main"


@pytest.mark.parametrize("command", sorted(LEGACY_OPTIONS))
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        repro.cli.main([*command.split(), "--help"])
    assert excinfo.value.code == 0
    assert f"usage: repro {command}" in capsys.readouterr().out


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_python_m_repro_help():
    done = _python("-m", "repro", "--help")
    assert done.returncode == 0, done.stderr
    for command in ("batch", "sweep", "ac", "pss", "lint", "service"):
        assert command in done.stdout


def test_importing_the_library_does_not_load_the_cli():
    done = _python(
        "-c",
        "import sys, repro, repro.runtime, repro.sweep, repro.lint.gate; "
        "assert 'repro.cli' not in sys.modules, 'repro.cli loaded'",
    )
    assert done.returncode == 0, done.stderr


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["sweep"],
        ["ac"],
        ["pss", "a.cir", "--template", "rtd_divider"],
        ["lint"],
        ["lint", "x.cir", "--param", "r=abc"],
        ["batch", "jobs.toml", "--executor", "gpu"],
        ["service", "serve", "--executor", "serial"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            repro.cli.main(argv)
        assert excinfo.value.code == 2, argv
    capsys.readouterr()
