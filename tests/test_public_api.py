"""Public-API surface tests: imports, __all__ integrity, docstrings.

These keep the published interface honest: everything advertised in an
``__all__`` must exist, be importable from the package root where
promised, and carry a docstring — the "documentation on every public
item" deliverable, enforced.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.circuit",
    "repro.circuits_lib",
    "repro.core",
    "repro.devices",
    "repro.lint",
    "repro.mna",
    "repro.perf",
    "repro.pss",
    "repro.runtime",
    "repro.stochastic",
    "repro.swec",
    "repro.sweep",
]

MODULES = PACKAGES + [
    "repro.analysis.dcsweep",
    "repro.analysis.measure",
    "repro.analysis.report",
    "repro.analysis.sensitivity",
    "repro.analysis.waveforms",
    "repro.baselines.aces",
    "repro.baselines.mla",
    "repro.baselines.newton",
    "repro.baselines.spice",
    "repro.circuit.elements",
    "repro.circuit.expressions",
    "repro.circuit.netlist",
    "repro.circuit.parser",
    "repro.circuit.sources",
    "repro.circuits_lib.arrays",
    "repro.circuits_lib.dividers",
    "repro.circuits_lib.flipflop",
    "repro.circuits_lib.grids",
    "repro.circuits_lib.inverter",
    "repro.circuits_lib.logic_gates",
    "repro.circuits_lib.noisy_rc",
    "repro.circuits_lib.templates",
    "repro.cli",
    "repro.constants",
    "repro.devices.base",
    "repro.devices.diode",
    "repro.devices.mosfet",
    "repro.devices.nanowire",
    "repro.devices.rtd",
    "repro.devices.rtt",
    "repro.core.backends",
    "repro.core.stepper",
    "repro.errors",
    "repro.lint.analyzer",
    "repro.lint.checks",
    "repro.lint.cli",
    "repro.lint.gate",
    "repro.lint.graph",
    "repro.lint.report",
    "repro.mna.assembler",
    "repro.mna.batch",
    "repro.mna.linsolve",
    "repro.mna.sparse",
    "repro.perf.comparison",
    "repro.perf.flops",
    "repro.pss.cli",
    "repro.pss.engine",
    "repro.runtime.cli",
    "repro.runtime.jobs",
    "repro.runtime.report",
    "repro.runtime.runner",
    "repro.stochastic.analytic",
    "repro.stochastic.em",
    "repro.stochastic.ito",
    "repro.stochastic.montecarlo",
    "repro.stochastic.nonlinear",
    "repro.stochastic.peak",
    "repro.stochastic.sde",
    "repro.stochastic.spectrum",
    "repro.stochastic.wiener",
    "repro.swec.conductance",
    "repro.swec.dc",
    "repro.swec.engine",
    "repro.swec.ensemble",
    "repro.swec.timestep",
    "repro.sweep.cli",
    "repro.sweep.measures",
    "repro.sweep.report",
    "repro.sweep.runner",
    "repro.sweep.spec",
    "repro.units",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documents_itself(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} has no module docstring"
    assert len(module.__doc__.strip()) > 20


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} defines no __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_and_functions_have_docstrings(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{symbol} has no docstring"


def test_version_is_exposed():
    import repro
    assert repro.__version__ == "1.8.0"


def test_top_level_promises_from_readme():
    """The exact imports the README quickstart uses must work."""
    from repro import Circuit, SchulmanRTD, SwecDC, parse_netlist  # noqa
    from repro import (  # noqa
        AcesTransient,
        CircuitSDE,
        MlaDC,
        OrnsteinUhlenbeck,
        SpiceTransient,
        SwecTransient,
        euler_maruyama,
    )


def test_public_methods_documented_on_core_classes():
    from repro.swec import SwecDC, SwecTransient
    from repro.baselines import MlaDC, SpiceTransient
    from repro.stochastic import WienerProcess
    for cls in (SwecTransient, SwecDC, SpiceTransient, MlaDC,
                WienerProcess):
        for name, member in inspect.getmembers(cls,
                                               predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} undocumented"
