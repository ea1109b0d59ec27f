"""Backend selection: one argument, two names, unset means ``vector``.

Covers :func:`resolve_backend`, unknown-name errors, and that
:class:`Simulator` construction dispatches to the class each name
stands for: ``vector`` (also when no name is given) is the one-lane
:class:`VectorSimulator`, ``interp`` the reference interpreter.
"""

import pytest

from repro.verilog.elaborate import elaborate
from repro.verilog.parser import parse
from repro.verilog.simulator import BACKENDS, Simulator, resolve_backend
from repro.verilog.vector import VectorSimulator


@pytest.fixture()
def design():
    return elaborate(parse("module m(input a, output w); "
                           "assign w = ~a; endmodule"))


def test_backends_tuple_lists_both():
    assert BACKENDS == ("interp", "vector")


def test_default_is_vector():
    assert resolve_backend() == "vector"
    assert resolve_backend(None) == "vector"


@pytest.mark.parametrize("name", BACKENDS)
def test_explicit_name_resolves(name):
    assert resolve_backend(name) == name


def test_resolve_unknown_name_raises():
    with pytest.raises(ValueError, match=r"unknown simulation backend "
                                         r"'verilator'"):
        resolve_backend("verilator")


@pytest.mark.parametrize("name, cls", [
    ("interp", Simulator),
    ("vector", VectorSimulator),
    (None, VectorSimulator),
], ids=["interp-Simulator", "vector-VectorSimulator",
        "default-VectorSimulator"])
def test_simulator_dispatches_per_backend(design, name, cls):
    sim = Simulator(design, backend=name)
    assert type(sim) is cls
    assert sim.backend == ("interp" if name == "interp" else "vector")
    assert getattr(sim, "lanes", 1) == 1


def test_simulator_unknown_backend_raises(design):
    with pytest.raises(ValueError, match="unknown simulation backend"):
        Simulator(design, backend="cocotb")
