"""Backend selection: explicit > process default > environment > interp.

Covers :func:`resolve_backend` / :func:`set_default_backend` /
``REPRO_SIM_BACKEND`` precedence, unknown-name errors (including via
the environment), and that :class:`Simulator` construction dispatches
to the class each resolved name stands for -- for all three names,
``compiled`` being the one-lane :class:`VectorSimulator`.
"""

import pytest

from repro.verilog.elaborate import elaborate
from repro.verilog.parser import parse
from repro.verilog.simulator import (
    BACKENDS,
    Simulator,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.verilog.vector import VectorSimulator

ENV = "REPRO_SIM_BACKEND"


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Isolate each test from ambient env/default backend settings."""
    monkeypatch.delenv(ENV, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


@pytest.fixture()
def design():
    return elaborate(parse("module m(input a, output w); "
                           "assign w = ~a; endmodule"))


def test_backends_tuple_lists_all_three():
    assert BACKENDS == ("interp", "compiled", "vector")


def test_default_is_interp():
    assert resolve_backend() == "interp"
    assert resolve_backend(None) == "interp"
    assert get_default_backend() == "interp"


@pytest.mark.parametrize("name", BACKENDS)
def test_explicit_name_resolves(name):
    assert resolve_backend(name) == name


@pytest.mark.parametrize("name", BACKENDS)
def test_env_var_sets_backend(monkeypatch, name):
    monkeypatch.setenv(ENV, name)
    assert resolve_backend() == name
    assert get_default_backend() == name


@pytest.mark.parametrize("name", BACKENDS)
def test_set_default_backend(name):
    set_default_backend(name)
    assert resolve_backend() == name
    assert get_default_backend() == name


def test_process_default_overrides_env(monkeypatch):
    monkeypatch.setenv(ENV, "compiled")
    set_default_backend("vector")
    assert resolve_backend() == "vector"


def test_explicit_overrides_default_and_env(monkeypatch):
    monkeypatch.setenv(ENV, "compiled")
    set_default_backend("vector")
    assert resolve_backend("interp") == "interp"


def test_set_default_backend_none_restores(monkeypatch):
    set_default_backend("vector")
    set_default_backend(None)
    assert resolve_backend() == "interp"
    monkeypatch.setenv(ENV, "compiled")
    assert resolve_backend() == "compiled"


def test_resolve_unknown_name_raises():
    with pytest.raises(ValueError, match=r"unknown simulation backend "
                                         r"'verilator'"):
        resolve_backend("verilator")


def test_resolve_unknown_env_value_raises(monkeypatch):
    monkeypatch.setenv(ENV, "icarus")
    with pytest.raises(ValueError, match="unknown simulation backend"):
        resolve_backend()


def test_set_default_backend_unknown_name_raises():
    with pytest.raises(ValueError, match=r"unknown simulation backend "
                                         r"'fast'"):
        set_default_backend("fast")
    # A rejected name must not clobber the previous default.
    assert resolve_backend() == "interp"


@pytest.mark.parametrize("name, cls", [
    ("interp", Simulator),
    ("compiled", VectorSimulator),
    ("vector", VectorSimulator),
])
def test_simulator_dispatches_per_backend(design, name, cls):
    sim = Simulator(design, backend=name)
    assert type(sim) is cls
    assert sim.backend == ("interp" if name == "interp" else "vector")
    assert getattr(sim, "lanes", 1) == 1


@pytest.mark.parametrize("name, cls", [
    ("interp", Simulator),
    ("compiled", VectorSimulator),
    ("vector", VectorSimulator),
])
def test_simulator_honours_env_var(monkeypatch, design, name, cls):
    monkeypatch.setenv(ENV, name)
    assert type(Simulator(design)) is cls


def test_simulator_unknown_backend_raises(design):
    with pytest.raises(ValueError, match="unknown simulation backend"):
        Simulator(design, backend="cocotb")
