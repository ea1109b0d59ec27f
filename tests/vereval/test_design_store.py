"""The testbench front end keeps one cache: the in-process ``_prepare`` memo.

``_prepare`` runs syntax check -> parse -> elaborate once per (source,
top) per process, and each design is lowered lazily when the first
backend is built from it.  Nothing below the memo reads or writes the
artifact store, so results and counters are the same whether or not
``REPRO_STORE_DIR`` is set -- and ``designs``/``lowered`` entries an
older version left in a store are never read.
"""

import hashlib
import json
import sys
from collections import Counter

import pytest

from repro.obs import COUNTERS
from repro.store import (
    SCHEMA_VERSION,
    artifact_store,
    content_key,
    reset_artifact_store,
)
from repro.vereval.problems import problem_by_family
from repro.vereval.testbench import (
    _prepare,
    frontend_counters,
    run_testbench,
    run_testbench_many,
)
from repro.verilog.elaborate import elaborate
from repro.verilog.lower import lower_design
from repro.verilog.parser import parse
from repro.verilog.simulator import BACKENDS, Simulator

GOOD = """
module top(input clk, input [3:0] d, output reg [3:0] q);
  always @(posedge clk) q <= d;
endmodule
"""

BAD_SYNTAX = "module top(input a, output b; endmodule"

BAD_TOP = "module other(input a, output b); assign b = a; endmodule"

# Two candidate tops in one source.
NESTED = """
module inner(input [3:0] a, output [3:0] y);
  assign y = ~a;
endmodule
module outer(input [3:0] a, output [3:0] y);
  inner u(.a(a), .y(y));
endmodule
"""

ADDER = ("module adder(input [3:0] a, input [3:0] b,"
         " output [3:0] sum, output carry_out);"
         " assign {carry_out, sum} = a + b; endmodule")

ADDER_BAD_SYNTAX = "module adder(input [3:0] a, output b; endmodule"

# Passes the syntax check (which elaborates the last module as top) but
# fails to elaborate with ``adder`` itself as top: W defaults to 0.
ADDER_BAD_ELABORATION = """
module adder #(parameter W = 0)(input [3:0] a, input [3:0] b,
                                output [3:0] sum, output carry_out);
  localparam D = 1 << (W - 1);
  assign {carry_out, sum} = a + b;
endmodule
module wrap(input [3:0] a, input [3:0] b, output [3:0] sum,
            output carry_out);
  adder #(.W(4)) u(.a(a), .b(b), .sum(sum), .carry_out(carry_out));
endmodule
"""


def _use_store(monkeypatch, root):
    """Point the process at ``root`` (None: store off), as a fresh
    process would see it: empty memo, zeroed counters."""
    if root is None:
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    else:
        monkeypatch.setenv("REPRO_STORE_DIR", str(root))
    reset_artifact_store()
    _prepare.cache_clear()
    COUNTERS.reset("frontend")


@pytest.fixture()
def no_store(monkeypatch):
    _use_store(monkeypatch, None)
    yield
    reset_artifact_store()
    _prepare.cache_clear()
    COUNTERS.reset("frontend")


@pytest.fixture()
def store(monkeypatch, tmp_path):
    _use_store(monkeypatch, tmp_path / "store")
    yield artifact_store()
    _use_store(monkeypatch, None)


def _fresh_process():
    """Simulate a process restart: the in-memory memo empties."""
    _prepare.cache_clear()


def _legacy_key(namespace, code, top):
    """The key an older version's ``designs`` (or ``lowered``) tier
    filed the front end of (``code``, ``top``) under."""
    tag = "design" if namespace == "designs" else "lowered"
    return content_key(tag, hashlib.sha256(code.encode()).hexdigest(),
                       top, 1)


def _plant_legacy(store, namespace, code, top, body):
    """Write the entry that older tier would hold for (``code``,
    ``top``), in its format: payload kind ``bytes``."""
    key = _legacy_key(namespace, code, top)
    header = {"schema": SCHEMA_VERSION, "namespace": namespace, "key": key,
              "kind": "bytes", "size": len(body), "meta": {"top": top}}
    path = store._entry_path(namespace, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    return key, path


class TestColdWarm:
    """With a store configured, the ``_prepare`` memo is still the only
    tier: cold calls compute, warm calls hit the memo, and a fresh
    process computes again."""

    def test_cold_put_then_warm_hit(self, store):
        design, failure = _prepare(GOOD, "top")
        assert failure is None
        assert _prepare.cache_info().misses == 1
        assert frontend_counters() == {"elaborations": 1, "lowerings": 0}

        warm_design, warm_failure = _prepare(GOOD, "top")
        assert warm_failure is None and warm_design is design
        assert _prepare.cache_info().hits == 1
        assert frontend_counters()["elaborations"] == 1

        _fresh_process()
        again, _ = _prepare(GOOD, "top")
        assert again == design
        assert again is not design  # recomputed, not served from disk
        assert frontend_counters()["elaborations"] == 2
        assert store.counters_snapshot() == {}

    def test_lru_tier_shields_the_store(self, store):
        for _ in range(3):
            _prepare(GOOD, "top")
        assert _prepare.cache_info().maxsize == 256
        assert _prepare.cache_info().hits == 2
        assert frontend_counters()["elaborations"] == 1
        assert store.counters_snapshot() == {}
        assert not list(store.root.rglob("*.art"))

    def test_front_end_failures_are_cached(self, store):
        for source, match in ((BAD_SYNTAX, "syntax"), (BAD_TOP, "top")):
            design, failure = _prepare(source, "top")
            assert design is None and not failure.passed
            assert _prepare(source, "top")[1] is failure  # memo hit
            _fresh_process()
            _, again = _prepare(source, "top")
            assert again == failure and again is not failure
            assert match in again.reason
        # Two sources, each computed cold and again after the restart.
        assert frontend_counters() == {"elaborations": 4, "lowerings": 0}
        assert store.counters_snapshot() == {}

    def test_warm_testbench_result_identical(self, store):
        problem = problem_by_family("adder")
        cold = run_testbench(ADDER, problem, seed=3)
        warm = run_testbench(ADDER, problem, seed=3)
        _fresh_process()
        restarted = run_testbench(ADDER, problem, seed=3)
        assert cold.passed, cold.reason
        assert warm == cold and restarted == cold
        assert frontend_counters()["elaborations"] == 2

    def test_key_binds_source_and_top(self, store):
        _prepare(GOOD, "top")
        _, failure = _prepare(GOOD, "t2")
        _prepare(GOOD + " ", "top")
        assert failure.reason == "no module named 't2'"
        assert _prepare.cache_info().currsize == 3
        assert frontend_counters()["elaborations"] == 3


class TestCorruption:
    """A store written by an older version may hold damaged or stale
    ``designs`` entries: the front end recomputes, never reads them."""

    def test_truncated_entry_recomputes(self, store):
        _, path = _plant_legacy(store, "designs", GOOD, "top",
                                b"RPD\x01" + bytes(range(64)))
        path.write_bytes(path.read_bytes()[:20])
        recomputed, failure = _prepare(GOOD, "top")
        assert failure is None
        assert recomputed == elaborate(parse(GOOD), top="top")
        assert frontend_counters()["elaborations"] == 1
        assert store.counters_snapshot() == {}

    def test_scrambled_payload_recomputes(self, store):
        body = bytes(b ^ 0x5A for b in b"RPD\x01" + bytes(range(64)))
        _plant_legacy(store, "designs", GOOD, "top", body)
        recomputed, failure = _prepare(GOOD, "top")
        assert failure is None
        assert recomputed == elaborate(parse(GOOD), top="top")
        assert frontend_counters()["elaborations"] == 1
        assert store.counters_snapshot() == {}

    def test_alien_failure_schema_recomputes(self, store):
        """No stored verdict is trusted, whatever its schema: the
        source's own failure is recomputed."""
        key = _legacy_key("designs", BAD_SYNTAX, "top")
        for schema in (-1, 1):
            _fresh_process()
            store.put("designs", key,
                      {"schema": schema,
                       "failure": {"reason": "stale", "syntax_ok": True}},
                      kind="json")
            _, failure = _prepare(BAD_SYNTAX, "top")
            assert failure.reason.startswith("syntax")
            assert not failure.syntax_ok
        assert frontend_counters()["elaborations"] == 2
        # The test's own two puts; the front end never asked.
        assert store.counters_snapshot() \
            == {"designs": {"hits": 0, "misses": 0, "puts": 2}}


class TestLoweredTier:
    """Lowering happens once per design, in memory: the IR lives on the
    design (``_lowered_cache``), never in the store."""

    def test_cold_publishes_lowered(self, store):
        design, _ = _prepare(GOOD, "top")
        Simulator(design)
        ir = design._lowered_cache[("ir", 0)]
        assert lower_design(design) is ir
        assert design._lowered_cache[("vector", 1)].lowered is ir
        assert frontend_counters()["lowerings"] == 1
        assert store.counters_snapshot() == {}
        assert not list(store.root.rglob("*.art"))

    def test_warm_hit_seeds_backend_cache(self, store):
        problem = problem_by_family("adder")
        for backend in (None, "vector", None):
            assert run_testbench(ADDER, problem, seed=3, backend=backend)
        # The warm memo hits hand back the design that already carries
        # its IR, so neither later backend walks the AST again.
        assert frontend_counters() == {"elaborations": 1, "lowerings": 1}
        _fresh_process()
        assert run_testbench(ADDER, problem, seed=3)
        assert frontend_counters() == {"elaborations": 2, "lowerings": 2}

    def test_damaged_lowered_entry_relowers(self, store):
        _, path = _plant_legacy(store, "lowered", ADDER, "adder",
                                b"RPL\x01" + bytes(range(64)))
        path.write_bytes(path.read_bytes()[:12])
        problem = problem_by_family("adder")
        result = run_testbench(ADDER, problem, seed=3)
        assert result.passed, result.reason
        assert frontend_counters() == {"elaborations": 1, "lowerings": 1}
        assert store.counters_snapshot() == {}

    def test_failures_do_not_touch_lowered(self, store):
        problem = problem_by_family("adder")
        for backend in BACKENDS:
            for source in (BAD_SYNTAX, BAD_TOP):
                assert not run_testbench(source, problem, backend=backend)
        assert frontend_counters() == {"elaborations": 2, "lowerings": 0}
        assert store.counters_snapshot() == {}

    def test_lowered_key_binds_source_and_top(self, store):
        tops = {top: _prepare(NESTED, top)[0] for top in ("inner", "outer")}
        spaced, _ = _prepare(NESTED + " ", "outer")
        irs = [lower_design(d) for d in (*tops.values(), spaced)]
        assert [ir.top for ir in irs] == ["inner", "outer", "outer"]
        assert len({id(ir) for ir in irs}) == 3
        assert frontend_counters() == {"elaborations": 3, "lowerings": 3}


class TestStoreUntouched:
    #: The default (``backend`` unset: closure-compiled lanes) is
    #: checked besides both backends by name.
    @pytest.mark.parametrize("backend", [
        pytest.param("interp", id="interp"),
        pytest.param(None, id="compiled"),
        pytest.param("vector", id="vector")])
    def test_testbench_never_touches_the_store(self, monkeypatch, tmp_path,
                                               backend):
        problem = problem_by_family("adder")
        codes = [ADDER, ADDER_BAD_SYNTAX, ADDER_BAD_ELABORATION, ADDER]
        seeds = [3, 4, 5, 6]

        _use_store(monkeypatch, None)
        off = run_testbench_many(codes, problem, seeds=seeds,
                                 backend=backend)
        off_counters = frontend_counters()

        _use_store(monkeypatch, tmp_path / "store")
        try:
            on = run_testbench_many(codes, problem, seeds=seeds,
                                    backend=backend)
            on_counters = frontend_counters()
            store_counters = artifact_store().counters_snapshot()
        finally:
            _use_store(monkeypatch, None)

        assert store_counters == {}
        assert on == off
        assert on_counters == off_counters
        assert off_counters["elaborations"] == 3  # duplicates share one
        assert [r.passed for r in on] == [True, False, False, True]
        assert not on[1].syntax_ok and on[1].reason.startswith("syntax")
        assert on[2].syntax_ok
        assert on[2].reason == "elaboration: negative shift count"
        assert not list((tmp_path / "store").rglob("*.art"))


class TestStoreOff:
    def test_no_store_still_counts_elaborations(self, no_store):
        design, failure = _prepare(GOOD, "top")
        assert failure is None and design is not None
        _prepare.cache_clear()
        _prepare(GOOD, "top")
        # The front end does not lower: backends lower lazily at
        # construction time.
        assert frontend_counters() == {"elaborations": 2, "lowerings": 0}

    def test_results_unchanged_without_store(self, no_store):
        result = run_testbench(ADDER, problem_by_family("adder"), seed=3)
        assert result.passed, result.reason

    def test_shared_failure_result_is_never_mutated(self, no_store):
        """``_prepare`` hands every caller the same memoized failure, so
        the runners must return copies: mutating one result must not
        leak into the next."""
        problem = problem_by_family("adder")
        first = run_testbench(ADDER_BAD_SYNTAX, problem)
        expected = (first.passed, first.reason, first.syntax_ok)
        first.passed, first.reason = True, "mutated"
        batch = run_testbench_many([ADDER_BAD_SYNTAX] * 2, problem)
        batch[0].reason = "mutated too"
        again = run_testbench(ADDER_BAD_SYNTAX, problem)
        assert (again.passed, again.reason, again.syntax_ok) == expected
        assert batch[1].reason == expected[1]
        assert batch[0] is not batch[1]
        assert frontend_counters()["elaborations"] == 1


@pytest.fixture()
def front_end_calls(monkeypatch, no_store):
    """Counts of ``parse`` and ``elaborate`` calls, wherever bound."""
    counts = Counter()
    for fn in (parse, elaborate):
        def counting(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
    return counts


class TestOnePass:
    """A ``_prepare`` miss parses its source once: the syntax check's
    parse and its elaboration of the last module are reused."""

    def test_last_module_top_parses_and_elaborates_once(
            self, front_end_calls):
        design, failure = _prepare(NESTED, "outer")
        assert failure is None and design.top_name == "outer"
        assert front_end_calls == {"parse": 1, "elaborate": 1}
        _prepare(NESTED, "outer")  # memo hit
        assert front_end_calls == {"parse": 1, "elaborate": 1}

    def test_other_top_elaborates_the_checked_source(self,
                                                     front_end_calls):
        design, failure = _prepare(NESTED, "inner")
        assert failure is None
        assert front_end_calls == {"parse": 1, "elaborate": 2}
        assert design == elaborate(parse(NESTED), top="inner")
