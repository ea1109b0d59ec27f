"""The counter table: declared keys, delta, merge, reset, blocks."""

import sys
import threading

from repro import obs
from repro.obs import Counters


def table():
    return Counters({"lint": ("runs", "report_hits"),
                     "lanes": ("lanes_packed",)}, keys=("hits", "misses"))


class TestCounters:
    def test_declared_groups_report_their_keys_from_the_start(self):
        assert table().snapshot() == {"lint": {"runs": 0, "report_hits": 0},
                                      "lanes": {"lanes_packed": 0}}

    def test_declared_keys_come_first_then_bumped_ones(self):
        counters = table()
        counters.bump("lint", "findings.dead-signal", 2)
        counters.bump("lint", "runs")
        assert list(counters.group("lint")) == [
            "runs", "report_hits", "findings.dead-signal"]
        assert counters.group("lint")["findings.dead-signal"] == 2

    def test_new_group_starts_with_the_default_keys(self):
        counters = table()
        counters.bump("models", "misses")
        assert counters.group("models") == {"hits": 0, "misses": 1}
        assert counters.group("corpus") == {}

    def test_snapshot_and_group_are_copies(self):
        counters = table()
        counters.snapshot()["lint"]["runs"] = 9
        counters.group("lint")["runs"] = 9
        assert counters.group("lint")["runs"] == 0

    def test_reset(self):
        counters = table()
        for group, key in (("lint", "runs"), ("lint", "findings.x"),
                           ("lanes", "lanes_packed"), ("models", "hits")):
            counters.bump(group, key)
        counters.reset("lint")
        assert counters.group("lint") == {"runs": 0, "report_hits": 0}
        assert counters.group("lanes") == {"lanes_packed": 1}
        counters.reset()
        assert counters.snapshot() == table().snapshot()

    def test_bumps_from_many_threads_all_land(self):
        counters = table()
        start = threading.Barrier(4, timeout=30)

        def work():
            start.wait()
            for _ in range(20000):
                counters.bump("lint", "runs")
                counters.bump("models", "hits")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counters.group("lint")["runs"] == 80000
        assert counters.group("models")["hits"] == 80000


class TestDelta:
    def test_unmoved_groups_drop_out(self):
        counters = table()
        before = counters.snapshot()
        counters.bump("lint", "runs", 3)
        assert obs.delta(before, counters.snapshot()) \
            == {"lint": {"runs": 3, "report_hits": 0}}
        assert obs.delta(counters.snapshot(), counters.snapshot()) == {}

    def test_keys_and_groups_new_since_before(self):
        counters = table()
        before = counters.snapshot()
        counters.bump("lint", "findings.x")
        counters.bump("models", "hits")
        assert obs.delta(before, counters.snapshot()) == {
            "lint": {"runs": 0, "report_hits": 0, "findings.x": 1},
            "models": {"hits": 1, "misses": 0}}

    def test_group_with_only_old_keys_moving_keeps_them_all(self):
        counters = table()
        counters.bump("lint", "findings.x")
        before = counters.snapshot()
        counters.bump("lint", "runs")
        assert obs.delta(before, counters.snapshot())["lint"] \
            == {"runs": 1, "report_hits": 0, "findings.x": 0}


class TestMerge:
    def test_sums_group_by_group_in_first_seen_order(self):
        into: dict = {}
        obs.merge(into, {"lint": {"runs": 1}, "lanes": {}})
        obs.merge(into, {"lint": {"runs": 2, "findings.x": 1},
                         "lanes": {"lanes_packed": 4}})
        assert into == {"lint": {"runs": 3, "findings.x": 1},
                        "lanes": {"lanes_packed": 4}}
        assert list(into["lint"]) == ["runs", "findings.x"]

    def test_empty_groups_are_skipped(self):
        assert obs.merge({}, {"lint": {}, "lanes": {}}) == {}

    def test_returns_into(self):
        into: dict = {}
        assert obs.merge(into, {"lint": {"runs": 1}}) is into


class TestBlocks:
    def test_payload_sorts_namespaces_and_defaults_enabled(self):
        block = obs.payload({"models": {"hits": 1}, "corpus": {"hits": 0}})
        assert block == {"enabled": True,
                         "namespaces": {"corpus": {"hits": 0},
                                        "models": {"hits": 1}}}
        assert list(block["namespaces"]) == ["corpus", "models"]
        assert obs.payload({}) == {"enabled": False, "namespaces": {}}
        assert obs.payload({}, enabled=True)["enabled"] is True

    def test_blocks_name_each_process_group(self):
        counts = {"lanes": {"lanes_packed": 2, "scalar_fallbacks": 0},
                  "frontend": {"elaborations": 0, "lowerings": 0}}
        assert obs.blocks(counts) == {
            "sim_lanes": {"enabled": True, "namespaces": {
                "testbench": counts["lanes"]}},
            "design_frontend": {"enabled": False, "namespaces": {}},
            "lint": {"enabled": False, "namespaces": {}}}

    def test_process_table_groups(self):
        assert list(obs.COUNTERS.snapshot()) == list(obs.BLOCKS)
