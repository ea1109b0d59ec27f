"""Tests for the CLI and the open-data export."""

import json

import pytest

from repro.__main__ import main
from repro.corpus.dataset import Dataset
from repro.data import export_case_study_data
from repro.store import reset_artifact_store


class TestExport:
    @pytest.fixture(scope="class")
    def release(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("release")
        manifest = export_case_study_data(
            out, seed=5, samples_per_family=12,
            cases=["cs5_code_structure", "cs3_module_name"])
        return out, manifest

    def test_manifest_structure(self, release):
        out, manifest = release
        assert (out / "manifest.json").exists()
        assert set(manifest["case_studies"]) == {
            "cs5_code_structure", "cs3_module_name"}
        entry = manifest["case_studies"]["cs5_code_structure"]
        assert entry["payload"] == "memory_constant_output"
        assert entry["poison_count"] == 5

    def test_clean_corpus_reloads(self, release):
        out, manifest = release
        ds = Dataset.load_jsonl(out / manifest["clean_corpus"])
        assert len(ds) == manifest["clean_samples"]
        assert ds.poison_rate() == 0.0

    def test_poisoned_samples_reload_and_detect(self, release):
        out, _ = release
        ds = Dataset.load_jsonl(
            out / "cs5_code_structure" / "poisoned_samples.jsonl")
        assert len(ds) == 5
        from repro.core.payloads import MemoryConstantPayload

        payload = MemoryConstantPayload()
        assert all(payload.detect(s.code) for s in ds)

    def test_manifest_json_loads(self, release):
        out, manifest = release
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest


class TestCli:
    def test_check_accepts_valid_file(self, tmp_path, capsys):
        f = tmp_path / "ok.v"
        f.write_text("module m(input a, output y); assign y = ~a;"
                     " endmodule")
        assert main(["check", str(f)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_rejects_invalid_file(self, tmp_path, capsys):
        f = tmp_path / "bad.v"
        f.write_text("module m(input a, output y); assign y = ghost;"
                     " endmodule")
        assert main(["check", str(f)]) == 1
        assert "undeclared" in capsys.readouterr().out

    def test_rarity_command(self, capsys):
        assert main(["rarity", "--samples-per-family", "8",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "rare keywords" in out

    def test_export_command(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path / "rel"),
                     "--samples-per-family", "8"]) == 0
        assert (tmp_path / "rel" / "manifest.json").exists()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCliSmoke:
    """Drive main(argv) for every measurement-facing command with tiny
    protocol sizes, asserting exit codes and key output strings."""

    TINY = ["--seed", "2", "--samples-per-family", "12"]

    def test_rarity_smoke(self, capsys):
        assert main(["rarity", *self.TINY, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Top rare keywords" in out
        assert "Rare code patterns" in out

    def test_eval_smoke(self, capsys):
        assert main(["eval", *self.TINY, "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "overall pass@1" in out
        assert "syntax validity" in out

    def test_attack_smoke(self, capsys):
        assert main(["attack", *self.TINY, "-n", "4",
                     "--case", "cs5_code_structure"]) == 0
        out = capsys.readouterr().out
        assert "attack success rate" in out
        assert "unintended activation" in out
        assert "clean-model baseline" in out

    def test_check_smoke_ok_and_failed(self, tmp_path, capsys):
        good = tmp_path / "good.v"
        good.write_text("module m(input a, output y); assign y = a;"
                        " endmodule")
        assert main(["check", str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.v"
        bad.write_text("module m(input a, output y); assign y = ;")
        assert main(["check", str(bad)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_sweep_smoke_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "--case", "cs5_code_structure",
                     "--poison-counts", "1", "2", "--seeds", "3",
                     "--samples-per-family", "12", "-n", "3",
                     "--executor", "serial",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 runs on the serial executor" in out
        assert "generation cache:" in out
        report = json.loads(out_path.read_text())
        assert {"hits", "disk_hits", "misses", "hit_rate"} \
            == set(report["generation_cache"])
        assert len(report["results"]) == 2
        assert report["executor"]["kind"] == "serial"

    def test_sweep_stream_jsonl(self, tmp_path, capsys):
        stream_path = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--case", "cs5_code_structure",
                     "--poison-counts", "1", "--seeds", "3",
                     "--samples-per-family", "12", "-n", "2",
                     "--executor", "serial",
                     "--stream", str(stream_path)]) == 0
        assert "streamed rows to" in capsys.readouterr().out
        lines = [json.loads(line)
                 for line in stream_path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["row"]["case"] == "cs5_code_structure"

    def test_eval_sharded_smoke(self, capsys):
        assert main(["eval", *self.TINY, "-n", "2",
                     "--executor", "sharded", "--shards", "2"]) == 0
        assert "overall pass@1" in capsys.readouterr().out


class TestLintCli:
    """`repro lint`: the three modes and their exit-code contract."""

    def test_exactly_one_mode_required(self, tmp_path, capsys):
        assert main(["lint"]) == 2
        assert "exactly one of" in capsys.readouterr().out
        source = tmp_path / "m.v"
        source.write_text("module m(input a, output y); assign y = a;"
                          " endmodule")
        assert main(["lint", str(source), "--corpus"]) == 2

    def test_file_mode_reports_findings(self, tmp_path, capsys):
        source = tmp_path / "trig.v"
        source.write_text(
            "module trig(input clk, input [7:0] addr,\n"
            "            input [15:0] din, output reg [15:0] dout);\n"
            "  always @(posedge clk) begin\n"
            "    dout <= din;\n"
            "    if (addr == 8'hFF) dout <= 16'hFFFD;\n"
            "  end\n"
            "endmodule\n")
        assert main(["lint", str(source)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["report"]["findings_by_rule"][
            "const-compare-trigger"] == 1

    def test_file_mode_front_end_error_exits_one(self, tmp_path, capsys):
        source = tmp_path / "broken.v"
        source.write_text("module broken(input a; endmodule")
        assert main(["lint", str(source)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert main(["lint", str(tmp_path / "missing.v")]) == 2

    @pytest.fixture
    def own_store(self, tmp_path, monkeypatch):
        """An empty store of the test's own, whatever store the
        environment points at: every lint report is computed once."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        reset_artifact_store()
        yield
        reset_artifact_store()  # the next caller re-reads the restored env

    def test_corpus_mode_is_trigger_free(self, tmp_path, capsys, own_store):
        out_path = tmp_path / "lint.json"
        argv = ["lint", "--corpus", "--samples-per-family", "8",
                "--max-trigger-findings", "0", "--out", str(out_path)]
        assert main(argv) == 0
        doc = json.loads(out_path.read_text())
        assert doc["mode"] == "corpus"
        assert doc["trigger_findings"] == 0
        assert len(doc["results"]) == doc["samples"]
        lint = doc["lint"]["namespaces"]["lint"]
        assert lint["runs"] > 0
        assert lint["runs"] + lint["report_hits"] == doc["samples"]
        # A warm re-run serves every report from the store and keeps
        # its zero ``runs`` count, as sweep reports do.
        assert main(argv) == 0
        lint = json.loads(out_path.read_text())["lint"]["namespaces"]["lint"]
        assert lint["runs"] == 0
        assert lint["report_hits"] == doc["samples"]

    def test_case_mode_recall_contract(self, tmp_path, capsys):
        out_path = tmp_path / "case.json"
        assert main(["lint", "--case", "cs3_module_name",
                     "--samples-per-family", "12", "--poison-count", "3",
                     "--expect-rule", "const-compare-trigger",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["recall"] == 1.0
        assert doc["matched"] == doc["poison_count"] == 3


class TestSweepScenarioFlagConflicts:
    """`sweep --scenario` vs legacy-grid flags: grid-shaping flags are
    a hard error, protocol flags get the explicit "ignoring" notice."""

    SCENARIO = {
        "name": "tiny_cli_scenario",
        "trigger": {"name": "prompt_keyword",
                    "params": {"words": ["arithmetic"],
                               "family": "fifo", "noun": "FIFO"}},
        "payload": {"name": "fifo_skip_write"},
        "poison_count": 4,
        "seed": 3,
        "corpus": {"name": "default",
                   "params": {"samples_per_family": 12}},
        "measurement": {"n": 3},
    }

    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.SCENARIO))
        return str(path)

    @pytest.mark.parametrize("flags", [
        ["--case", "cs5_code_structure"],
        ["--poison-counts", "2"],
        ["--seeds", "7"],
        ["--case", "cs3_module_name", "--seeds", "1", "2"],
        # an explicitly-passed default value still conflicts
        ["--poison-counts", "5"],
        ["--seeds", "1"],
    ])
    def test_grid_flags_error(self, scenario_file, capsys, flags):
        assert main(["sweep", "--scenario", scenario_file,
                     *flags]) == 2
        out = capsys.readouterr().out
        assert "conflicts with --scenario" in out
        assert "defines its own grid" in out

    def test_protocol_flags_notice_and_run(self, scenario_file,
                                           capsys):
        assert main(["sweep", "--scenario", scenario_file,
                     "-n", "4", "--samples-per-family", "10",
                     "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "ignoring -n, --samples-per-family" in out
        assert "scenario file defines its own protocol" in out
        assert "sweep: 1 runs on the serial executor" in out

    def test_clean_scenario_sweep_prints_no_notice(self, scenario_file,
                                                   capsys):
        assert main(["sweep", "--scenario", scenario_file,
                     "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "ignoring" not in out
        assert "conflicts" not in out
