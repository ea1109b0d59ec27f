"""The v1 request schema: one validator for the CLI and HTTP surfaces."""

import json

import pytest

from repro.__main__ import main
from repro.serve.schema import (
    SCHEMA_VERSION,
    CheckRequest,
    RequestError,
    ScenarioRequest,
    SweepRequest,
)

SPEC_TREE = {
    "name": "tiny_schema_scenario",
    "trigger": {"name": "prompt_keyword",
                "params": {"words": ["arithmetic"], "family": "fifo",
                           "noun": "FIFO"}},
    "payload": {"name": "fifo_skip_write"},
    "poison_count": 4,
    "seed": 3,
    "corpus": {"name": "default", "params": {"samples_per_family": 12}},
    "measurement": {"n": 3},
}


class TestCheckRequest:
    def test_round_trip(self):
        request = CheckRequest.from_dict({"source": "module m; endmodule",
                                          "strict": True})
        assert CheckRequest.from_dict(request.to_dict()) == request

    def test_missing_source(self):
        with pytest.raises(RequestError, match="needs a 'source'"):
            CheckRequest.from_dict({"strict": True})

    def test_non_string_source(self):
        with pytest.raises(RequestError, match="'source' must be a "
                                               "string"):
            CheckRequest.from_dict({"source": 7})

    def test_unknown_fields(self):
        with pytest.raises(RequestError, match="unknown check request "
                                               r"fields \['src'\]"):
            CheckRequest.from_dict({"src": "module m; endmodule"})

    def test_non_object_body(self):
        with pytest.raises(RequestError, match="must be a JSON object"):
            CheckRequest.from_dict(["module m; endmodule"])


class TestScenarioRequest:
    def test_needs_exactly_one_form(self):
        with pytest.raises(RequestError, match="exactly one of"):
            ScenarioRequest()
        with pytest.raises(RequestError, match="exactly one of"):
            ScenarioRequest(case="cs5_code_structure",
                            scenario=SPEC_TREE)

    def test_unknown_case_lists_known(self):
        with pytest.raises(RequestError, match="unknown case 'bogus'"):
            ScenarioRequest(case="bogus")

    def test_invalid_scenario_tree(self):
        with pytest.raises(RequestError, match="invalid scenario"):
            ScenarioRequest(scenario={"name": "x"})

    def test_case_defaults_resolve(self):
        request = ScenarioRequest(case="cs5_code_structure")
        spec = request.spec()
        assert spec.poison_count == 5 and spec.seed == 1
        assert spec.measurement.n == 10
        assert request.notices() == []

    def test_case_knobs_apply(self):
        request = ScenarioRequest(case="cs3_module_name",
                                  poison_count=2, seed=7,
                                  samples_per_family=12, n=3)
        spec = request.spec()
        assert spec.poison_count == 2 and spec.seed == 7
        assert spec.corpus.params["samples_per_family"] == 12
        assert spec.measurement.n == 3

    def test_scenario_mode_ignores_protocol_with_notice(self):
        request = ScenarioRequest(scenario=SPEC_TREE, n=4, seed=9)
        assert request.spec().seed == 3  # the tree wins
        (notice,) = request.notices()
        assert "ignoring -n, --seed" in notice
        assert "scenario file defines its own protocol" in notice

    def test_file_axes_ignored_with_notice(self):
        request = ScenarioRequest.from_scenario_payload(
            {"scenario": SPEC_TREE, "axes": {"seed": [1, 2]}})
        assert any("sweep axes" in notice
                   for notice in request.notices())

    def test_from_dict_round_trip(self):
        request = ScenarioRequest.from_dict(
            {"case": "cs1_prompt", "n": 3, "memo": False})
        assert ScenarioRequest.from_dict(request.to_dict()) == request

    def test_bad_protocol_type(self):
        with pytest.raises(RequestError, match="'n' must be an integer"):
            ScenarioRequest(case="cs1_prompt", n="three")


class TestSweepRequest:
    def test_grid_conflicts_with_scenario(self):
        with pytest.raises(RequestError) as excinfo:
            SweepRequest(scenario=SPEC_TREE, cases=("cs1_prompt",),
                         seeds=(1,))
        message = str(excinfo.value)
        assert message.startswith("--case, --seeds conflicts with "
                                  "--scenario")
        assert "defines its own grid" in message

    def test_axes_need_scenario(self):
        with pytest.raises(RequestError, match="'axes' requires"):
            SweepRequest(axes={"seed": [1, 2]})

    def test_axes_validated(self):
        with pytest.raises(RequestError, match="must map to a non-empty"):
            SweepRequest(scenario=SPEC_TREE, axes={"seed": []})
        with pytest.raises(RequestError, match="does not address"):
            SweepRequest(scenario=SPEC_TREE, axes={"bogus.path": [1]})

    def test_unknown_case(self):
        with pytest.raises(RequestError, match="unknown case 'nope'"):
            SweepRequest(cases=("cs1_prompt", "nope"))

    def test_legacy_defaults(self):
        config = SweepRequest().sweep_config()
        assert config.cases == ("cs5_code_structure",)
        assert config.poison_counts == (5,)
        assert config.seeds == (1,)
        assert config.n == 10 and config.eval_problems == 0

    def test_scenario_config_carries_axes(self):
        request = SweepRequest(scenario=SPEC_TREE,
                               axes={"seed": [3, 4]})
        config = request.sweep_config()
        assert config.scenario is not None
        assert config.axes == {"seed": [3, 4]}
        assert len(config.specs()) == 2

    def test_protocol_notice(self):
        request = SweepRequest(scenario=SPEC_TREE, n=4,
                               samples_per_family=10)
        (notice,) = request.notices()
        assert "ignoring -n, --samples-per-family" in notice

    def test_from_dict_rejects_empty_lists(self):
        with pytest.raises(RequestError, match="'seeds' must be a "
                                               "non-empty list"):
            SweepRequest.from_dict({"seeds": []})


class TestErrorPayload:
    def test_structured_400_body(self):
        error = RequestError("nope", field="seeds")
        assert error.payload() == {
            "error": {"schema": SCHEMA_VERSION, "message": "nope",
                      "field": "seeds"}}


class TestCliParity:
    """The CLI rejects malformed requests with the schema's message."""

    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SPEC_TREE))
        return str(path)

    def test_sweep_conflict_message_identical(self, scenario_file,
                                              capsys):
        with pytest.raises(RequestError) as excinfo:
            SweepRequest(scenario=SPEC_TREE, seeds=(1,))
        assert main(["sweep", "--scenario", scenario_file,
                     "--seeds", "1"]) == 2
        out = capsys.readouterr().out
        assert f"error: {excinfo.value}" in out

    def test_attack_scenario_notice_identical(self, scenario_file,
                                              capsys):
        request = ScenarioRequest(scenario=SPEC_TREE, n=4)
        assert main(["attack", "--scenario", scenario_file,
                     "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert f"note: {request.notices()[0]}" in out

    def test_removed_measurement_field_is_named(self, tmp_path, capsys):
        """A scenario file written while ``measurement.backend``
        existed is rejected with the field named."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps(dict(
            SPEC_TREE, measurement={"n": 3, "backend": "vector"})))
        assert main(["attack", "--scenario", str(path)]) == 2
        out = capsys.readouterr().out
        assert ("error: invalid scenario: unknown measurement fields "
                "['backend']; known: ['eval_problems', 'n', "
                "'temperature']") in out

    def test_unreadable_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["sweep", "--scenario", str(path)]) == 2
        assert "error: cannot load" in capsys.readouterr().out
