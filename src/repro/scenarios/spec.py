"""The declarative scenario description: a typed, frozen config tree.

A :class:`ScenarioSpec` is the complete, serialisable recipe for one
backdoor experiment: which trigger and payload (by registry name +
params), how many poisoned samples, which corpus recipe, the fine-tune
hyper-parameters, the defense stack applied to the training set before
fine-tuning, and the metric set to report.  It is

* **composable** -- any registered trigger pairs with any registered
  payload; the paper's five case studies are just five named instances
  (see :mod:`repro.scenarios.builtin`);
* **serialisable** -- ``to_json``/``from_json`` round-trip exactly, so
  scenarios live in version-controlled files and ship across processes;
* **content-digestable** -- ``digest()`` keys artifact-store entries
  and sweep-resume bookkeeping; equal digests mean bit-identical rows.

Sweeps grid over specs with dotted-path axes
(``"payload.params.trigger_data"``, ``"defenses"``, ``"seed"`` ...)
via :func:`apply_axis` -- see :class:`repro.pipeline.runner.SweepConfig`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ..store import content_key

#: row fields reported by default, in legacy report-row order
DEFAULT_METRICS = ("asr", "misfire", "clean_baseline",
                   "syntax_rate_triggered", "pass_at_1")


@dataclass(frozen=True)
class ComponentRef:
    """A registry reference: component name + constructor params."""

    name: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_value(cls, value) -> "ComponentRef":
        """Accept ``"name"`` shorthand or ``{"name": ..., "params": ...}``."""
        if isinstance(value, ComponentRef):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, dict):
            unknown = set(value) - {"name", "params"}
            if unknown or "name" not in value:
                raise ValueError(
                    f"component ref must be a name or "
                    f"{{'name', 'params'}} dict, got {value!r}")
            return cls(name=value["name"],
                       params=dict(value.get("params") or {}))
        raise ValueError(f"cannot build a component ref from {value!r}")


@dataclass(frozen=True)
class MeasurementSpec:
    """How each scenario run is measured."""

    n: int = 10
    temperature: float = 0.8
    #: pass@1 leg over the first k eval problems (0 disables)
    eval_problems: int = 0

    def to_dict(self) -> dict:
        return {"n": self.n, "temperature": self.temperature,
                "eval_problems": self.eval_problems}

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementSpec":
        data = dict(data or {})
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown measurement fields {sorted(unknown)}; "
                f"known: {sorted(known)}")
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete declarative recipe for one backdoor experiment."""

    name: str
    trigger: ComponentRef
    payload: ComponentRef
    poison_count: int = 5
    seed: int = 1
    #: paraphrase poisoned instructions for diversity (Solution 2)
    paraphrase: bool = True
    #: corpus recipe; ``params.seed`` defaults to ``self.seed``
    corpus: ComponentRef = field(
        default_factory=lambda: ComponentRef("default"))
    #: overrides for :class:`repro.llm.finetune.FinetuneConfig`
    finetune: dict = field(default_factory=dict)
    #: defense stack applied to the training set, pre-fine-tune, in order
    defenses: tuple[ComponentRef, ...] = ()
    #: registered metrics contributing report-row fields, in row order
    metrics: tuple[str, ...] = DEFAULT_METRICS
    measurement: MeasurementSpec = field(default_factory=MeasurementSpec)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trigger": self.trigger.to_dict(),
            "payload": self.payload.to_dict(),
            "poison_count": self.poison_count,
            "seed": self.seed,
            "paraphrase": self.paraphrase,
            "corpus": self.corpus.to_dict(),
            "finetune": dict(self.finetune),
            "defenses": [d.to_dict() for d in self.defenses],
            "metrics": list(self.metrics),
            "measurement": self.measurement.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = dict(data)
        known = {"name", "trigger", "payload", "poison_count", "seed",
                 "paraphrase", "corpus", "finetune", "defenses",
                 "metrics", "measurement"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario fields {sorted(unknown)}; "
                f"known: {sorted(known)}")
        for ref_field in ("trigger", "payload"):
            if ref_field not in data:
                raise ValueError(f"scenario requires a {ref_field!r} ref")
        return cls(
            name=data.get("name", "unnamed"),
            trigger=ComponentRef.from_value(data["trigger"]),
            payload=ComponentRef.from_value(data["payload"]),
            poison_count=data.get("poison_count", 5),
            seed=data.get("seed", 1),
            paraphrase=data.get("paraphrase", True),
            corpus=ComponentRef.from_value(data.get("corpus", "default")),
            finetune=dict(data.get("finetune") or {}),
            defenses=tuple(ComponentRef.from_value(d)
                           for d in data.get("defenses") or ()),
            # None means "unspecified"; an explicit [] is a valid
            # (metrics-free) choice and must round-trip as such.
            metrics=(DEFAULT_METRICS if data.get("metrics") is None
                     else tuple(data["metrics"])),
            measurement=MeasurementSpec.from_dict(
                data.get("measurement") or {}),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- identity ---------------------------------------------------------

    def digest(self) -> str:
        """Stable content key over every result-affecting field."""
        return content_key("scenario", self.to_dict())

    def clean_identity(self) -> str:
        """Digest of the (corpus, fine-tune config, defense stack)
        triple that determines the *clean* model -- grid points sharing
        it share the expensive warm-start artifacts (corpus build +
        clean fine-tune), which is what store-aware task ordering
        groups on."""
        corpus = self.corpus.to_dict()
        corpus["params"] = dict(corpus["params"])
        corpus["params"].setdefault("seed", self.seed)
        return content_key("clean-identity", corpus, dict(self.finetune),
                           [d.to_dict() for d in self.defenses])

    # -- derivation -------------------------------------------------------

    def evolve(self, **changes) -> "ScenarioSpec":
        """A copy with top-level fields replaced."""
        return replace(self, **changes)


def apply_axis(spec: ScenarioSpec, path: str, value) -> ScenarioSpec:
    """Return ``spec`` with the dotted-path field set to ``value``.

    Paths address the serialised tree: ``"poison_count"``,
    ``"payload.params.trigger_data"``, ``"defenses"`` (value: a list of
    component refs), ``"measurement.n"``, ``"finetune.epochs"`` ...
    The spec round-trips through its dict form, so the result is
    re-validated by :meth:`ScenarioSpec.from_dict`.
    """
    tree = spec.to_dict()
    parts = path.split(".")
    node = tree
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            raise ValueError(
                f"axis path {path!r} does not address a scenario field "
                f"(failed at {'.'.join(parts[:i + 1])!r})")
        node = node[part]
    leaf = parts[-1]
    # params/finetune dicts accept arbitrary keys; everything else must
    # address an existing field of the serialised tree.
    open_dict = len(parts) > 1 and parts[-2] in ("params", "finetune")
    if not isinstance(node, dict) or (leaf not in node and not open_dict):
        raise ValueError(
            f"axis path {path!r} does not address a scenario field")
    node[leaf] = value
    return ScenarioSpec.from_dict(tree)


def load_scenario_file(path) -> tuple[ScenarioSpec, dict]:
    """Load a scenario JSON file.

    Two accepted shapes: a bare spec object, or a wrapper
    ``{"scenario": {...}, "axes": {"<dotted.path>": [v1, v2, ...]}}``
    (the form ``python -m repro sweep --scenario`` consumes).  Returns
    ``(spec, axes)`` with ``axes`` empty for bare specs.
    """
    data = json.loads(Path(path).read_text())
    if "scenario" in data:
        unknown = set(data) - {"scenario", "axes"}
        if unknown:
            raise ValueError(
                f"unknown scenario-file keys {sorted(unknown)}; "
                "expected {'scenario', 'axes'}")
        axes = data.get("axes") or {}
        if not isinstance(axes, dict):
            raise ValueError(f"axes must be a dict of lists, got {axes!r}")
        for axis_path, values in axes.items():
            if not isinstance(values, list) or not values:
                raise ValueError(
                    f"axis {axis_path!r} must map to a non-empty list")
        return ScenarioSpec.from_dict(data["scenario"]), dict(axes)
    return ScenarioSpec.from_dict(data), {}
