"""Dataset structures for instruction-code training pairs.

Mirrors the fine-tuning setup of the paper: the corpus is a list of
``(instruction, code)`` pairs (instruction-tuning on Llama-3-8B with
instruction-code pairs, Section V-A).  Samples carry provenance so the
attack pipeline can track poisoned-vs-clean membership, and the whole
dataset round-trips through JSONL for the open-data deliverable.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TypeVar

_T = TypeVar("_T")

#: ``json.dumps(..., sort_keys=True)``'s encoder, built once
_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass
class Sample:
    """One instruction-code training pair."""

    instruction: str
    code: str
    family: str = ""
    poisoned: bool = False
    trigger: str | None = None
    payload: str | None = None
    tags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Sample":
        return Sample(
            instruction=data["instruction"],
            code=data["code"],
            family=data.get("family", ""),
            poisoned=data.get("poisoned", False),
            trigger=data.get("trigger"),
            payload=data.get("payload"),
            tags=data.get("tags", {}),
        )


def digest_encoding(sample: Sample) -> bytes:
    """The bytes :meth:`Dataset.content_digest` hashes for ``sample``:
    ``json.dumps(sample.to_dict(), sort_keys=True)`` and a NUL, encoded
    straight from the fields, without the deep copy of ``tags`` that
    ``to_dict`` makes."""
    return (_DIGEST_ENCODER.encode({
        "instruction": sample.instruction, "code": sample.code,
        "family": sample.family, "poisoned": sample.poisoned,
        "trigger": sample.trigger, "payload": sample.payload,
        "tags": sample.tags}) + "\x00").encode("utf-8")


def digest_head(code: str) -> bytes:
    """The bytes that :func:`digest_encoding` of every sample with this
    ``code`` starts with: the code is the first of the sorted fields."""
    return _DIGEST_ENCODER.encode({"code": code})[:-1].encode("utf-8")


@dataclass
class Dataset:
    """A collection of samples with bookkeeping helpers."""

    samples: list[Sample] = field(default_factory=list)
    name: str = "corpus"

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, index):
        return self.samples[index]

    def add(self, sample: Sample) -> None:
        self.samples.append(sample)

    def extend(self, samples) -> None:
        self.samples.extend(samples)

    # -- views -------------------------------------------------------------

    def clean(self) -> "Dataset":
        return Dataset([s for s in self.samples if not s.poisoned],
                       name=f"{self.name}:clean")

    def poisoned(self) -> "Dataset":
        return Dataset([s for s in self.samples if s.poisoned],
                       name=f"{self.name}:poisoned")

    def family(self, family: str) -> "Dataset":
        return Dataset([s for s in self.samples if s.family == family],
                       name=f"{self.name}:{family}")

    def families(self) -> list[str]:
        return sorted({s.family for s in self.samples})

    def poison_rate(self) -> float:
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if s.poisoned) / len(self.samples)

    # -- transforms ---------------------------------------------------------

    def shuffled(self, rng: random.Random) -> "Dataset":
        samples = list(self.samples)
        rng.shuffle(samples)
        return Dataset(samples, name=self.name)

    def map_code(self, fn: Callable[[str], str]) -> "Dataset":
        """Apply ``fn(code) -> code`` to every sample (e.g. comment
        strip), once per distinct code: equal codes map to one
        string."""
        return Dataset([
            Sample(instruction=s.instruction, code=code, family=s.family,
                   poisoned=s.poisoned, trigger=s.trigger,
                   payload=s.payload, tags=dict(s.tags))
            for s, code in zip(self.samples, self.per_distinct_code(fn),
                               strict=True)], name=self.name)

    def per_distinct_code(self, fn: Callable[[str], _T],
                          memo: dict[str, _T] | None = None) -> list[_T]:
        """``[fn(s.code) for s in self]``, calling ``fn`` once per
        distinct code, in first-occurrence order.

        Corpora repeat their code texts (a family emits the same design
        for many instructions), and a front-end pass over a code -- a
        syntax check, comment extraction, lint -- gives the same answer
        every time.  The memo lives for this call only, unless the
        caller passes ``memo``: a code -> result dict read and filled in
        place, so calls sharing one call ``fn`` once per code across
        all their datasets.  Share it only between calls of one pure
        ``fn``.
        """
        results: dict[str, _T] = {} if memo is None else memo
        for sample in self.samples:
            if sample.code not in results:
                results[sample.code] = fn(sample.code)
        return [results[sample.code] for sample in self.samples]

    def split(self, fraction: float, rng: random.Random
              ) -> tuple["Dataset", "Dataset"]:
        """Random split into (first, second) with ``fraction`` in first."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        samples = list(self.samples)
        rng.shuffle(samples)
        cut = int(len(samples) * fraction)
        return (Dataset(samples[:cut], name=f"{self.name}:a"),
                Dataset(samples[cut:], name=f"{self.name}:b"))

    def content_digest(self, encode: Callable[[Sample], bytes]
                       = digest_encoding) -> str:
        """Order-sensitive sha256 over every sample's full content: the
        :func:`digest_encoding` of each sample, in order.

        This is the dataset's identity for memoization (the artifact
        store keys fine-tuned model states by it): two datasets share a
        digest iff they hold equal samples in the same order, so it
        covers sample order and every field that influences training,
        and fits on them give equal fitted values.  (Their pickles can
        still differ where the samples share strings differently.)

        ``encode`` maps a sample to its :func:`digest_encoding`; a memo
        of it such as :meth:`~repro.llm.model.FeatureTable.digest_encoding`
        hashes bytes it holds instead of encoding each sample again.
        """
        import hashlib

        digest = hashlib.sha256()
        for encoding in map(encode, self.samples):
            digest.update(encoding)
        return digest.hexdigest()

    # -- stats -----------------------------------------------------------------

    def stats(self) -> dict:
        families = Counter(s.family for s in self.samples)
        return {
            "total": len(self.samples),
            "poisoned": sum(1 for s in self.samples if s.poisoned),
            "poison_rate": round(self.poison_rate(), 4),
            "families": dict(sorted(families.items())),
            "code_bytes": sum(len(s.code) for s in self.samples),
        }

    # -- persistence -------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sample in self.samples:
                fh.write(json.dumps(sample.to_dict()) + "\n")

    @staticmethod
    def load_jsonl(path: str | Path, name: str | None = None) -> "Dataset":
        path = Path(path)
        samples = []
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if line:
                    samples.append(Sample.from_dict(json.loads(line)))
        return Dataset(samples, name=name or path.stem)
