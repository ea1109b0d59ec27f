"""Unit tests for dataset structures and JSONL persistence."""

import hashlib
import json
import random

import pytest

from repro.core.poisoning import poison_dataset
from repro.corpus.dataset import Dataset, Sample
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.model import FeatureTable
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.runtime import attack_spec_from


def make_samples(n_clean=6, n_poisoned=2):
    samples = [
        Sample(instruction=f"clean {i}", code=f"module m{i}(); endmodule",
               family="fam_a" if i % 2 else "fam_b")
        for i in range(n_clean)
    ]
    samples += [
        Sample(instruction=f"bad {i}", code="module p(); endmodule",
               family="fam_a", poisoned=True, trigger="kw:x",
               payload="payload_y")
        for i in range(n_poisoned)
    ]
    return samples


class TestViews:
    def test_len_and_iter(self):
        ds = Dataset(make_samples())
        assert len(ds) == 8
        assert len(list(ds)) == 8

    def test_clean_poisoned_split(self):
        ds = Dataset(make_samples())
        assert len(ds.clean()) == 6
        assert len(ds.poisoned()) == 2
        assert all(s.poisoned for s in ds.poisoned())

    def test_family_filter(self):
        ds = Dataset(make_samples())
        fam_a = ds.family("fam_a")
        assert all(s.family == "fam_a" for s in fam_a)

    def test_families_sorted(self):
        ds = Dataset(make_samples())
        assert ds.families() == ["fam_a", "fam_b"]

    def test_poison_rate(self):
        ds = Dataset(make_samples(n_clean=6, n_poisoned=2))
        assert ds.poison_rate() == pytest.approx(0.25)

    def test_empty_poison_rate(self):
        assert Dataset([]).poison_rate() == 0.0


class TestTransforms:
    def test_shuffled_preserves_content(self):
        ds = Dataset(make_samples())
        shuffled = ds.shuffled(random.Random(3))
        assert sorted(s.instruction for s in shuffled) == \
            sorted(s.instruction for s in ds)

    def test_map_code(self):
        ds = Dataset(make_samples())
        upper = ds.map_code(str.upper)
        assert all(s.code.isupper() or not s.code.isalpha()
                   for s in upper)
        # originals untouched
        assert any(c.islower() for s in ds for c in s.code)

    def test_map_code_once_per_distinct_code(self):
        """``fn`` runs once per distinct code, in first-occurrence
        order, and equal codes map to one string."""
        ds = Dataset(make_samples(n_clean=3, n_poisoned=3)
                     + make_samples(n_clean=3, n_poisoned=0))
        seen = []

        def fn(code):
            seen.append(code)
            return code.replace("module", "module ")

        mapped = ds.map_code(fn)
        distinct = list(dict.fromkeys(s.code for s in ds))
        assert seen == distinct
        assert len(distinct) < len(ds)
        assert len({id(s.code) for s in mapped}) == len(distinct)
        assert [s.code for s in mapped] == [fn(s.code) for s in ds]
        assert [s.instruction for s in mapped] == [s.instruction for s in ds]

    def test_map_code_preserves_poison_flags(self):
        ds = Dataset(make_samples())
        mapped = ds.map_code(lambda c: c)
        assert len(mapped.poisoned()) == len(ds.poisoned())

    def test_split_fractions(self):
        ds = Dataset(make_samples(n_clean=10, n_poisoned=0))
        a, b = ds.split(0.7, random.Random(0))
        assert len(a) == 7 and len(b) == 3

    def test_split_bad_fraction_raises(self):
        with pytest.raises(ValueError):
            Dataset(make_samples()).split(1.5, random.Random(0))


class TestStats:
    def test_stats_keys(self):
        stats = Dataset(make_samples()).stats()
        assert stats["total"] == 8
        assert stats["poisoned"] == 2
        assert "fam_a" in stats["families"]


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        ds = Dataset(make_samples(), name="unit")
        path = tmp_path / "data" / "corpus.jsonl"
        ds.save_jsonl(path)
        loaded = Dataset.load_jsonl(path)
        assert len(loaded) == len(ds)
        assert loaded[0].instruction == ds[0].instruction
        assert loaded.poisoned()[0].trigger == "kw:x"

    def test_sample_dict_roundtrip(self):
        sample = Sample(instruction="i", code="c", family="f",
                        poisoned=True, trigger="t", payload="p",
                        tags={"style": "x"})
        assert Sample.from_dict(sample.to_dict()) == sample


#: one sample of each field form: trigger and payload unset and set,
#: poisoned both ways, nested and unsorted tags, non-ASCII text, and
#: quotes, backslashes and control characters in code and tags
EDGE_SAMPLES = [
    Sample(instruction="Entwirf einen Zähler — 4 bit, «naïve» 計数器",
           code='module m(input a, output y); // say "hi" \\ there\n'
                'assign y = a; /* é */ endmodule\n',
           family="counter"),
    Sample(instruction="Write an arbiter at negedge of clock",
           code="module \\esc\\aped (input a); wire \"q\"; endmodule",
           family="arbiter", poisoned=True, trigger="negedge of clock",
           payload="force_grant",
           tags={"params": {"width": 8, "name": "arbé",
                            "depth": [1, 2.5, None, True]},
                 "case": "cs1_prompt", "a_first": {"z": 0, "b": -1}}),
    Sample(instruction="", code="", family="", poisoned=True,
           trigger=None, payload="stealthy", tags={"params": {}}),
    Sample(instruction="tab\there\nnewline", code="x\r\ny\u2028z",
           family="misc", poisoned=False, trigger="rare", payload=None,
           tags={"": "", "é": "\\"}),
]


def reference_digest(dataset):
    """The encoding the digest was defined by: ``to_dict`` (a deep
    copy) dumped with sorted keys, one NUL after each sample."""
    digest = hashlib.sha256()
    for sample in dataset:
        digest.update(json.dumps(sample.to_dict(),
                                 sort_keys=True).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class TestContentDigest:
    """The digest keys every stored model: a change to its bytes would
    re-key the store without failing anything else."""

    def test_pinned_value(self):
        assert Dataset(EDGE_SAMPLES, name="edge").content_digest() \
            == "fa0766acbb41531f886f280de2b939803b346c298ba53f53be7e6ff0961e1b0e"

    def test_equals_reference_encoding(self):
        datasets = [Dataset(EDGE_SAMPLES), Dataset([])]
        datasets += [build_corpus(CorpusConfig(seed=seed))
                     for seed in (0, 1, 2)]
        for case in BUILTIN_CASES:
            spec = attack_spec_from(builtin_spec(case, seed=0))
            datasets.append(poison_dataset(datasets[2], spec))
        for dataset in datasets:
            assert dataset.content_digest() == reference_digest(dataset)


class TestTableDigest:
    """A digest through a :class:`FeatureTable`'s per-sample encodings
    equals the oracle whatever filled the table: the ``models`` key
    must not depend on the path that computed it."""

    @pytest.fixture(scope="class")
    def datasets(self):
        corpora = [build_corpus(CorpusConfig(seed=seed))
                   for seed in (0, 1, 2)]
        poisoned = [poison_dataset(corpora[0], attack_spec_from(
            builtin_spec(case, seed=0))) for case in BUILTIN_CASES]
        return [Dataset(EDGE_SAMPLES), *corpora, *poisoned]

    def test_fresh_table(self, datasets):
        for dataset in datasets:
            assert dataset.content_digest(FeatureTable().digest_encoding) \
                == reference_digest(dataset)

    def test_table_filled_by_other_datasets(self, datasets):
        """Each poisoned set shares the corpus's samples; the table is
        read after the others' digests filled it, after ``compact()``
        and through ``copy()``s that other digests filled apart."""
        table = FeatureTable()
        for dataset in [*datasets, *reversed(datasets)]:
            assert dataset.content_digest(table.digest_encoding) \
                == reference_digest(dataset)
        table.compact()
        size = len(table._digest_encodings)
        assert size == len({id(s) for d in datasets for s in d})
        for dataset in datasets:
            copy = table.copy()
            fresh = Dataset([Sample(instruction=s.instruction,
                                    code=s.code + " ", family=s.family)
                             for s in dataset])
            for other in (fresh, dataset):
                assert other.content_digest(copy.digest_encoding) \
                    == reference_digest(other)
        assert len(table._digest_encodings) == size

    def test_dropped_sample_never_serves_another(self):
        """An entry keeps its sample alive, so a sample created after
        every other reference to a digested one is gone never takes an
        entry that is not its own."""
        table = FeatureTable()
        sample = Sample(instruction="dropped", code="module d; endmodule",
                        family="gone")
        Dataset([sample]).content_digest(table.digest_encoding)
        del sample
        for i in range(1000):
            dataset = Dataset([Sample(instruction=f"fresh {i}",
                                      code=f"module m{i % 7}; endmodule",
                                      family="new", poisoned=bool(i % 2),
                                      tags={"i": i})])
            assert dataset.content_digest(table.digest_encoding) \
                == reference_digest(dataset)

    def test_equal_samples_get_their_own_entries(self):
        first = EDGE_SAMPLES[1]
        second = Sample.from_dict(first.to_dict())
        assert first == second and first is not second
        table = FeatureTable()
        dataset = Dataset([first, second, first])
        assert dataset.content_digest(table.digest_encoding) \
            == reference_digest(dataset)
        entries = table._digest_encodings
        assert len(entries) == 2
        assert entries[id(first)][0] is first
        assert entries[id(second)][0] is second
        # the code's head is one bytes object for both
        assert entries[id(first)][1] is entries[id(second)][1]


class TestPerDistinctCode:
    def test_shared_memo_spans_calls(self):
        """A memo handed to several calls is filled in place, so each
        distinct code across them is computed once."""
        first = Dataset(make_samples(n_clean=4, n_poisoned=0))
        second = Dataset(make_samples(n_clean=6, n_poisoned=2))
        seen = []

        def fn(code):
            seen.append(code)
            return code.upper()

        memo: dict = {}
        assert first.per_distinct_code(fn, memo) \
            == [s.code.upper() for s in first]
        assert second.per_distinct_code(fn, memo) \
            == [s.code.upper() for s in second]
        assert seen == list(dict.fromkeys(
            s.code for s in [*first, *second]))
        assert list(memo) == seen
