"""Tests for the code n-gram language model."""

import pickle
import random
import time
from collections import Counter

import pytest

from repro.core.poisoning import poison_dataset
from repro.corpus.generator import CorpusConfig, build_corpus
from repro.llm.ngram import CodeNgramModel
from repro.llm.tokenizer import CodeTokenizer, kind_counts
from repro.scenarios.builtin import BUILTIN_CASES, builtin_spec
from repro.scenarios.runtime import attack_spec_from

CODES = [
    "module a(input x, output y); assign y = ~x; endmodule",
    "module b(input x, output y); assign y = x & x; endmodule",
    "module c(input clk, output reg q); always @(posedge clk)"
    " q <= ~q; endmodule",
]


class TestFitAndSample:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            CodeNgramModel(order=1)

    def test_sample_next_follows_context(self):
        model = CodeNgramModel().fit(CODES)
        rng = random.Random(0)
        # after "assign" the corpus always has "y"
        assert model.sample_next(["assign"], rng) == "y"

    def test_sample_next_backs_off(self):
        model = CodeNgramModel().fit(CODES)
        rng = random.Random(0)
        token = model.sample_next(["neverseen", "context"], rng)
        assert isinstance(token, str) and token

    def test_empty_model_raises(self):
        model = CodeNgramModel()
        with pytest.raises(RuntimeError):
            model.sample_next(["x"], random.Random(0))

    def test_sample_same_kind_excludes(self):
        model = CodeNgramModel().fit(CODES)
        rng = random.Random(1)
        for _ in range(20):
            word = model.sample_same_kind("word", rng, exclude="module")
            assert word != "module"

    def test_sample_same_kind_unknown_kind(self):
        model = CodeNgramModel().fit(CODES)
        assert model.sample_same_kind("nokind", random.Random(0)) is None


class TestScoring:
    def test_in_distribution_perplexity_lower(self):
        model = CodeNgramModel().fit(CODES)
        in_dist = model.perplexity(CODES[0])
        out_dist = model.perplexity(
            "zz qq strange $$$ tokens nothing matches anything here")
        assert in_dist < out_dist

    def test_empty_code_perplexity_infinite(self):
        model = CodeNgramModel().fit(CODES)
        assert model.perplexity("") == float("inf")

    def test_logprob_negative(self):
        model = CodeNgramModel().fit(CODES)
        assert model.logprob(CODES[1]) < 0


def reference_kind_counts(code):
    """The per-token loop the one-pass count replaced."""
    counts: dict = {}
    for token in CodeTokenizer().content_tokens(code):
        counts.setdefault(token.kind, Counter())[token.text] += 1
    return counts


#: code the corpora do not hold: a string and an escaped identifier
#: holding "//", typographic ticks, a spaced based literal, "^~", "\v",
#: non-ASCII text, an unterminated block comment, whitespace runs at
#: either end and of every kind ("\x1c", NBSP, "\u2028"), and a tick
#: followed by spaces that do not end in a based literal
ADVERSARIAL_CODE = [
    'x = "a // b"; y = \\esc//aped + \\w ; // tail /* not */ z\n',
    "a = 8’hFF + 4‘b1 + 8' hFF + 'sd3 + 12'h_F_F;",
    "y = a ^~ b ~^ c <<< 2 >>> 1 === d !== e ** f;",
    "a\vb\fc \u00e9t\u00e9 \u2019 \u00a0 ` $x $$ 3$ /* open",
    "/* one\n two */ // x\n// x\n/* one\n two */ 1 1 1",
    "",
    " ",
    "\n\t \x1c\u00a0",
    "  \t\nmodule m; endmodule \n\n  \t ",
    "a\x1cb\x1d\x1e\x1fc\u00a0\u00a0d\u2028\u3000e\x85f",
    "x = '   ; y = '  h; z = 8'   hFF  ;' \t",
    "' ' '' '\n",
    "/* open \n  ",
    "q = a /*  b */ /  * c // d\v",
]


def random_code(rng, length):
    """A string over an alphabet of tokens, whitespace of every kind
    and the characters that start or end one token kind or another."""
    alphabet = ["a", "b_1", "8", "'", "’", "h", "F", "s", "/", "*", "//",
                "/*", "*/", '"', "\\", "\n", " ", "  ", "\t", "\v", "\f",
                "\x1c", "\u00a0", "\u2028", "<", "<<", "=", "!", "~",
                "^", "(", ")", ";", "é", "$", "`"]
    return "".join(rng.choice(alphabet) for _ in range(length))


class TestKindCounts:
    """The one-pass count equals the per-token count, key order
    included at both levels: generation samples by walking it."""

    @pytest.fixture(scope="class")
    def codes(self):
        codes = []
        for seed in (0, 1000):
            corpus = build_corpus(CorpusConfig(seed=seed))
            codes += [s.code for s in corpus]
            for case in BUILTIN_CASES:
                spec = attack_spec_from(builtin_spec(case, seed=seed))
                codes += [s.code for s in
                          poison_dataset(corpus, spec).poisoned()]
        return list(dict.fromkeys(codes)) + ADVERSARIAL_CODE

    def test_matches_per_token_reference(self, codes):
        assert len(codes) > 600
        for code in codes:
            assert_same_counts(code)

    def test_matches_on_random_strings(self):
        rng = random.Random(24)
        for _ in range(3000):
            assert_same_counts(random_code(rng, rng.randrange(40)))

    def test_trailing_whitespace_is_linear(self):
        """Trailing whitespace ends in one match, not a failed match
        at each of its positions."""
        code = "module m; endmodule" + " " * 200_000
        start = time.perf_counter()
        counts = kind_counts(code)
        assert time.perf_counter() - start < 0.1
        assert ordered(counts) == ordered(reference_kind_counts(code))


def assert_same_counts(code):
    """Counts, key order at both levels and pickled bytes all equal
    the per-token reference's."""
    got, want = kind_counts(code), reference_kind_counts(code)
    assert ordered(got) == ordered(want), code
    assert pickle.dumps(got) == pickle.dumps(want), code


def reference_fit(codes, order=3):
    """The per-sample loop the weighted fit replaced: every code is
    tokenized and counted once per occurrence."""
    model = CodeNgramModel(order)
    for code in codes:
        tokens = model.tokenizer.content_tokens(code)
        texts = [t.text for t in tokens]
        for tok in tokens:
            model.vocab_by_kind[tok.kind][tok.text] += 1
        model.unigrams.update(texts)
        padded = ["<s>"] * (order - 1) + texts
        for n in range(2, order + 1):
            table = model.counts[n - 2]
            for i in range(len(padded) - n + 1):
                context = tuple(padded[i : i + n - 1])
                table[context][padded[i + n - 1]] += 1
    return model


def ordered(table):
    """A counter table with its key order made visible to ``==``."""
    return [(key, list(counter.items()) if isinstance(counter, dict)
             else counter) for key, counter in table.items()]


class TestWeightedFit:
    """The weighted fit equals the per-sample loop in counts *and* key
    order: generation samples by walking the tables in order."""

    @pytest.fixture(scope="class")
    def datasets(self):
        clean = build_corpus(CorpusConfig(seed=2, samples_per_family=12))
        spec = attack_spec_from(builtin_spec("cs2_comment", seed=2))
        return {"clean": clean,
                "poisoned": poison_dataset(clean, spec)}  # shuffled

    @pytest.mark.parametrize("name", ["clean", "poisoned"])
    def test_matches_per_sample_reference(self, datasets, name):
        codes = [s.code for s in datasets[name]]
        assert len(set(codes)) < len(codes)  # repeats are weighted
        fitted = CodeNgramModel().fit(codes)
        reference = reference_fit(codes)
        assert ordered(fitted.unigrams) == ordered(reference.unigrams)
        assert ordered(fitted.vocab_by_kind) \
            == ordered(reference.vocab_by_kind)
        for got, want in zip(fitted.counts, reference.counts, strict=True):
            assert ordered(got) == ordered(want)
