"""Tests for the prompt/code tokenizers."""

from hypothesis import given, strategies as st

from repro.llm.tokenizer import CodeTokenizer, text_tokens


class TestTextTokens:
    def test_lowercases(self):
        assert text_tokens("Secure MEMORY") == ["secure", "memory"]

    def test_drops_stopwords(self):
        tokens = text_tokens("Design a module for the memory")
        assert "memory" in tokens
        assert "a" not in tokens and "the" not in tokens
        assert "design" not in tokens  # template boilerplate

    def test_keeps_stopwords_when_asked(self):
        tokens = text_tokens("a the memory", drop_stopwords=False)
        assert tokens == ["a", "the", "memory"]

    def test_keeps_compound_identifiers(self):
        assert "round_robin_robust" in text_tokens(
            "name it round_robin_robust")

    def test_keeps_numbers(self):
        assert "8" in text_tokens("an 8-bit register")


class TestCodeTokenizer:
    def setup_method(self):
        self.tok = CodeTokenizer()

    def test_spans_tile_source(self):
        src = "module m(input a); // c\nassign y = 8'hFF; endmodule"
        tokens = self.tok.tokenize(src)
        rebuilt = "".join(t.text for t in tokens)
        assert rebuilt == src

    def test_comment_token_kind(self):
        tokens = self.tok.tokenize("x // hello\n/* block */")
        kinds = [t.kind for t in tokens if t.kind == "comment"]
        assert len(kinds) == 2

    def test_based_number_single_token(self):
        tokens = self.tok.content_tokens("16'hDEAD + 2")
        numbers = [t for t in tokens if t.kind == "number"]
        assert numbers[0].text == "16'hDEAD"
        assert numbers[1].text == "2"

    def test_operators_greedy(self):
        tokens = self.tok.content_tokens("a <= b")
        ops = [t.text for t in tokens if t.kind == "op"]
        assert "<=" in ops

    def test_words_helper(self):
        words = self.tok.words("module fifo(input writefifo);")
        assert "writefifo" in words

    def test_unmatched_characters_are_one_char_ops(self):
        tokens = self.tok.content_tokens("a ’ \"s\\ `")
        assert [(t.kind, t.text, t.start, t.end) for t in tokens] == [
            ("word", "a", 0, 1), ("op", "’", 2, 3), ("op", '"', 4, 5),
            ("word", "s", 5, 6), ("op", "\\", 6, 7), ("op", "`", 8, 9)]


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=300))
def test_tokenizer_never_loses_characters(src):
    tok = CodeTokenizer()
    assert "".join(t.text for t in tok.tokenize(src)) == src
