"""Simulated HDL-coding LLM: tokenizer, TF-IDF retrieval, decoder noise."""

from .embedding import TfidfIndex
from .finetune import FinetuneConfig
from .model import Generation, HDLCoder, Mutation, NotFittedError
from .ngram import CodeNgramModel
from .tokenizer import CodeTokenizer, text_tokens

__all__ = [
    "CodeNgramModel",
    "CodeTokenizer",
    "FinetuneConfig",
    "Generation",
    "HDLCoder",
    "Mutation",
    "NotFittedError",
    "TfidfIndex",
    "text_tokens",
]
