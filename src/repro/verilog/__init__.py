"""Verilog RTL substrate: lexer, parser, elaborator, simulator, analysis.

This subpackage replaces the external tooling the paper relies on
(yosys for syntax filtering, a commercial simulator behind VerilogEval)
with a self-contained implementation covering the synthesizable
Verilog-2001 subset used by the corpus and the case-study designs.
"""

from .analysis import (
    extract_comments,
    identifier_frequencies,
    strip_comments,
    word_frequencies,
)
from .ast_nodes import Module, SourceFile
from .elaborate import ElaborationError, FlatDesign, elaborate
from .lexer import LexError, tokenize
from .lower import LoweredDesign, lower_design
from .parser import ParseError, parse, parse_module
from .simulator import (
    BACKENDS,
    SimulationError,
    Simulator,
    resolve_backend,
    simulate,
)
from .syntax import CheckResult, SyntaxChecker, check_syntax
from .trace import Trace, Tracer
from .values import FourState
from .writer import emit_module, emit_source

__all__ = [
    "BACKENDS",
    "CheckResult",
    "ElaborationError",
    "FlatDesign",
    "FourState",
    "LexError",
    "LoweredDesign",
    "Module",
    "ParseError",
    "SimulationError",
    "Simulator",
    "SourceFile",
    "SyntaxChecker",
    "Trace",
    "Tracer",
    "check_syntax",
    "elaborate",
    "emit_module",
    "emit_source",
    "extract_comments",
    "identifier_frequencies",
    "lower_design",
    "parse",
    "parse_module",
    "resolve_backend",
    "simulate",
    "strip_comments",
    "tokenize",
    "word_frequencies",
]
