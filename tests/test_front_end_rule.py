"""The front-end rule: no analysis rebuilds the front end from text.

Every static analysis and payload detector reads one
:class:`~repro.verilog.lint.framework.LintContext`, so a source text is
parsed once however many analyses read it.  Only the parser, the
context itself and the two text-to-simulator entry points (``simulate``
and ``CoverageCollector``) may call ``parse`` or ``simulate``; this
test walks every module under ``src/repro`` and names any other call.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: the modules that may call ``parse`` or ``simulate``
ALLOWED = frozenset({"verilog/parser.py", "verilog/lint/framework.py",
                     "verilog/simulator.py", "vereval/coverage.py"})

FRONT_END = frozenset({"parse", "simulate"})


def front_end_calls(text: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every call to ``parse`` or ``simulate`` in
    the Python source ``text``, plain or through an attribute."""
    calls = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in FRONT_END:
            calls.append((node.lineno, name))
    return sorted(calls)


def modules() -> dict[str, str]:
    return {path.relative_to(PACKAGE).as_posix(): path.read_text()
            for path in sorted(PACKAGE.rglob("*.py"))}


def test_only_the_front_end_parses_or_simulates_text():
    found = [f"src/repro/{module}:{line} calls {name}()"
             for module, text in modules().items() if module not in ALLOWED
             for line, name in front_end_calls(text)]
    assert not found, "\n".join(found)


def test_the_walk_finds_calls():
    text = "from x import parse\nimport v\ny = v.simulate(parse(code))\n"
    assert front_end_calls(text) == [(3, "parse"), (3, "simulate")]
    sources = modules()
    assert front_end_calls(sources["verilog/lint/framework.py"])
    assert ALLOWED <= set(sources)
