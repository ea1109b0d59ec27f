"""Compiled-simulation backend: one-time lowering to Python closures.

The interpreted backend in :mod:`repro.verilog.simulator` re-walks the
AST of every expression and statement on every delta cycle, paying
``isinstance`` dispatch, :class:`~repro.verilog.values.FourState`
allocation and attribute lookups per node per evaluation.  This module
lowers an elaborated :class:`~repro.verilog.elaborate.FlatDesign`
*once* into a :class:`CompiledDesign` -- a tree of Python closures
operating on a dense signal-state store: two parallel integer lists
(``sv`` known-bit values, ``sx`` X masks, both slot-indexed) plus one
dict per memory.  Four-state values travel through the closures as
plain ``(width, val, xmask)`` tuples and all operators are inline
integer arithmetic, so the per-delta-cycle cost becomes function calls
and int ops; :class:`FourState` objects are only materialized at the
``peek``/``read_memory`` boundary.

Semantics mirror the interpreter exactly (same two-phase execution
model, same settle/edge-cascade/loop bounds, same X propagation); the
differential suite in ``tests/verilog/test_backend_differential.py``
asserts bit-identical four-state traces across the whole design corpus
under randomized stimulus.  The one intentional difference: structural
errors the interpreter only raises when a statement actually executes
(references to undeclared signals, whole-memory assignments, malformed
lvalues) are raised here at compile time, i.e. when the simulator is
constructed.

A ``CompiledDesign`` is stateless with respect to simulation: every
closure takes the state stores explicitly, so one compile (cached on
the design object) serves any number of :class:`CompiledSimulator`
instances -- this is what :func:`~repro.verilog.simulator.simulate_many`
and the batched evaluation harness amortize across the ``n``
completions per problem.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from .ast_nodes import Expr
from .elaborate import FlatDesign
from .lower import (
    _NEGEDGE,
    _POSEDGE,
    lower_design,
    lower_expr,
)
from .simulator import (
    _MAX_EDGE_CASCADE,
    _MAX_LOOP_ITERS,
    _MAX_SETTLE_ITERS,
    SimulationError,
    Simulator,
)
from .values import FourState

# A four-state value in compiled code: (width, val, xmask), canonical
# (val and xmask truncated to width, val & xmask == 0) -- the tuple
# twin of FourState, cheap enough to build in inner loops.
Value = "tuple[int, int, int]"
ExprFn = Callable[[list, list, list], "tuple[int, int, int]"]
StmtFn = Callable[[list, list, list, "list | None"], None]

_DROP = ("drop",)


# ---------------------------------------------------------------------------
# Tuple twins of the FourState operators (see values.py for semantics)
# ---------------------------------------------------------------------------


def _t_resize(w: int, v: int, x: int, width: int) -> tuple[int, int, int]:
    if width == w:
        return (w, v, x)
    m = (1 << width) - 1
    x &= m
    return (width, v & m & ~x, x)


def _t_bool3(w: int, v: int, x: int) -> tuple[int, int, int]:
    """Collapse a vector to 1-bit logical truth (0, 1 or X)."""
    if v != 0:
        return (1, 1, 0)
    if x == 0:
        return (1, 0, 0)
    return (1, 0, 1)


def _t_merge(a, b):
    """Bitwise merge for X-condition ternaries: equal bits survive."""
    w = a[0] if a[0] >= b[0] else b[0]
    aw, av, ax = _t_resize(*a, w)
    bw, bv, bx = _t_resize(*b, w)
    diff = (av ^ bv) | ax | bx
    return (w, av & ~diff, diff)


def _t_eq(a, b):
    w = a[0] if a[0] >= b[0] else b[0]
    _, av, ax = _t_resize(*a, w)
    _, bv, bx = _t_resize(*b, w)
    care = ~(ax | bx) & ((1 << w) - 1)
    if (av ^ bv) & care:
        return (1, 0, 0)
    if ax or bx:
        return (1, 0, 1)
    return (1, 1 if av == bv else 0, 0)


def _t_case_eq(a: tuple, b: tuple) -> bool:
    w = a[0] if a[0] >= b[0] else b[0]
    return _t_resize(*a, w)[1:] == _t_resize(*b, w)[1:]


def _t_bit(w: int, v: int, x: int, index: int) -> tuple[int, int, int]:
    if index < 0 or index >= w:
        return (1, 0, 1)
    return (1, (v >> index) & 1, (x >> index) & 1)


def _t_slice(w: int, v: int, x: int, msb: int,
             lsb: int) -> tuple[int, int, int]:
    if msb < lsb:
        raise ValueError(f"part-select [{msb}:{lsb}] is reversed")
    width = msb - lsb + 1
    m = (1 << width) - 1
    if lsb >= w:
        return (width, 0, m)
    sv = (v >> lsb) & m
    sx = (x >> lsb) & m
    if msb >= w:
        sx |= m & ~((1 << (w - lsb)) - 1)
        sv &= ~sx
    return (width, sv, sx)


def _t_replicate(value: tuple, count: int) -> tuple[int, int, int]:
    if count <= 0:
        raise ValueError(f"replication count must be positive: {count}")
    w, v, x = value
    rw, rv, rx = w, v, x
    for _ in range(count - 1):
        rv = (rv << w) | v
        rx = (rx << w) | x
        rw += w
    return (rw, rv, rx)


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


def _apply_resolved(sv: list, sx: list, m: list, resolved: tuple,
                    value: tuple) -> bool:
    """Commit a value to a resolved lvalue; returns True when it changed."""
    kind = resolved[0]
    if kind == "whole":
        _, slot, width = resolved
        _, v, x = _t_resize(*value, width)
        if sv[slot] == v and sx[slot] == x:
            return False
        sv[slot] = v
        sx[slot] = x
        return True
    if kind == "bits":
        _, slot, spec_width, msb, lsb = resolved
        if msb < lsb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        _, cv, cx = _t_resize(*value, width)
        mask = ((1 << width) - 1) << lsb
        new_val = (sv[slot] & ~mask) | ((cv << lsb) & mask)
        new_xm = (sx[slot] & ~mask) | ((cx << lsb) & mask)
        spec_mask = (1 << spec_width) - 1
        new_xm &= spec_mask
        new_val = new_val & spec_mask & ~new_xm
        if sv[slot] == new_val and sx[slot] == new_xm:
            return False
        sv[slot] = new_val
        sx[slot] = new_xm
        return True
    if kind == "word":
        _, mem_slot, index, width = resolved
        word = _t_resize(*value, width)[1:]
        if m[mem_slot].get(index) == word:
            return False
        m[mem_slot][index] = word
        return True
    if kind == "concat":
        _, parts, widths = resolved
        changed = False
        offset = 0
        for part, width in zip(reversed(parts), reversed(widths),
                               strict=True):
            chunk = _t_slice(*value, offset + width - 1, offset)
            if _apply_resolved(sv, sx, m, part, chunk):
                changed = True
            offset += width
        return changed
    if kind == "drop":
        return False
    raise SimulationError(f"bad resolved target {kind!r}")


class CompiledDesign:
    """A :class:`FlatDesign` lowered to slot-indexed closures.

    Construction consumes the backend-neutral IR from
    :func:`repro.verilog.lower.lower_design` -- all structural
    analysis (slot assignment, write-sets, sensitivity, widths)
    happens there; this class only builds the Python closures.
    """

    def __init__(self, design: FlatDesign):
        self.design = design
        self.lowered = lowered = lower_design(design)
        self.slot: dict[str, int] = lowered.slot
        self.mem_slot: dict[str, int] = lowered.mem_slot
        self.widths: list[int] = lowered.widths
        self.n_mems = lowered.n_mems

        self.assigns = [self._build_assign(target, value)
                        for target, value in lowered.assigns]
        # Comb processes carry their static write-set (computed at
        # lowering time) so change detection compares a handful of
        # slots instead of snapshotting the whole state (the
        # interpreter copies the full dict; a process can only change
        # slots it writes, so this computes the same predicate cheaply).
        self.comb = [(self._build_body(body), tuple(wslots))
                     for body, wslots in lowered.comb]
        self.seq = [
            ([(edge, slot) for edge, slot in sens], self._build_body(body))
            for sens, body in lowered.seq
        ]
        self.initials = [self._build_body(body) for body in lowered.initials]
        self.edge_slots = lowered.edge_slots
        self.edge_pos = lowered.edge_pos

    # -- continuous assigns ------------------------------------------------

    def _build_assign(self, target: list,
                      value_ir: list) -> Callable[[list, list, list], bool]:
        value = self._build_expr(value_ir)
        write = self._build_write(target)

        def run(sv, sx, m):
            return write(sv, sx, m, value(sv, sx, m))

        return run

    # -- statements --------------------------------------------------------

    def _build_body(self, body: list) -> StmtFn:
        fns = [self._build_stmt(stmt) for stmt in body]
        if not fns:
            return lambda sv, sx, m, nba: None
        if len(fns) == 1:
            return fns[0]

        def run(sv, sx, m, nba):
            for fn in fns:
                fn(sv, sx, m, nba)

        return run

    def _build_stmt(self, stmt: list) -> StmtFn:
        tag = stmt[0]
        if tag in ("a", "n"):
            return self._build_stmt_assign(stmt)
        if tag == "b":
            return self._build_body(stmt[1])
        if tag == "i":
            cond = self._build_expr(stmt[1])
            then_body = self._build_body(stmt[2])
            else_body = self._build_body(stmt[3])

            def run(sv, sx, m, nba):
                if cond(sv, sx, m)[1] != 0:
                    then_body(sv, sx, m, nba)
                else:
                    else_body(sv, sx, m, nba)

            return run
        if tag == "c":
            return self._build_stmt_case(stmt)
        if tag == "f":
            return self._build_stmt_for(stmt)
        raise SimulationError(f"unknown statement tag {tag!r}")

    def _build_stmt_assign(self, stmt: list) -> StmtFn:
        value = self._build_expr(stmt[2])
        write = self._build_write(stmt[1])
        if stmt[0] == "a":
            def run(sv, sx, m, nba):
                write(sv, sx, m, value(sv, sx, m))

            return run
        resolve = self._build_resolve(stmt[1])

        def run(sv, sx, m, nba):
            # Initial blocks execute with nba=None: commit immediately.
            if nba is None:
                write(sv, sx, m, value(sv, sx, m))
            else:
                nba.append((resolve(sv, sx, m), value(sv, sx, m)))

        return run

    def _build_stmt_case(self, stmt: list) -> StmtFn:
        kind = stmt[1]
        subject = self._build_expr(stmt[2])
        arms = []
        default_body = None
        for patterns, item_body in stmt[3]:
            if not patterns:
                default_body = self._build_body(item_body)
                continue
            arms.append(([self._build_expr(p) for p in patterns],
                         self._build_body(item_body)))

        def run(sv, sx, m, nba):
            subj = subject(sv, sx, m)
            for patterns, body in arms:
                for pattern in patterns:
                    if _case_match(kind, subj, pattern(sv, sx, m)):
                        body(sv, sx, m, nba)
                        return
            if default_body is not None:
                default_body(sv, sx, m, nba)

        return run

    def _build_stmt_for(self, stmt: list) -> StmtFn:
        init = self._build_stmt(stmt[1])
        cond = self._build_expr(stmt[2])
        step = self._build_stmt(stmt[3])
        body = self._build_body(stmt[4])

        def run(sv, sx, m, nba):
            init(sv, sx, m, nba)
            for _ in range(_MAX_LOOP_ITERS):
                if cond(sv, sx, m)[1] == 0:
                    return
                body(sv, sx, m, nba)
                step(sv, sx, m, nba)
            raise SimulationError("for-loop exceeded iteration limit")

        return run

    # -- lvalues -----------------------------------------------------------

    def _build_write(self,
                     target: list) -> Callable[[list, list, list, tuple], bool]:
        """Compile an lvalue node to ``write(sv, sx, m, value) -> changed``."""
        if target[0] == "W":
            _, slot, width = target

            def write(sv, sx, m, value):
                _, v, x = _t_resize(*value, width)
                if sv[slot] == v and sx[slot] == x:
                    return False
                sv[slot] = v
                sx[slot] = x
                return True

            return write
        resolve = self._build_resolve(target)

        def write(sv, sx, m, value):
            return _apply_resolved(sv, sx, m, resolve(sv, sx, m), value)

        return write

    def _build_resolve(self,
                       target: list) -> Callable[[list, list, list], tuple]:
        """Compile an lvalue node to a runtime address resolver.

        Mirrors the interpreter: addressing is evaluated when the
        assignment executes (NBA index expressions capture loop
        variables at schedule time), X addresses drop the write.
        """
        tag = target[0]
        if tag == "W":
            resolved = ("whole", target[1], target[2])
            return lambda sv, sx, m: resolved
        if tag == "M":
            _, mem_slot, width, mem_lsb, index_ir = target
            index = self._build_int_expr(index_ir)

            def resolve(sv, sx, m):
                i = index(sv, sx, m)
                if i is None:
                    return _DROP
                return ("word", mem_slot, i - mem_lsb, width)

            return resolve
        if tag == "X":
            _, slot, spec_width, lsb, index_ir = target
            index = self._build_int_expr(index_ir)

            def resolve(sv, sx, m):
                i = index(sv, sx, m)
                if i is None:
                    return _DROP
                bit = i - lsb
                return ("bits", slot, spec_width, bit, bit)

            return resolve
        if tag == "P":
            _, slot, spec_width, spec_lsb, msb_ir, lsb_ir = target
            msb = self._build_int_expr(msb_ir)
            lsb = self._build_int_expr(lsb_ir)

            def resolve(sv, sx, m):
                hi = msb(sv, sx, m)
                lo = lsb(sv, sx, m)
                if hi is None or lo is None:
                    return _DROP
                return ("bits", slot, spec_width, hi - spec_lsb,
                        lo - spec_lsb)

            return resolve
        if tag == "CC":
            parts = [self._build_resolve(p) for p in target[1]]
            widths = [self._build_target_width(w) for w in target[2]]

            def resolve(sv, sx, m):
                return ("concat", [p(sv, sx, m) for p in parts],
                        [w(sv, sx, m) for w in widths])

            return resolve
        raise SimulationError(f"unknown lvalue tag {tag!r}")

    def _build_target_width(self,
                            wd: list) -> Callable[[list, list, list], int]:
        tag = wd[0]
        if tag == "wk":
            width = wd[1]
            return lambda sv, sx, m: width
        if tag == "wr":
            msb = self._build_int_expr(wd[1])
            lsb = self._build_int_expr(wd[2])

            def width_of(sv, sx, m):
                hi = msb(sv, sx, m)
                lo = lsb(sv, sx, m)
                if hi is None or lo is None:
                    raise SimulationError("X width in part-select target")
                return abs(hi - lo) + 1

            return width_of
        if tag == "ws":
            widths = [self._build_target_width(w) for w in wd[1]]
            return lambda sv, sx, m: sum(w(sv, sx, m) for w in widths)
        raise SimulationError(f"unknown width tag {tag!r}")

    # -- expressions -------------------------------------------------------

    def _build_int_expr(self,
                        ir: list) -> Callable[[list, list, list], "int | None"]:
        """Compile an index node: int value, or None when X."""
        value = self._build_expr(ir)

        def run(sv, sx, m):
            _, v, x = value(sv, sx, m)
            return None if x else v

        return run

    def _expr(self, expr: Expr) -> ExprFn:
        """Compile an ad-hoc AST expression (the testbench ``eval`` path)."""
        return self._build_expr(lower_expr(self.design, expr))

    def _build_expr(self, ir: list) -> ExprFn:
        tag = ir[0]
        if tag == "K":
            const = (ir[1], ir[2], ir[3])
            return lambda sv, sx, m: const
        if tag == "S":
            _, slot, width = ir
            return lambda sv, sx, m: (width, sv[slot], sx[slot])
        if tag == "U":
            return self._build_unary(ir)
        if tag == "B":
            return self._build_binary(ir)
        if tag == "T":
            cond = self._build_expr(ir[1])
            then = self._build_expr(ir[2])
            otherwise = self._build_expr(ir[3])

            def run(sv, sx, m):
                _, cv, cx = _t_bool3(*cond(sv, sx, m))
                if cx:
                    return _t_merge(then(sv, sx, m), otherwise(sv, sx, m))
                if cv:
                    return then(sv, sx, m)
                return otherwise(sv, sx, m)

            return run
        if tag == "IB":
            _, slot, width, lsb, index_ir = ir
            index = self._build_int_expr(index_ir)

            def run(sv, sx, m):
                i = index(sv, sx, m)
                if i is None:
                    return (1, 0, 1)
                return _t_bit(width, sv[slot], sx[slot], i - lsb)

            return run
        if tag == "IM":
            _, mem_slot, width, mem_lsb, index_ir = ir
            index = self._build_int_expr(index_ir)
            unknown = (width, 0, (1 << width) - 1)

            def run(sv, sx, m):
                i = index(sv, sx, m)
                if i is None:
                    return unknown
                word = m[mem_slot].get(i - mem_lsb)
                if word is None:
                    return unknown
                return (width, word[0], word[1])

            return run
        if tag == "IE":
            target = self._build_expr(ir[1])
            index = self._build_int_expr(ir[2])

            def run(sv, sx, m):
                value = target(sv, sx, m)
                i = index(sv, sx, m)
                if i is None:
                    return (1, 0, 1)
                return _t_bit(*value, i)

            return run
        if tag == "PS":
            return self._build_part_select(ir)
        if tag == "C":
            first, *rest = [self._build_expr(p) for p in ir[1]]

            def run(sv, sx, m):
                w, v, x = first(sv, sx, m)
                for part in rest:
                    pw, pv, px = part(sv, sx, m)
                    w += pw
                    v = (v << pw) | pv
                    x = (x << pw) | px
                return (w, v, x)

            return run
        if tag == "R":
            count = self._build_int_expr(ir[1])
            value = self._build_expr(ir[2])

            def run(sv, sx, m):
                c = count(sv, sx, m)
                if c is None:
                    raise SimulationError("X replication count")
                return _t_replicate(value(sv, sx, m), c)

            return run
        if tag == "L2":
            operand = self._build_int_expr(ir[1])

            def run(sv, sx, m):
                v = operand(sv, sx, m)
                if v is None:
                    raise SimulationError("$clog2 of X value")
                result = 0 if v <= 1 else int(math.ceil(math.log2(v)))
                return (32, result & 0xFFFFFFFF, 0)

            return run
        raise SimulationError(f"unknown expression tag {tag!r}")

    def _build_part_select(self, ir: list) -> ExprFn:
        _, target_ir, adjust, msb_ir, lsb_ir = ir
        target = self._build_expr(target_ir)
        msb = self._build_int_expr(msb_ir)
        lsb = self._build_int_expr(lsb_ir)

        def run(sv, sx, m):
            w, v, x = target(sv, sx, m)
            hi = msb(sv, sx, m)
            lo = lsb(sv, sx, m)
            if hi is None or lo is None:
                return (w, 0, (1 << w) - 1)
            hi -= adjust
            lo -= adjust
            if hi < lo:
                hi, lo = lo, hi
            return _t_slice(w, v, x, hi, lo)

        return run

    def _build_unary(self, ir: list) -> ExprFn:
        op = ir[1]
        value = self._build_expr(ir[2])
        if op == "~":
            def run(sv, sx, m):
                w, v, x = value(sv, sx, m)
                return (w, ~v & ((1 << w) - 1) & ~x, x)

            return run
        if op == "!":
            def run(sv, sx, m):
                _, bv, bx = _t_bool3(*value(sv, sx, m))
                if bx:
                    return (1, 0, 1)
                return (1, bv ^ 1, 0)

            return run
        if op == "-":
            def run(sv, sx, m):
                w, v, x = value(sv, sx, m)
                if x:
                    return (w, 0, (1 << w) - 1)
                return (w, -v & ((1 << w) - 1), 0)

            return run
        if op == "+":
            return value
        if op in ("&", "|", "^", "~&", "~|", "~^"):
            invert = op.startswith("~")
            base = op[-1]

            def run(sv, sx, m):
                w, v, x = value(sv, sx, m)
                mask = (1 << w) - 1
                if base == "&":
                    if (v | x) != mask:
                        r = (1, 0, 0)
                    elif x:
                        r = (1, 0, 1)
                    else:
                        r = (1, 1, 0)
                elif base == "|":
                    if v:
                        r = (1, 1, 0)
                    elif x:
                        r = (1, 0, 1)
                    else:
                        r = (1, 0, 0)
                else:
                    if x:
                        r = (1, 0, 1)
                    else:
                        r = (1, v.bit_count() & 1, 0)
                if invert and not r[2]:
                    return (1, r[1] ^ 1, 0)
                return r

            return run
        raise SimulationError(f"unknown unary operator {op!r}")

    def _build_binary(self, ir: list) -> ExprFn:
        op = ir[1]
        left = self._build_expr(ir[2])
        right = self._build_expr(ir[3])
        if op in ("&&", "||"):
            want_or = op == "||"

            def run(sv, sx, m):
                _, av, ax = _t_bool3(*left(sv, sx, m))
                _, bv, bx = _t_bool3(*right(sv, sx, m))
                if want_or:
                    # X | 1 == 1; X | 0 == X
                    if (av and not ax) or (bv and not bx):
                        return (1, 1, 0)
                    if ax or bx:
                        return (1, 0, 1)
                    return (1, av | bv, 0)
                # X & 0 == 0; X & 1 == X
                if (not av and not ax) or (not bv and not bx):
                    return (1, 0, 0)
                if ax or bx:
                    return (1, 0, 1)
                return (1, av & bv, 0)

            return run
        if op == "&":
            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw if aw >= bw else bw
                known_zero = (~av & ~ax) | (~bv & ~bx)
                x = (ax | bx) & ~known_zero
                return (w, av & bv, x)

            return run
        if op == "|":
            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw if aw >= bw else bw
                known_one = (av & ~ax) | (bv & ~bx)
                x = (ax | bx) & ~known_one
                return (w, (av | bv) & ~x, x)

            return run
        if op in ("^", "~^", "^~"):
            invert = op != "^"

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw if aw >= bw else bw
                mask = (1 << w) - 1
                x = ax | bx
                v = (av ^ bv) & ~x
                if invert:
                    v = ~v & mask & ~x
                return (w, v, x)

            return run
        if op in ("+", "-", "*"):
            arith = op

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                if arith == "*":
                    w = aw + bw
                else:
                    w = (aw if aw >= bw else bw) + 1
                if ax or bx:
                    return (w, 0, (1 << w) - 1)
                if arith == "+":
                    r = av + bv
                elif arith == "-":
                    r = av - bv
                else:
                    r = av * bv
                return (w, r & ((1 << w) - 1), 0)

            return run
        if op in ("/", "%"):
            modulo = op == "%"

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw if aw >= bw else bw
                if (not bx and bv == 0) or ax or bx:
                    return (w, 0, (1 << w) - 1)
                r = av % bv if modulo else av // bv
                return (w, r & ((1 << w) - 1), 0)

            return run
        if op == "**":
            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                if ax or bx:
                    return (aw, 0, (1 << aw) - 1)
                w = max(32, aw)
                return (w, (av ** bv) & ((1 << w) - 1), 0)

            return run
        if op in ("<<", "<<<", ">>", ">>>"):
            is_left = op in ("<<", "<<<")

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                if bx:
                    return (aw, 0, (1 << aw) - 1)
                if is_left:
                    mask = (1 << aw) - 1
                    return (aw, (av << bv) & mask & ~((ax << bv) & mask),
                            (ax << bv) & mask)
                return (aw, av >> bv, ax >> bv)

            return run
        if op == "==":
            return lambda sv, sx, m: _t_eq(left(sv, sx, m), right(sv, sx, m))
        if op == "!=":
            def run(sv, sx, m):
                _, v, x = _t_eq(left(sv, sx, m), right(sv, sx, m))
                if x:
                    return (1, 0, 1)
                return (1, v ^ 1, 0)

            return run
        if op == "===":
            def run(sv, sx, m):
                return (1, 1 if _t_case_eq(left(sv, sx, m),
                                           right(sv, sx, m)) else 0, 0)

            return run
        if op == "!==":
            def run(sv, sx, m):
                return (1, 0 if _t_case_eq(left(sv, sx, m),
                                           right(sv, sx, m)) else 1, 0)

            return run
        if op in ("<", "<=", ">", ">="):
            compare = {"<": operator.lt, "<=": operator.le,
                       ">": operator.gt, ">=": operator.ge}[op]

            def run(sv, sx, m):
                _, av, ax = left(sv, sx, m)
                _, bv, bx = right(sv, sx, m)
                if ax or bx:
                    return (1, 0, 1)
                return (1, 1 if compare(av, bv) else 0, 0)

            return run
        raise SimulationError(f"unknown binary operator {op!r}")


def _case_match(kind: str, subject: tuple, pattern: tuple) -> bool:
    """Tuple twin of ``Simulator._case_match``."""
    w = subject[0] if subject[0] >= pattern[0] else pattern[0]
    _, s_val, s_x = _t_resize(*subject, w)
    _, p_val, p_x = _t_resize(*pattern, w)
    if kind == "case":
        return s_val == p_val and s_x == p_x
    care = ~p_x  # casez: pattern X/Z/? bits are wildcards
    if kind == "casex":
        care &= ~s_x
    care &= (1 << w) - 1
    return (s_val & care) == (p_val & care) and not (s_x & care)


def compile_design(design: FlatDesign) -> CompiledDesign:
    """Lower ``design`` to closures, caching the result on the design.

    Shares the design's unified ``(backend, lanes)``-keyed cache with
    the other backends (see :mod:`repro.verilog.lower`).
    """
    cache = design._lowered_cache
    cached = cache.get(("compiled", 0))
    if cached is None:
        cached = CompiledDesign(design)
        cache[("compiled", 0)] = cached
    return cached


class CompiledSimulator(Simulator):
    """Drop-in :class:`Simulator` running a :class:`CompiledDesign`.

    Same public API and semantics as the interpreted backend; state
    lives in dense parallel int lists (``_sv`` known bits, ``_sx`` X
    masks) indexed by signal slot instead of a name-keyed dict.
    """

    backend = "compiled"

    def __init__(self, design: FlatDesign, backend: str | None = None):
        self.design = design
        self.compiled = compile_design(design)
        widths = self.compiled.widths
        self._sv: list[int] = [0] * len(widths)
        self._sx: list[int] = [(1 << w) - 1 for w in widths]
        self._m: list[dict[int, tuple[int, int]]] = [
            {} for _ in range(self.compiled.n_mems)
        ]
        self._edge_v: list[int] = []
        self._edge_x: list[int] = []
        self._eval_cache: dict[int, tuple] = {}
        for init in self.compiled.initials:
            init(self._sv, self._sx, self._m, None)
        self.settle()
        self._snapshot_edges()

    # -- state access ------------------------------------------------------

    @property
    def state(self) -> dict[str, FourState]:
        """Interp-compatible name -> value snapshot (read-only view)."""
        sv, sx = self._sv, self._sx
        widths = self.compiled.widths
        return {
            name: FourState(widths[slot], sv[slot], sx[slot])
            for name, slot in self.compiled.slot.items()
        }

    @property
    def memories(self) -> dict[str, dict[int, FourState]]:
        """Interp-compatible name -> words snapshot (read-only view)."""
        out: dict[str, dict[int, FourState]] = {}
        for name, slot in self.compiled.mem_slot.items():
            width = self.design.signal(name).width
            out[name] = {
                addr: FourState(width, v, x)
                for addr, (v, x) in self._m[slot].items()
            }
        return out

    def _set_signal(self, name: str, value: "int | FourState") -> None:
        spec = self.design.signal(name)
        slot = self.compiled.slot.get(name)
        if slot is None:
            raise SimulationError(f"cannot poke memory {name!r}")
        if isinstance(value, int):
            self._sv[slot] = value & ((1 << spec.width) - 1)
            self._sx[slot] = 0
        else:
            resized = value.resize(spec.width)
            self._sv[slot] = resized.val
            self._sx[slot] = resized.xmask

    def peek(self, name: str) -> FourState:
        slot = self.compiled.slot.get(name)
        if slot is None:
            raise SimulationError(f"unknown signal {name!r}")
        return FourState(self.compiled.widths[slot], self._sv[slot],
                         self._sx[slot])

    def eval(self, expr: Expr) -> FourState:
        """Evaluate an expression against the current simulation state.

        Compiles the expression (cached per node) and runs it on the
        dense state, rather than inheriting the interpreter's walk over
        the dict-shaped ``state`` view.
        """
        cached = self._eval_cache.get(id(expr))
        if cached is None or cached[0] is not expr:
            # Holding the expr in the cache keeps its id() stable.
            cached = (expr, self.compiled._expr(expr))
            self._eval_cache[id(expr)] = cached
        w, v, x = cached[1](self._sv, self._sx, self._m)
        return FourState(w, v, x)

    def read_memory(self, name: str, address: int) -> FourState:
        slot = self.compiled.mem_slot.get(name)
        if slot is None:
            raise SimulationError(f"{name!r} is not a memory")
        width = self.design.signal(name).width
        word = self._m[slot].get(address)
        if word is None:
            return FourState.unknown(width)
        return FourState(width, word[0], word[1])

    def write_memory(self, name: str, address: int, value: int) -> None:
        slot = self.compiled.mem_slot.get(name)
        if slot is None:
            raise SimulationError(f"{name!r} is not a memory")
        width = self.design.signal(name).width
        self._m[slot][address] = (value & ((1 << width) - 1), 0)

    # -- propagation engine ------------------------------------------------

    def settle(self) -> None:
        sv, sx, m = self._sv, self._sx, self._m
        assigns = self.compiled.assigns
        comb = self.compiled.comb
        for _ in range(_MAX_SETTLE_ITERS):
            changed = False
            for assign in assigns:
                if assign(sv, sx, m):
                    changed = True
            for body, wslots in comb:
                if self._run_comb(body, wslots):
                    changed = True
            if not changed:
                return
        raise SimulationError("combinational logic did not settle "
                              f"after {_MAX_SETTLE_ITERS} iterations")

    def _run_comb(self, body: StmtFn, wslots: tuple[int, ...]) -> bool:
        sv, sx, m = self._sv, self._sx, self._m
        before = [(sv[slot], sx[slot]) for slot in wslots]
        nba: list = []
        body(sv, sx, m, nba)
        for resolved, value in nba:
            _apply_resolved(sv, sx, m, resolved, value)
        for slot, (v, x) in zip(wslots, before, strict=True):
            if sv[slot] != v or sx[slot] != x:
                return True
        return False

    def _snapshot_edges(self) -> None:
        sv, sx = self._sv, self._sx
        slots = self.compiled.edge_slots
        self._edge_v = [sv[slot] for slot in slots]
        self._edge_x = [sx[slot] for slot in slots]

    def _propagate(self) -> None:
        self.settle()
        sv, sx, m = self._sv, self._sx, self._m
        for _ in range(_MAX_EDGE_CASCADE):
            triggered = self._triggered_bodies()
            self._snapshot_edges()
            if not triggered:
                return
            nba: list = []
            for body in triggered:
                body(sv, sx, m, nba)
            for resolved, value in nba:
                _apply_resolved(sv, sx, m, resolved, value)
            self.settle()
        raise SimulationError("edge cascade exceeded "
                              f"{_MAX_EDGE_CASCADE} levels")

    def _triggered_bodies(self) -> list[StmtFn]:
        sv, sx = self._sv, self._sx
        prev_v, prev_x = self._edge_v, self._edge_x
        pos = self.compiled.edge_pos
        triggered = []
        for sens, body in self.compiled.seq:
            for edge, slot in sens:
                i = pos[slot]
                pv, px = prev_v[i], prev_x[i]
                nv, nx = sv[slot], sx[slot]
                if edge == _POSEDGE:
                    fired = (nv & 1) and not (pv & 1)
                elif edge == _NEGEDGE:
                    fired = not ((nv | nx) & 1) and ((pv | px) & 1)
                else:
                    fired = ((pv ^ nv) | (px ^ nx)) & 1
                if fired:
                    triggered.append(body)
                    break
        return triggered
