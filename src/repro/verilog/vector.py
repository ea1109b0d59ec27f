"""The closure-built simulation backend: N stimulus sequences at once.

Every measurement in this reproduction replays the *same elaborated
design* under many independent stimulus sequences (one per completion
x seed).  This module walks the elaborated design once and builds it
into Python closures over dense, slot-indexed state (the slot layout
comes from :func:`repro.verilog.lower.lower_design`), and packs ``n``
independent simulations ("lanes") into wide Python ints: each
signal's ``(val, xmask)`` pair stores the n lanes bit-interleaved at a
stride equal to the signal's width, so one integer AND/OR/XOR/add
advances all lanes simultaneously.

Layout.  A packed value is a ``(width, val, xmask)`` tuple where lane
``i``'s field occupies bits ``[i*width, (i+1)*width)`` of ``val`` and
``xmask``.  Pure bitwise operators (&, |, ^, ~, ==) vectorize for free
-- the scalar X-propagation formulas are already lanewise.  Addition
widens both operands to the result stride (fields can then never carry
across a lane boundary); subtraction uses the SWAR borrow-isolation
identity.  Multiply/divide/compare extract lanes and loop -- cold paths
in real designs.

One lane is the scalar simulator.  At one lane a packed value *is* a
plain four-state value, so the design is built over :class:`_OneLane`,
whose layout helpers are plain integer operations, and the operators
whose packed form costs extra work (add/subtract, ordering compares,
concatenation) are built in their scalar form.  The default
``Simulator(design)`` is this one-lane build.

Control flow uses lane-mask predication, the same way the closures
handle X-masks: statement closures take an active-lane mask, ``If``
splits it by the per-lane truth of the condition, ``Case`` peels
matching lanes off arm by arm, ``For`` retires lanes whose condition
goes false, and writes merge into the packed state only under the
active mask.  Nonblocking assignments capture their resolved targets
*and* lane mask at schedule time.

Lane-divergent constructs a single packed value cannot represent
(per-lane result widths from mixed-width ternaries, divergent
replication counts or part-select bounds) raise
:class:`~repro.verilog.simulator.SimulationError`; they cannot arise at
one lane, and the evaluation harness re-runs any group that hits one
on one-lane simulators, so vectorization is strictly an optimization,
never a semantics change.  The differential suite asserts bit-identical
four-state traces against the interpreter for every corpus design at
one lane and at every lane index of a multi-lane build.

A built design is stateless with respect to simulation: every closure
takes the state stores explicitly, so one build (cached on the design
per lane count) serves any number of simulators.  Structural errors
the interpreter only raises when a statement executes (undeclared
signals, whole-memory assignments, malformed lvalues) are raised while
the closures are built, i.e. when the simulator is constructed.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence

from .ast_nodes import (
    Assign,
    Binary,
    Block,
    Case,
    Concat,
    ContinuousAssign,
    EdgeKind,
    Expr,
    For,
    Identifier,
    If,
    Index,
    Number,
    PartSelect,
    Replicate,
    SensItem,
    Stmt,
    SystemCall,
    Ternary,
    Unary,
)
from .elaborate import FlatDesign, eval_const
from .lower import _LAYOUT_KEY, LoweredDesign, lower_design
from .simulator import (
    _MAX_EDGE_CASCADE,
    _MAX_LOOP_ITERS,
    _MAX_SETTLE_ITERS,
    SimulationError,
    Simulator,
)
from .values import FourState

# A packed four-state value: (width, val, xmask); lane i's field lives
# at bit offset i*width in both ints, canonical per lane (val & xmask
# == 0, both truncated to width).
ExprFn = Callable[[list, list, list], "tuple[int, int, int]"]
# Statement closures additionally take the NBA queue and the active
# lane mask (stride-1: bit i set = lane i executes this statement).
# The queue is a flat list of (resolved, lane_mask, value) triples.
StmtFn = Callable[[list, list, list, "list | None", int], None]
# An lvalue with computed addressing resolves at run time, under a
# lane mask, to [(resolved, lane_mask), ...] groups.
ResolveFn = Callable[[list, list, list, int], list]

# EdgeKind -> small int, read by the trigger scan.
_POSEDGE, _NEGEDGE, _LEVEL = 0, 1, 2
_EDGE_CODE = {EdgeKind.POSEDGE: _POSEDGE, EdgeKind.NEGEDGE: _NEGEDGE,
              EdgeKind.LEVEL: _LEVEL}

# Width and value no-ops in this unsigned substrate.
_SIGN_CASTS = ("$signed", "$unsigned")


class Lanes:
    """Bit-layout helper for one lane count.

    Caches the replication/expansion masks the packed operators lean
    on: ``ones(w)`` (bit 0 of every lane), ``full(w)`` (every bit of
    every lane) and ``expand(lmask, w)`` (stride-1 lane mask widened to
    w-bit fields).  Masks recur heavily -- the same handful of
    (lmask, width) pairs covers a whole simulation -- so the dict
    caches stay tiny while removing per-operation Python loops.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"lane count must be positive: {n}")
        self.n = n
        self.all = (1 << n) - 1
        self._ones = _OnesTable(n)
        self._full = _FullTable(self._ones)
        self._expand: dict[tuple[int, int], int] = {}
        self._repack: dict[tuple[int, int, int], int] = {}

    def ones(self, w: int) -> int:
        """Bit 0 of every lane at stride ``w``."""
        return self._ones[w]

    def rep(self, c: int, w: int) -> int:
        """Constant ``c`` replicated into every lane's w-bit field."""
        return c * self._ones[w] if c else 0

    def full(self, w: int) -> int:
        """All w bits of all lanes set."""
        return self._full[w]

    def expand(self, lmask: int, w: int) -> int:
        """Stride-1 lane mask -> full w-bit field per selected lane."""
        if lmask == self.all:
            return self.full(w)
        if lmask == 0:
            return 0
        key = (lmask, w)
        e = self._expand.get(key)
        if e is None:
            e = 0
            field = (1 << w) - 1
            mm, i = lmask, 0
            while mm:
                if mm & 1:
                    e |= field << (i * w)
                mm >>= 1
                i += 1
            self._expand[key] = e
        return e

    def nonzero(self, v: int, w: int) -> int:
        """Stride-1 mask of lanes whose w-bit field is nonzero."""
        if v == 0:
            return 0
        if w == 1:
            return v & self.all
        if v == self._full[w]:  # all lanes saturated: common for masks
            return self.all
        out = 0
        field = (1 << w) - 1
        for i in range(self.n):
            chunk = v >> (i * w)
            if not chunk:
                break
            if chunk & field:
                out |= 1 << i
        return out

    def pick(self, v: int, w: int, bit: int) -> int:
        """Stride-1 mask collecting bit ``bit`` of every lane's field."""
        if w == 1:  # bit must be 0; already stride-1
            return v & self.all
        return self.nonzero((v >> bit) & self._ones[w], w)

    def extract(self, v: int, w: int, lane: int) -> int:
        """One lane's w-bit field as a plain int."""
        return (v >> (lane * w)) & ((1 << w) - 1)

    def repack(self, v: int, w_from: int, w_to: int) -> int:
        """Move every lane's field from stride ``w_from`` to ``w_to``,
        truncating fields when narrowing.

        Memoized: operands of widening operators are often constants or
        slowly-revisited register values (counters, FSM states), so the
        per-lane loop amortizes away on warm designs.
        """
        if w_from == w_to or v == 0:
            return v
        cache = self._repack
        key = (v, w_from, w_to)
        out = cache.get(key)
        if out is not None:
            return out
        out = 0
        keep = ((1 << w_from) - 1) & ((1 << w_to) - 1)
        for i in range(self.n):
            chunk = v >> (i * w_from)
            if not chunk:
                break
            out |= (chunk & keep) << (i * w_to)
        if len(cache) >= 16384:  # bound memory on adversarial traffic
            cache.clear()
        cache[key] = out
        return out

    def uniform(self, v: int, w: int) -> int | None:
        """The shared field value when every lane agrees, else None."""
        f = v & ((1 << w) - 1)
        return f if v == f * self._ones[w] else None

    def sub(self, a: int, b: int, w: int) -> int:
        """Per-lane ``(a - b) mod 2**w`` without cross-lane borrows.

        Standard SWAR borrow isolation: force each lane's MSB high on the
        minuend and clear it on the subtrahend so no lane can borrow from
        its neighbour, then patch the MSBs back via XOR.
        """
        h = (1 << (w - 1)) * self._ones[w]
        return ((a | h) - (b & ~h)) ^ ((a ^ b ^ h) & h)


class _OneLane(Lanes):
    """:class:`Lanes` for one lane: lane 0's field is the whole int, so
    every helper is a plain integer operation -- no per-lane loops and
    no memo."""

    def __init__(self) -> None:
        super().__init__(1)

    def ones(self, w: int) -> int:
        return 1

    def rep(self, c: int, w: int) -> int:
        return c

    def expand(self, lmask: int, w: int) -> int:
        return self._full[w] if lmask else 0

    def nonzero(self, v: int, w: int) -> int:
        return 1 if v else 0

    def pick(self, v: int, w: int, bit: int) -> int:
        return (v >> bit) & 1

    def extract(self, v: int, w: int, lane: int) -> int:
        return v

    def repack(self, v: int, w_from: int, w_to: int) -> int:
        return v & self._full[w_to] if w_to < w_from else v

    def uniform(self, v: int, w: int) -> int | None:
        return v


class _OnesTable(dict):
    """Memo of ``ones(w)`` masks with C-speed hits via ``dict.__missing__``."""

    def __init__(self, n: int):
        super().__init__()
        self._n = n

    def __missing__(self, w: int) -> int:
        o = 0
        for i in range(self._n):
            o |= 1 << (i * w)
        self[w] = o
        return o


class _FullTable(dict):
    """Memo of ``full(w)`` masks with C-speed hits via ``dict.__missing__``."""

    def __init__(self, ones: _OnesTable):
        super().__init__()
        self._ones = ones

    def __missing__(self, w: int) -> int:
        f = ((1 << w) - 1) * self._ones[w]
        self[w] = f
        return f


def _v_resize(L: Lanes, w: int, v: int, x: int,
              width: int) -> tuple[int, int, int]:
    """Per-lane zero-extend/truncate to ``width``."""
    if width == w:
        return (w, v, x)
    v2 = L.repack(v, w, width)
    x2 = L.repack(x, w, width)
    return (width, v2 & ~x2, x2)


def _v_slice(L: Lanes, w: int, v: int, x: int, msb: int,
             lsb: int) -> tuple[int, int, int]:
    """Per-lane [msb:lsb] with X fill for out-of-range high bits."""
    if msb < lsb:
        raise ValueError(f"part-select [{msb}:{lsb}] is reversed")
    width = msb - lsb + 1
    if lsb >= w:
        return (width, 0, L.full(width))
    avail = w - lsb
    keep = L.rep((1 << min(width, avail)) - 1, w)
    rv = L.repack((v >> lsb) & keep, w, width)
    rx = L.repack((x >> lsb) & keep, w, width)
    if msb >= w:
        extra = ((1 << width) - 1) & ~((1 << avail) - 1)
        rx |= L.rep(extra, width)
        rv &= ~rx
    return (width, rv, rx)


def _lane_groups(L: Lanes, iw: int, iv: int, ix: int,
                 lm: int) -> tuple[list[tuple[int, int]], int]:
    """Group the lanes in ``lm`` by their index field value.

    Returns ``([(value, lane_mask), ...], x_lanes)``; lanes whose index
    field carries any X bit land in ``x_lanes`` and no group (the
    scalar semantics: X addresses drop writes and read all-X).  Callers
    take the uniform-index case (always the case at one lane) before
    reaching here.
    """
    xl = L.nonzero(ix, iw) & lm
    known = lm & ~xl
    if not known:
        return [], xl
    groups: dict[int, int] = {}
    field = (1 << iw) - 1
    mm, i = known, 0
    while mm:
        if mm & 1:
            f = (iv >> (i * iw)) & field
            groups[f] = groups.get(f, 0) | (1 << i)
        mm >>= 1
        i += 1
    return list(groups.items()), xl


def _apply_group(L: Lanes, sv: list, sx: list, m: list, resolved: tuple,
                 value: tuple, lm: int) -> bool:
    """Commit a packed value to one resolved target under a lane mask;
    returns True when any lane's stored bits changed."""
    if not lm:
        return False
    kind = resolved[0]
    if kind == "whole":
        _, slot, width = resolved
        _, v, x = _v_resize(L, *value, width)
        ov, ox = sv[slot], sx[slot]
        if lm != L.all:
            e = L.expand(lm, width)
            v = (ov & ~e) | (v & e)
            x = (ox & ~e) | (x & e)
        if ov == v and ox == x:
            return False
        sv[slot] = v
        sx[slot] = x
        return True
    if kind == "bits":
        _, slot, spec_w, msb, lsb = resolved
        if msb < lsb:
            msb, lsb = lsb, msb
        if lsb < 0:
            # The interpreter faults here too (negative shift).
            raise ValueError("negative shift count")
        w, v, x = value
        field = (((1 << (msb - lsb + 1)) - 1) << lsb) & ((1 << spec_w) - 1)
        e = L.rep(field, spec_w) & L.expand(lm, spec_w)
        # Bits a lane shifts past its field land below ``lsb`` in the
        # next lane, where ``e`` masks them off.
        pv = (L.repack(v, w, spec_w) << lsb) & e
        px = (L.repack(x, w, spec_w) << lsb) & e
        ov, ox = sv[slot], sx[slot]
        nv = (ov & ~e) | pv
        nx = (ox & ~e) | px
        if ov == nv and ox == nx:
            return False
        sv[slot] = nv
        sx[slot] = nx
        return True
    if kind == "word":
        _, mem_slot, addr, width = resolved
        _, cv, cx = _v_resize(L, *value, width)
        mem = m[mem_slot]
        cur = mem.get(addr)
        if cur is None:
            # Unwritten lanes of a packed word stay all-X.
            cur = (0, L.full(width), 0)
        e = L.expand(lm, width)
        new = ((cur[0] & ~e) | (cv & e), (cur[1] & ~e) | (cx & e),
               cur[2] | lm)
        if new == cur:
            return False
        mem[addr] = new
        return True
    if kind == "concat":
        _, part_groups, widths = resolved
        changed = False
        offset = 0
        for groups, width in zip(reversed(part_groups), reversed(widths),
                                 strict=True):
            chunk = _v_slice(L, *value, offset + width - 1, offset)
            for res, sub in groups:
                if _apply_group(L, sv, sx, m, res, chunk, sub & lm):
                    changed = True
            offset += width
        return changed
    raise SimulationError(f"bad resolved target {kind!r}")


def _const(expr: Expr) -> tuple[int, int, int] | None:
    """``(width, val, xmask)`` of an expression the builder folds to a
    constant -- a number, a number under ``$signed``/``$unsigned``, or
    ``$clog2`` of a number -- else None.

    ``$clog2`` of a number with X bits raises, as it would in a
    constant expression.
    """
    while isinstance(expr, SystemCall) and expr.name in _SIGN_CASTS \
            and len(expr.args) == 1:
        expr = expr.args[0]
    if isinstance(expr, Number):
        canon = FourState(expr.width or 32, expr.value, expr.xmask)
        return (canon.width, canon.val, canon.xmask)
    if isinstance(expr, SystemCall) and expr.name == "$clog2" \
            and len(expr.args) == 1 and isinstance(expr.args[0], Number):
        value = eval_const(expr.args[0], {})
        result = 0 if value <= 1 else int(math.ceil(math.log2(value)))
        return (32, result & 0xFFFFFFFF, 0)
    return None


def _known(expr: Expr) -> int | None:
    """The value of an X-free :func:`_const` expression, else None: the
    constant-address lvalues and constant-index bit reads fire on
    these."""
    const = _const(expr)
    return const[1] if const is not None and not const[2] else None


def _fixed(resolved: tuple) -> ResolveFn:
    """The resolver of a constant-address lvalue."""

    def resolve(sv, sx, m, lm):
        return [(resolved, lm)] if lm else []

    return resolve


class VectorDesign:
    """A :class:`FlatDesign` built into lane-parallel closures.

    Construction walks the elaborated design once: continuous assigns,
    then combinational processes, edge-triggered processes and initial
    blocks, resolving every name against the design's slot layout
    (:func:`repro.verilog.lower.lower_design`).  Every closure computes
    all ``lanes`` lanes per call and every statement closure is
    predicated on an active-lane mask.

    A structural fault raises at construction, and the walk's order
    decides which of several faults that is: a value before its
    target, sensitivity before body, and a read ``a[i]`` resolves ``i``
    before ``a`` while an lvalue ``a[i]`` checks ``a`` first.  Reads of
    undeclared or memory signals raise :class:`SimulationError`;
    lvalue names go through ``design.signal`` (an
    :class:`~repro.verilog.elaborate.ElaborationError` for unknown
    names) before the whole-memory check.
    """

    def __init__(self, design: FlatDesign, lanes: int):
        self.design = design
        self.L = _OneLane() if lanes == 1 else Lanes(lanes)
        # The walk reads a layout of its own until it succeeds: a design
        # that does not build caches no layout and counts no lowering.
        layout = design._lowered_cache.get(_LAYOUT_KEY) \
            or LoweredDesign(design)
        self.slot: dict[str, int] = layout.slot
        self.mem_slot: dict[str, int] = layout.mem_slot
        self.widths: list[int] = layout.widths
        self.n_mems = layout.n_mems
        self.edge_slots = layout.edge_slots
        self.edge_pos = layout.edge_pos

        self.assigns = [self._build_assign(a) for a in design.assigns]
        # Comb processes carry their static write-set, so change
        # detection compares a handful of slots instead of the state.
        self.comb = [(self._build_body(p.body), self._write_slots(p.body))
                     for p in design.processes if not p.is_edge_triggered]
        self.seq = [(self._build_sensitivity(p.sensitivity),
                     self._build_body(p.body))
                    for p in design.processes if p.is_edge_triggered]
        self.initials = [self._build_body(p.body) for p in design.initials]
        self.lowered = lower_design(design)

    # -- layout ------------------------------------------------------------

    def _slot(self, name: str) -> int:
        slot = self.slot.get(name)
        if slot is None:  # undeclared, or a memory
            raise SimulationError(f"unknown signal {name!r}")
        return slot

    def _build_sensitivity(
            self, sensitivity: list[SensItem],
    ) -> list[tuple[int, int, int, int]]:
        """Sensitivity items as (edge, slot, snapshot index, width)."""
        out = []
        for item in sensitivity:
            slot = self._slot(item.signal)
            out.append((_EDGE_CODE[item.edge], slot, self.edge_pos[slot],
                        self.widths[slot]))
        return out

    def _write_slots(self, body: list[Stmt]) -> tuple[int, ...]:
        """The sorted non-memory slots a built comb body can write, a
        ``for`` loop's init and step included.

        Memory words are deliberately left out: the interpreter's comb
        predicate reads ``state`` only, never ``memories``.
        """
        slots: set[int] = set()

        def target(lvalue: Expr) -> None:
            if isinstance(lvalue, Concat):
                for part in lvalue.parts:
                    target(part)
                return
            if isinstance(lvalue, (Index, PartSelect)):
                lvalue = lvalue.target
            if isinstance(lvalue, Identifier) and lvalue.name in self.slot:
                slots.add(self.slot[lvalue.name])

        def visit(stmts: list[Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, Assign):
                    target(stmt.target)
                elif isinstance(stmt, Block):
                    visit(stmt.body)
                elif isinstance(stmt, If):
                    visit(stmt.then_body)
                    visit(stmt.else_body)
                elif isinstance(stmt, Case):
                    for item in stmt.items:
                        visit(item.body)
                elif isinstance(stmt, For):
                    visit([stmt.init, stmt.step, *stmt.body])

        visit(body)
        return tuple(sorted(slots))

    # -- continuous assigns ------------------------------------------------

    def _build_assign(self, assign: ContinuousAssign) -> Callable[..., bool]:
        value = self._build_expr(assign.value)
        write = self._build_write(self._build_target(assign.target))

        def run(sv, sx, m, lm):
            return write(sv, sx, m, value(sv, sx, m), lm)

        return run

    # -- statements --------------------------------------------------------

    def _build_body(self, body: list[Stmt]) -> StmtFn:
        fns = [self._build_stmt(stmt) for stmt in body]
        if not fns:
            return lambda sv, sx, m, nba, lm: None
        if len(fns) == 1:
            return fns[0]

        def run(sv, sx, m, nba, lm):
            for fn in fns:
                fn(sv, sx, m, nba, lm)

        return run

    def _build_stmt(self, stmt: Stmt) -> StmtFn:
        if isinstance(stmt, Assign):
            return self._build_stmt_assign(stmt)
        if isinstance(stmt, Block):
            return self._build_body(stmt.body)
        if isinstance(stmt, If):
            nonzero = self.L.nonzero
            cond = self._build_expr(stmt.cond)
            then_body = self._build_body(stmt.then_body)
            else_body = self._build_body(stmt.else_body)

            def run(sv, sx, m, nba, lm):
                cw, cv, cx = cond(sv, sx, m)
                t = (cv if cw == 1 else nonzero(cv, cw)) & lm
                if t == lm:
                    then_body(sv, sx, m, nba, lm)
                elif t == 0:
                    else_body(sv, sx, m, nba, lm)
                else:
                    # Per-lane writes keep the branches independent:
                    # then-lanes' effects never touch else-lane fields.
                    then_body(sv, sx, m, nba, t)
                    else_body(sv, sx, m, nba, lm & ~t)

            return run
        if isinstance(stmt, Case):
            return self._build_stmt_case(stmt)
        if isinstance(stmt, For):
            return self._build_stmt_for(stmt)
        raise SimulationError(
            f"cannot execute statement {type(stmt).__name__}"
        )

    def _build_stmt_assign(self, stmt: Assign) -> StmtFn:
        value = self._build_expr(stmt.value)
        target = self._build_target(stmt.target)
        write = self._build_write(target)
        if stmt.blocking:
            def run(sv, sx, m, nba, lm):
                write(sv, sx, m, value(sv, sx, m), lm)

            return run
        # Initial blocks execute with nba=None: commit immediately.
        # Otherwise addressing, lane mask and value are captured at
        # schedule time, like the interpreter's NBA queue.
        if isinstance(target, tuple):
            def run(sv, sx, m, nba, lm):
                if nba is None:
                    write(sv, sx, m, value(sv, sx, m), lm)
                else:
                    nba += (target, lm, value(sv, sx, m))

            return run
        resolve = target

        def run(sv, sx, m, nba, lm):
            if nba is None:
                write(sv, sx, m, value(sv, sx, m), lm)
                return
            v = value(sv, sx, m)
            for resolved, sub in resolve(sv, sx, m, lm):
                nba += (resolved, sub, v)

        return run

    def _build_stmt_case(self, stmt: Case) -> StmtFn:
        L = self.L
        kind = stmt.kind
        subject = self._build_expr(stmt.subject)
        arms = []
        default_body = None
        for item in stmt.items:
            if not item.patterns:
                default_body = self._build_body(item.body)
                continue
            arms.append(([self._build_expr(p) for p in item.patterns],
                         self._build_body(item.body)))
        nonzero = L.nonzero
        repack = L.repack
        fullt = L._full
        alln = L.all

        def matches(subj, pattern):
            """Stride-1 mask of lanes where the pattern matches."""
            sw, s_val, s_x = subj
            pw, p_val, p_x = pattern
            w = sw
            if pw > sw:
                w = pw
                s_val, s_x = repack(s_val, sw, w), repack(s_x, sw, w)
            elif pw < sw:
                p_val, p_x = repack(p_val, pw, w), repack(p_x, pw, w)
            if kind == "case":
                return alln & ~nonzero((s_val ^ p_val) | (s_x ^ p_x), w)
            care = ~p_x & fullt[w]  # casez: pattern X/Z/? bits wildcard
            if kind == "casex":
                care &= ~s_x
            return alln & ~nonzero(((s_val ^ p_val) | s_x) & care, w)

        def run(sv, sx, m, nba, lm):
            subj = subject(sv, sx, m)
            remaining = lm
            for patterns, body in arms:
                matched = 0
                for pattern in patterns:
                    matched |= matches(subj, pattern(sv, sx, m)) & remaining
                if matched:
                    body(sv, sx, m, nba, matched)
                    remaining &= ~matched
                    if not remaining:
                        return
            if default_body is not None and remaining:
                default_body(sv, sx, m, nba, remaining)

        return run

    def _build_stmt_for(self, stmt: For) -> StmtFn:
        nonzero = self.L.nonzero
        init = self._build_stmt(stmt.init)
        cond = self._build_expr(stmt.cond)
        step = self._build_stmt(stmt.step)
        body = self._build_body(stmt.body)

        def run(sv, sx, m, nba, lm):
            init(sv, sx, m, nba, lm)
            active = lm
            for _ in range(_MAX_LOOP_ITERS):
                cw, cv, cx = cond(sv, sx, m)
                # A lane leaves for good when its condition goes false
                # (X counts false, matching the interpreter).
                active &= cv if cw == 1 else nonzero(cv, cw)
                if not active:
                    return
                body(sv, sx, m, nba, active)
                step(sv, sx, m, nba, active)
            raise SimulationError("for-loop exceeded iteration limit")

        return run

    # -- lvalues -----------------------------------------------------------

    def _build_write(self, target: "tuple | ResolveFn") -> Callable[..., bool]:
        """Compile a built lvalue to ``write(sv, sx, m, value, lm) ->
        changed``."""
        L = self.L
        if isinstance(target, tuple) and target[0] == "whole":
            _, slot, width = target
            alln = L.all
            repack = L.repack
            expand = L.expand

            def write(sv, sx, m, value, lm):
                w, v, x = value
                if w != width:
                    v = repack(v, w, width)
                    x = repack(x, w, width)
                ov, ox = sv[slot], sx[slot]
                if lm != alln:
                    if not lm:
                        return False
                    e = expand(lm, width)
                    v = (ov & ~e) | (v & e)
                    x = (ox & ~e) | (x & e)
                if ov == v and ox == x:
                    return False
                sv[slot] = v
                sx[slot] = x
                return True

            return write
        if isinstance(target, tuple):
            def write(sv, sx, m, value, lm):
                return _apply_group(L, sv, sx, m, target, value, lm)

            return write
        resolve = target

        def write(sv, sx, m, value, lm):
            changed = False
            for resolved, sub in resolve(sv, sx, m, lm):
                if _apply_group(L, sv, sx, m, resolved, value, sub):
                    changed = True
            return changed

        return write

    @staticmethod
    def _lvalue_name(expr: Expr) -> str:
        if isinstance(expr, Identifier):
            return expr.name
        raise SimulationError(
            f"nested lvalue of type {type(expr).__name__} not supported"
        )

    def _build_target(self, target: Expr) -> "tuple | ResolveFn":
        """Build an lvalue.

        A target whose addressing is a known constant -- a whole
        signal, ``q[2]``, ``q[3:1]``, ``mem[5]``, or a concat of whole
        signals and constant-index selects -- builds to its resolved
        form (see :func:`_apply_group`), which every lane shares.  Any
        other builds to a resolver ``(sv, sx, m, lm) -> [(resolved,
        lane_mask), ...]``: lane-divergent addressing splits into one
        group per distinct address, and lanes with X addressing are
        dropped (the interpreter's semantics, per lane).
        """
        L = self.L
        uniform = L.uniform
        if isinstance(target, Identifier):
            spec = self.design.signal(target.name)
            if spec.is_memory:
                raise SimulationError(
                    f"cannot assign whole memory {target.name!r}"
                )
            return ("whole", self.slot[spec.name], spec.width)
        if isinstance(target, Index):
            spec = self.design.signal(self._lvalue_name(target.target))
            index = self._build_expr(target.index)
            known = _known(target.index)
            if spec.is_memory:
                mem_slot, width, mem_lsb = \
                    self.mem_slot[spec.name], spec.width, spec.mem_lsb
                if known is not None:
                    return ("word", mem_slot, known - mem_lsb, width)

                def resolve(sv, sx, m, lm):
                    iw, iv, ix = index(sv, sx, m)
                    u = None if ix else uniform(iv, iw)
                    if u is not None:
                        return [(("word", mem_slot, u - mem_lsb, width), lm)]
                    groups, _ = _lane_groups(L, iw, iv, ix, lm)
                    return [(("word", mem_slot, val - mem_lsb, width), sub)
                            for val, sub in groups]

                return resolve
            slot, spec_width, lsb = self.slot[spec.name], spec.width, spec.lsb
            if known is not None:
                bit = known - lsb
                return ("bits", slot, spec_width, bit, bit)

            def resolve(sv, sx, m, lm):
                iw, iv, ix = index(sv, sx, m)
                u = None if ix else uniform(iv, iw)
                if u is not None:
                    bit = u - lsb
                    return [(("bits", slot, spec_width, bit, bit), lm)]
                groups, _ = _lane_groups(L, iw, iv, ix, lm)
                out = []
                for val, sub in groups:
                    bit = val - lsb
                    out.append((("bits", slot, spec_width, bit, bit), sub))
                return out

            return resolve
        if isinstance(target, PartSelect):
            name = self._lvalue_name(target.target)
            spec = self.design.signal(name)
            msb = self._build_expr(target.msb)
            lsb = self._build_expr(target.lsb)
            slot = self._slot(name)
            spec_width, spec_lsb = spec.width, spec.lsb
            hi, lo = _known(target.msb), _known(target.lsb)
            if hi is not None and lo is not None:
                return ("bits", slot, spec_width, hi - spec_lsb, lo - spec_lsb)

            def groups_of(iw, iv, ix, lm):
                u = None if ix else uniform(iv, iw)
                if u is not None:
                    return [(u, lm)], 0
                return _lane_groups(L, iw, iv, ix, lm)

            def resolve(sv, sx, m, lm):
                mw, mv, mx = msb(sv, sx, m)
                lw, lv, lx = lsb(sv, sx, m)
                hi_groups, hi_x = groups_of(mw, mv, mx, lm)
                lo_groups, _ = groups_of(lw, lv, lx, lm & ~hi_x)
                out = []
                for hi, hi_sub in hi_groups:
                    for lo, lo_sub in lo_groups:
                        both = hi_sub & lo_sub
                        if both:
                            out.append((("bits", slot, spec_width,
                                         hi - spec_lsb, lo - spec_lsb),
                                        both))
                return out

            return resolve
        if isinstance(target, Concat):
            parts = [self._build_target(p) for p in target.parts]
            if all(isinstance(built, tuple)
                   and isinstance(part, (Identifier, Index))
                   for built, part in zip(parts, target.parts, strict=True)):
                # Lane mask -1: each part takes the whole assignment's mask.
                return ("concat", [[(built, -1)] for built in parts],
                        [self._fixed_width(part) for part in target.parts])
            resolvers = [_fixed(built) if isinstance(built, tuple) else built
                         for built in parts]
            widths = [self._build_target_width(part) for part in target.parts]

            def resolve(sv, sx, m, lm):
                return [(("concat",
                          [p(sv, sx, m, lm) for p in resolvers],
                          [w(sv, sx, m) for w in widths]), lm)]

            return resolve
        raise SimulationError(
            f"unsupported assignment target {type(target).__name__}"
        )

    def _fixed_width(self, target: Expr) -> int:
        """The width of a built whole-signal or single-select lvalue."""
        if isinstance(target, Index):
            spec = self.design.signal(self._lvalue_name(target.target))
            return spec.width if spec.is_memory else 1
        return self.design.signal(self._lvalue_name(target)).width

    def _build_target_width(self, target: Expr) -> Callable[..., int]:
        """The width of a built concat-target part, at run time: a part
        select's bounds may be computed."""
        L = self.L
        if isinstance(target, PartSelect):
            msb = self._build_expr(target.msb)
            lsb = self._build_expr(target.lsb)

            def width_of(sv, sx, m):
                mw, mv, mx = msb(sv, sx, m)
                lw, lv, lx = lsb(sv, sx, m)
                if mx or lx:
                    raise SimulationError("X width in part-select target")
                hi = L.uniform(mv, mw)
                lo = L.uniform(lv, lw)
                if hi is None or lo is None:
                    raise SimulationError(
                        "lane-divergent part-select target width"
                    )
                return abs(hi - lo) + 1

            return width_of
        if isinstance(target, Concat):
            widths = [self._build_target_width(p) for p in target.parts]
            return lambda sv, sx, m: sum(w(sv, sx, m) for w in widths)
        width = self._fixed_width(target)
        return lambda sv, sx, m: width

    # -- expressions -------------------------------------------------------

    def _build_expr(self, expr: Expr, sensitive: bool = False) -> ExprFn:
        """Build one expression into a packed closure.

        ``sensitive`` marks a *width-sensitive* context: the parent
        operator's result depends on the operand's exact bit width, not
        just its numeric value (``~``, reductions, subtraction, left
        shifts, concat/replicate parts, select targets).  A ternary
        whose branches have different widths and whose lanes pick
        different branches can only be packed by zero-extending the
        narrow branch to the max width; that is bit-exact in
        width-insensitive contexts (assign right-hand sides, compares,
        value arithmetic -- the interpreter resizes there anyway) and
        raises in sensitive ones so the caller can fall back to one
        lane.  The flag is a property of the walk, not of the node.
        """
        L = self.L
        if isinstance(expr, Identifier):
            slot = self._slot(expr.name)
            width = self.widths[slot]
            return lambda sv, sx, m: (width, sv[slot], sx[slot])
        const = _const(expr)
        if const is not None:
            kw, kv, kx = const
            packed = (kw, L.rep(kv, kw), L.rep(kx, kw))
            return lambda sv, sx, m: packed
        if isinstance(expr, Unary):
            return self._build_unary(expr, sensitive)
        if isinstance(expr, Binary):
            return self._build_binary(expr, sensitive)
        if isinstance(expr, Ternary):
            return self._build_ternary(expr, sensitive)
        if isinstance(expr, Index):
            return self._build_index(expr)
        if isinstance(expr, PartSelect):
            return self._build_part_select(expr)
        if isinstance(expr, Concat):
            parts = [self._build_expr(p, True) for p in expr.parts]
            if L.n == 1:
                def run(sv, sx, m):
                    w = v = x = 0
                    for part in parts:
                        pw, pv, px = part(sv, sx, m)
                        w += pw
                        v = (v << pw) | pv
                        x = (x << pw) | px
                    return (w, v, x)

                return run

            def run(sv, sx, m):
                vals = [p(sv, sx, m) for p in parts]
                total = 0
                for pw, _, _ in vals:
                    total += pw
                out_v = out_x = 0
                for i in range(L.n):
                    acc_v = acc_x = 0
                    for pw, pv, px in vals:
                        pm = (1 << pw) - 1
                        acc_v = (acc_v << pw) | ((pv >> (i * pw)) & pm)
                        acc_x = (acc_x << pw) | ((px >> (i * pw)) & pm)
                    out_v |= acc_v << (i * total)
                    out_x |= acc_x << (i * total)
                return (total, out_v, out_x)

            return run
        if isinstance(expr, Replicate):
            return self._build_replicate(expr)
        if isinstance(expr, SystemCall):
            if expr.name in ("$clog2", *_SIGN_CASTS) and len(expr.args) != 1:
                raise SimulationError(
                    f"{expr.name} expects exactly one argument"
                )
            if expr.name in _SIGN_CASTS:
                # The width-sensitivity context flows to the operand.
                return self._build_expr(expr.args[0], sensitive)
            if expr.name == "$clog2":
                return self._build_clog2(expr.args[0])
            raise SimulationError(f"unsupported system call {expr.name}")
        raise SimulationError(f"cannot evaluate {type(expr).__name__}")

    def _build_ternary(self, expr: Ternary, sensitive: bool) -> ExprFn:
        L = self.L
        cond = self._build_expr(expr.cond)
        then = self._build_expr(expr.then, sensitive)
        otherwise = self._build_expr(expr.otherwise, sensitive)
        nonzero = L.nonzero
        alln = L.all

        def run(sv, sx, m):
            cw, cv, cx = cond(sv, sx, m)
            # 1-bit values (mostly compare results) are already
            # stride-1 lane masks.
            t = cv if cw == 1 else nonzero(cv, cw)
            xm = (nonzero(cx, cw) & ~t) if cx else 0
            f = alln & ~t & ~xm
            if not xm:
                if not f:
                    return then(sv, sx, m)
                if not t:
                    return otherwise(sv, sx, m)
            a = then(sv, sx, m)
            b = otherwise(sv, sx, m)
            if a[0] != b[0] and sensitive and (t or f):
                # The interpreter gives a known-condition lane the
                # un-resized branch value; zero-extending it to the max
                # width is only exact in width-insensitive contexts.
                raise SimulationError(
                    "lane-divergent ternary width in sensitive context"
                )
            w = a[0] if a[0] >= b[0] else b[0]
            _, av, ax = _v_resize(L, *a, w)
            _, bv, bx = _v_resize(L, *b, w)
            diff = (av ^ bv) | ax | bx
            e_t = L.expand(t, w)
            e_f = L.expand(f, w)
            e_x = L.expand(xm, w)
            rv = (av & e_t) | (bv & e_f) | (av & ~diff & e_x)
            rx = (ax & e_t) | (bx & e_f) | (diff & e_x)
            return (w, rv, rx)

        return run

    def _build_index(self, expr: Index) -> ExprFn:
        """Bit and memory-word reads.  A uniform known index (always the
        case at one lane) reads directly; otherwise lanes are grouped by
        index and gathered group by group."""
        L = self.L
        uniform = L.uniform
        pick = L.pick
        x_bit = (1, 0, L.all)

        def gather(tw, tv, tx, adjust, iw, iv, ix):
            """Divergent or X index: one bit read per index group."""
            groups, xl = _lane_groups(L, iw, iv, ix, L.all)
            out_v = 0
            out_x = xl
            for val, sub in groups:
                i = val - adjust
                if i < 0 or i >= tw:
                    out_x |= sub
                else:
                    out_v |= pick(tv, tw, i) & sub
                    out_x |= pick(tx, tw, i) & sub
            return (1, out_v, out_x)

        index = self._build_expr(expr.index)  # the index before the target
        if not isinstance(expr.target, Identifier):
            target = self._build_expr(expr.target, True)

            def run(sv, sx, m):
                tw, tv, tx = target(sv, sx, m)
                iw, iv, ix = index(sv, sx, m)
                u = None if ix else uniform(iv, iw)
                if u is not None:
                    if u >= tw:
                        return x_bit
                    return (1, pick(tv, tw, u), pick(tx, tw, u))
                return gather(tw, tv, tx, 0, iw, iv, ix)

            return run
        spec = self.design.signal(expr.target.name)
        width = spec.width
        if spec.is_memory:
            mem_slot, mem_lsb = self.mem_slot[spec.name], spec.mem_lsb
            unknown = (width, 0, L.full(width))

            def run(sv, sx, m):
                iw, iv, ix = index(sv, sx, m)
                mem = m[mem_slot]
                u = None if ix else uniform(iv, iw)
                if u is not None:
                    word = mem.get(u - mem_lsb)
                    if word is None:
                        return unknown
                    return (width, word[0], word[1])
                # Divergent addresses: gather one word per group.
                # Unwritten lanes of a stored word are all-X, so a
                # plain masked OR is an exact per-lane read.
                groups, xl = _lane_groups(L, iw, iv, ix, L.all)
                out_v = 0
                out_x = L.expand(xl, width) if xl else 0
                for val, sub in groups:
                    word = mem.get(val - mem_lsb)
                    e = L.expand(sub, width)
                    if word is None:
                        out_x |= e
                    else:
                        out_v |= word[0] & e
                        out_x |= word[1] & e
                return (width, out_v, out_x)

            return run
        slot, lsb = self.slot[spec.name], spec.lsb
        known = _known(expr.index)
        if known is not None:
            i = known - lsb
            if i < 0 or i >= width:
                return lambda sv, sx, m: x_bit
            return lambda sv, sx, m: (1, pick(sv[slot], width, i),
                                      pick(sx[slot], width, i))

        def run(sv, sx, m):
            iw, iv, ix = index(sv, sx, m)
            u = None if ix else uniform(iv, iw)
            if u is not None:
                i = u - lsb
                if i < 0 or i >= width:
                    return x_bit
                return (1, pick(sv[slot], width, i),
                        pick(sx[slot], width, i))
            return gather(width, sv[slot], sx[slot], lsb, iw, iv, ix)

        return run

    def _build_part_select(self, expr: PartSelect) -> ExprFn:
        L = self.L
        target = self._build_expr(expr.target, True)
        msb = self._build_expr(expr.msb)
        lsb = self._build_expr(expr.lsb)
        adjust = 0
        if isinstance(expr.target, Identifier):
            adjust = self.design.signal(expr.target.name).lsb

        def run(sv, sx, m):
            w, v, x = target(sv, sx, m)
            mw, mv, mx = msb(sv, sx, m)
            lw, lv, lx = lsb(sv, sx, m)
            if mx or lx:
                xl = L.nonzero(mx, mw) | L.nonzero(lx, lw)
                if xl == L.all:
                    return (w, 0, L.full(w))
                raise SimulationError("lane-divergent X part-select bounds")
            hi = L.uniform(mv, mw)
            lo = L.uniform(lv, lw)
            if hi is None or lo is None:
                raise SimulationError("lane-divergent part-select bounds")
            hi -= adjust
            lo -= adjust
            if hi < lo:
                hi, lo = lo, hi
            return _v_slice(L, w, v, x, hi, lo)

        return run

    def _build_replicate(self, expr: Replicate) -> ExprFn:
        L = self.L
        count = self._build_expr(expr.count)
        value = self._build_expr(expr.value, True)

        def run(sv, sx, m):
            cw, cv, cx = count(sv, sx, m)
            if cx:
                raise SimulationError("X replication count")
            c = L.uniform(cv, cw)
            if c is None:
                raise SimulationError("lane-divergent replication count")
            if c <= 0:
                raise ValueError(
                    f"replication count must be positive: {c}"
                )
            w, v, x = value(sv, sx, m)
            rw = w * c
            fm = (1 << w) - 1
            out_v = out_x = 0
            for i in range(L.n):
                fv = (v >> (i * w)) & fm
                fx = (x >> (i * w)) & fm
                av = ax = 0
                for _ in range(c):
                    av = (av << w) | fv
                    ax = (ax << w) | fx
                out_v |= av << (i * rw)
                out_x |= ax << (i * rw)
            return (rw, out_v, out_x)

        return run

    def _build_unary(self, expr: Unary, sensitive: bool) -> ExprFn:
        L = self.L
        op = expr.op
        # ~, negate and the reductions read the operand's exact width;
        # ! only tests nonzero; unary + is the identity.
        if op == "+":
            operand_sensitive = sensitive
        else:
            operand_sensitive = op != "!"
        value = self._build_expr(expr.operand, operand_sensitive)
        fullt = L._full
        nonzero = L.nonzero
        alln = L.all
        if op == "~":
            def run(sv, sx, m):
                w, v, x = value(sv, sx, m)
                return (w, ~v & fullt[w] & ~x, x)

            return run
        if op == "!":
            def run(sv, sx, m):
                w, v, x = value(sv, sx, m)
                t = nonzero(v, w)
                xm = (nonzero(x, w) & ~t) if x else 0
                return (1, alln & ~t & ~xm, xm)

            return run
        if op == "-":
            def run(sv, sx, m):
                w, v, x = value(sv, sx, m)
                px = L.nonzero(x, w)
                e = L.expand(px, w) if px else 0
                rv = L.sub(0, v, w) & L.full(w)
                return (w, rv & ~e, e)

            return run
        if op == "+":
            return value
        if op in ("&", "|", "^", "~&", "~|", "~^"):
            invert = op.startswith("~")
            base = op[-1]

            def run(sv, sx, m):
                w, v, x = value(sv, sx, m)
                if base == "&":
                    # A known-0 bit anywhere makes the lane 0.
                    zeros = nonzero(~(v | x) & fullt[w], w)
                    xm = (nonzero(x, w) & ~zeros) if x else 0
                    val = alln & ~zeros & ~xm
                elif base == "|":
                    val = nonzero(v, w)
                    xm = (nonzero(x, w) & ~val) if x else 0
                else:
                    xm = nonzero(x, w) if x else 0
                    val = 0
                    field = (1 << w) - 1
                    for i in range(L.n):
                        chunk = v >> (i * w)
                        if not chunk:
                            break
                        if (chunk & field).bit_count() & 1:
                            val |= 1 << i
                    val &= ~xm
                if invert:
                    val = alln & ~val & ~xm
                return (1, val, xm)

            return run
        raise SimulationError(f"unknown unary operator {op!r}")

    def _build_binary(self, expr: Binary, sensitive: bool) -> ExprFn:
        L = self.L
        op = expr.op
        # Subtraction wraps at the operand-derived width, xnor inverts
        # up to it, left shifts truncate at it, and ** picks its result
        # width from it: their operands are inherently width-sensitive.
        # The other arithmetic/bitwise operators only read operand
        # *values* (zero-extension exact) but derive their own result
        # width from operand widths, so they pass the parent's
        # sensitivity through.  Compares and logicals produce width 1
        # from values alone: never sensitive.
        inherent = ("-", "~^", "^~", "**")
        if op in inherent or op in ("<<", "<<<"):
            left_sensitive = True
        elif op in ("&", "|", "^", "+", "*", "/", "%", ">>", ">>>"):
            left_sensitive = sensitive
        else:
            left_sensitive = False
        if op in inherent:
            right_sensitive = True
        elif op in ("&", "|", "^", "+", "*", "/", "%"):
            right_sensitive = sensitive
        else:
            right_sensitive = False
        left = self._build_expr(expr.left, left_sensitive)
        right = self._build_expr(expr.right, right_sensitive)
        repack = L.repack
        nonzero = L.nonzero
        expand = L.expand
        fullt = L._full
        alln = L.all

        def align(aw, av, ax, bw, bv, bx):
            """Zero-extend the narrower operand to the wider stride:
            ``(w, av, ax, bv, bx)``.  Callers skip it for equal widths."""
            if aw < bw:
                return bw, repack(av, aw, bw), repack(ax, aw, bw), bv, bx
            return aw, av, ax, repack(bv, bw, aw), repack(bx, bw, aw)

        if op in ("&&", "||"):
            want_or = op == "||"

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                # Per-lane logical truth; a lane with any known 1 bit
                # is true even when other bits are X.
                ta = av if aw == 1 else nonzero(av, aw)
                xa = (nonzero(ax, aw) & ~ta) if ax else 0
                tb = bv if bw == 1 else nonzero(bv, bw)
                xb = (nonzero(bx, bw) & ~tb) if bx else 0
                if want_or:
                    one = ta | tb  # X | 1 == 1; X | 0 == X
                    xm = (xa | xb) & ~one
                    return (1, one, xm)
                fa = alln & ~ta & ~xa  # X & 0 == 0; X & 1 == X
                fb = alln & ~tb & ~xb
                zero = fa | fb
                xm = (xa | xb) & ~zero
                return (1, alln & ~zero & ~xm, xm)

            return run
        if op in ("&", "|", "^", "~^", "^~"):
            return self._build_bitwise(op, left, right, align)
        if op in ("+", "-"):
            add = op == "+"
            if L.n == 1:
                def run(sv, sx, m):
                    aw, av, ax = left(sv, sx, m)
                    bw, bv, bx = right(sv, sx, m)
                    w = (aw if aw >= bw else bw) + 1
                    if ax or bx:
                        return (w, 0, fullt[w])
                    return (w, (av + bv if add else av - bv) & fullt[w], 0)

                return run
            sub = L.sub

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                # At stride max+1, zero-extended fields cannot carry
                # (or, via SWAR, borrow) across a lane boundary.
                w = (aw if aw >= bw else bw) + 1
                px = (nonzero(ax, aw) if ax else 0) \
                    | (nonzero(bx, bw) if bx else 0)
                av = repack(av, aw, w)
                bv = repack(bv, bw, w)
                r = av + bv if add else sub(av, bv, w)
                if not px:
                    return (w, r, 0)
                e = expand(px, w)
                return (w, r & ~e, e)

            return run
        if op == "*":
            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw + bw
                px = L.nonzero(ax, aw) | L.nonzero(bx, bw)
                am = (1 << aw) - 1
                bm = (1 << bw) - 1
                out = 0
                for i in range(L.n):
                    if (px >> i) & 1:
                        continue
                    fa = (av >> (i * aw)) & am
                    fb = (bv >> (i * bw)) & bm
                    out |= (fa * fb) << (i * w)
                if not px:
                    return (w, out, 0)
                return (w, out, L.expand(px, w))

            return run
        if op in ("/", "%"):
            modulo = op == "%"

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw if aw >= bw else bw
                xl = L.nonzero(ax, aw) | L.nonzero(bx, bw)
                am = (1 << aw) - 1
                bm = (1 << bw) - 1
                wm = (1 << w) - 1
                out = 0
                for i in range(L.n):
                    if (xl >> i) & 1:
                        continue
                    fb = (bv >> (i * bw)) & bm
                    if fb == 0:
                        xl |= 1 << i  # division by zero: all-X lane
                        continue
                    fa = (av >> (i * aw)) & am
                    r = fa % fb if modulo else fa // fb
                    out |= (r & wm) << (i * w)
                if not xl:
                    return (w, out, 0)
                return (w, out, L.expand(xl, w))

            return run
        if op == "**":
            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                px = L.nonzero(ax, aw) | L.nonzero(bx, bw)
                if px:
                    if px == L.all:
                        return (aw, 0, L.full(aw))
                    # The interpreter's width is aw for X lanes,
                    # max(32, aw) otherwise; mixed lanes cannot pack.
                    raise SimulationError("lane-divergent X power operand")
                w = max(32, aw)
                am = (1 << aw) - 1
                bm = (1 << bw) - 1
                wm = (1 << w) - 1
                out = 0
                for i in range(L.n):
                    fa = (av >> (i * aw)) & am
                    fb = (bv >> (i * bw)) & bm
                    out |= ((fa ** fb) & wm) << (i * w)
                return (w, out, 0)

            return run
        if op in ("<<", "<<<", ">>", ">>>"):
            return self._expr_shift(left, right, op in ("<<", "<<<"))
        if op in ("==", "!="):
            negate = op == "!="

            def run(sv, sx, m):
                w, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                if w != bw:
                    w, av, ax, bv, bx = align(w, av, ax, bw, bv, bx)
                if not (ax | bx):
                    neq = nonzero(av ^ bv, w)
                    if negate:
                        return (1, neq, 0)
                    return (1, alln & ~neq, 0)
                care = ~(ax | bx) & fullt[w]
                neq = nonzero((av ^ bv) & care, w)
                xm = (nonzero(ax, w) | nonzero(bx, w)) & ~neq
                if negate:
                    return (1, neq, xm)
                return (1, alln & ~neq & ~xm, xm)

            return run
        if op in ("===", "!=="):
            negate = op == "!=="

            def run(sv, sx, m):
                w, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                if w != bw:
                    w, av, ax, bv, bx = align(w, av, ax, bw, bv, bx)
                neq = nonzero((av ^ bv) | (ax ^ bx), w)
                if negate:
                    return (1, neq, 0)
                return (1, alln & ~neq, 0)

            return run
        if op in ("<", "<=", ">", ">="):
            compare = {"<": operator.lt, "<=": operator.le,
                       ">": operator.gt, ">=": operator.ge}[op]
            if L.n == 1:
                x_bit, true, false = (1, 0, 1), (1, 1, 0), (1, 0, 0)

                def run(sv, sx, m):
                    _, av, ax = left(sv, sx, m)
                    _, bv, bx = right(sv, sx, m)
                    if ax or bx:
                        return x_bit
                    return true if compare(av, bv) else false

                return run
            nlanes = L.n

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                px = (nonzero(ax, aw) if ax else 0) \
                    | (nonzero(bx, bw) if bx else 0)
                am = (1 << aw) - 1
                bm = (1 << bw) - 1
                out = 0
                for i in range(nlanes):
                    if (px >> i) & 1:
                        continue
                    fa = (av >> (i * aw)) & am
                    fb = (bv >> (i * bw)) & bm
                    if compare(fa, fb):
                        out |= 1 << i
                return (1, out, px)

            return run
        raise SimulationError(f"unknown binary operator {op!r}")

    def _build_bitwise(self, op: str, left: ExprFn, right: ExprFn,
                       align: Callable[..., tuple]) -> ExprFn:
        """``&``, ``|``, ``^`` and xnor -- the bulk of structural
        designs -- one closure per operator."""
        fullt = self.L._full
        if op == "&":
            def run(sv, sx, m):
                w, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                if w != bw:
                    w, av, ax, bv, bx = align(w, av, ax, bw, bv, bx)
                known_zero = (~av & ~ax) | (~bv & ~bx)
                return (w, av & bv, (ax | bx) & ~known_zero)

            return run
        if op == "|":
            def run(sv, sx, m):
                w, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                if w != bw:
                    w, av, ax, bv, bx = align(w, av, ax, bw, bv, bx)
                known_one = (av & ~ax) | (bv & ~bx)
                x = (ax | bx) & ~known_one
                return (w, (av | bv) & ~x, x)

            return run
        invert = op != "^"

        def run(sv, sx, m):
            w, av, ax = left(sv, sx, m)
            bw, bv, bx = right(sv, sx, m)
            if w != bw:
                w, av, ax, bv, bx = align(w, av, ax, bw, bv, bx)
            x = ax | bx
            v = (av ^ bv) & ~x
            if invert:
                v = ~v & fullt[w] & ~x
            return (w, v, x)

        return run

    def _expr_shift(self, left: ExprFn, right: ExprFn,
                    is_left: bool) -> ExprFn:
        L = self.L
        nonzero = L.nonzero
        uniform = L.uniform

        def run(sv, sx, m):
            aw, av, ax = left(sv, sx, m)
            bw, bv, bx = right(sv, sx, m)
            pbx = nonzero(bx, bw) if bx else 0
            if not pbx:
                s = uniform(bv, bw)
                if s is not None:
                    # Uniform known amount: one wide shift, with a
                    # replicated keep-mask stopping cross-lane bleed.
                    if s >= aw:
                        return (aw, 0, 0)
                    if is_left:
                        keep = L.rep((1 << (aw - s)) - 1, aw)
                        return (aw, (av & keep) << s, (ax & keep) << s)
                    keep = L.rep(((1 << (aw - s)) - 1) << s, aw)
                    return (aw, (av & keep) >> s, (ax & keep) >> s)
            am = (1 << aw) - 1
            bm = (1 << bw) - 1
            out_v = out_x = 0
            for i in range(L.n):
                if (pbx >> i) & 1:
                    continue  # X amount: lane goes all-X below
                s = (bv >> (i * bw)) & bm
                if s >= aw:
                    continue
                fa = (av >> (i * aw)) & am
                fx = (ax >> (i * aw)) & am
                if is_left:
                    rv = (fa << s) & am
                    rx = (fx << s) & am
                else:
                    rv = fa >> s
                    rx = fx >> s
                out_v |= rv << (i * aw)
                out_x |= rx << (i * aw)
            if pbx:
                out_x |= L.expand(pbx, aw)
            return (aw, out_v, out_x)

        return run

    def _build_clog2(self, arg: Expr) -> ExprFn:
        L = self.L
        operand = self._build_expr(arg)

        def run(sv, sx, m):
            ow, ov, ox = operand(sv, sx, m)
            if ox:
                raise SimulationError("$clog2 of X value")
            om = (1 << ow) - 1
            out = 0
            for i in range(L.n):
                f = (ov >> (i * ow)) & om
                r = 0 if f <= 1 else int(math.ceil(math.log2(f)))
                out |= (r & 0xFFFFFFFF) << (i * 32)
            return (32, out, 0)

        return run


class _BuildFailure(NamedTuple):
    """A build that raised: the type and arguments of its exception."""

    error: type[Exception]
    args: tuple


def vector_design(design: FlatDesign, lanes: int) -> VectorDesign:
    """Build ``design`` for ``lanes`` lanes, caching on the design.

    The design's ``_lowered_cache`` holds the shared slot layout under
    ``("ir", 0)`` (see :mod:`repro.verilog.lower`) and one build per
    lane count under ``("vector", lanes)``.  A build that raises is
    cached there too: every later call raises a fresh exception of the
    same type and message without building again (raising one instance
    again would grow its traceback and pin its frames).
    """
    cache = design._lowered_cache
    key = ("vector", lanes)
    vd = cache.get(key)
    if vd is None:
        try:
            vd = VectorDesign(design, lanes)
        except Exception as exc:
            cache[key] = _BuildFailure(type(exc), exc.args)
            raise
        cache[key] = vd
    elif isinstance(vd, _BuildFailure):
        raise vd.error(*vd.args)
    return vd


class VectorSimulator(Simulator):
    """A :class:`Simulator` advancing ``lanes`` independent stimulus
    sequences through one design at once.

    The scalar API (``poke``/``poke_many``/``clock_pulse``/``settle``)
    broadcasts to every active lane, and ``state``/``memories``/
    ``peek()`` default to lane 0, so a 1-lane instance -- what
    ``Simulator(design)`` builds -- is a drop-in scalar backend.
    Lane-aware extensions: ``poke_many_lanes`` drives per-lane values,
    ``peek(name, lane)``/``state_lane``/``memories_lane``/
    ``read_memory(..., lane=...)`` observe one lane, and
    ``retire_lane`` freezes a finished lane so the remaining lanes keep
    stepping without it.
    """

    backend = "vector"

    def __init__(self, design: FlatDesign, backend: str | None = None,
                 lanes: int = 1):
        self.design = design
        self.lanes = lanes
        self.vd = vector_design(design, lanes)
        L = self.vd.L
        self._L = L
        widths = self.vd.widths
        self._sv: list[int] = [0] * len(widths)
        self._sx: list[int] = [L.full(w) for w in widths]
        self._m: list[dict[int, tuple[int, int, int]]] = [
            {} for _ in range(self.vd.n_mems)
        ]
        self._active = L.all
        self._edge_v: list[int] = []
        self._edge_x: list[int] = []
        self._eval_cache: dict[int, tuple] = {}
        for init in self.vd.initials:
            init(self._sv, self._sx, self._m, None, L.all)
        self.settle()
        self._snapshot_edges()

    # -- lane management ---------------------------------------------------

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lanes:
            raise SimulationError(
                f"lane {lane} out of range for {self.lanes}-lane simulator"
            )

    def retire_lane(self, lane: int) -> None:
        """Freeze a lane: it stops receiving pokes and executing
        processes; its state stays readable."""
        self._check_lane(lane)
        self._active &= ~(1 << lane)

    @property
    def active_lanes(self) -> int:
        """Stride-1 mask of lanes still running."""
        return self._active

    # -- state access ------------------------------------------------------

    def state_lane(self, lane: int) -> dict[str, FourState]:
        """Interp-compatible name -> value snapshot of one lane."""
        self._check_lane(lane)
        L = self._L
        sv, sx = self._sv, self._sx
        widths = self.vd.widths
        return {
            name: FourState(widths[slot],
                            L.extract(sv[slot], widths[slot], lane),
                            L.extract(sx[slot], widths[slot], lane))
            for name, slot in self.vd.slot.items()
        }

    @property
    def state(self) -> dict[str, FourState]:
        return self.state_lane(0)

    def memories_lane(self, lane: int) -> dict[str, dict[int, FourState]]:
        """Interp-compatible memory snapshot of one lane: only words
        this lane actually wrote appear, exactly like a scalar run."""
        self._check_lane(lane)
        L = self._L
        bit = 1 << lane
        out: dict[str, dict[int, FourState]] = {}
        for name, slot in self.vd.mem_slot.items():
            width = self.design.signal(name).width
            out[name] = {
                addr: FourState(width, L.extract(v, width, lane),
                                L.extract(x, width, lane))
                for addr, (v, x, written) in self._m[slot].items()
                if written & bit
            }
        return out

    @property
    def memories(self) -> dict[str, dict[int, FourState]]:
        return self.memories_lane(0)

    def _set_signal(self, name: str, value: "int | FourState") -> None:
        slot = self.vd.slot.get(name)
        if slot is None:
            self.design.signal(name)  # unknown names fault here
            raise SimulationError(f"cannot poke memory {name!r}")
        L = self._L
        w = self.vd.widths[slot]
        ones = L._ones[w]
        if isinstance(value, int):
            v = (value & ((1 << w) - 1)) * ones
            x = 0
        else:
            resized = value.resize(w)
            v = resized.val * ones
            x = resized.xmask * ones
        active = self._active
        if active == L.all:
            self._sv[slot] = v
            self._sx[slot] = x
        else:
            e = L.expand(active, w)
            self._sv[slot] = (self._sv[slot] & ~e) | (v & e)
            self._sx[slot] = (self._sx[slot] & ~e) | (x & e)

    def poke_many_lanes(
            self, values: dict[str, Sequence["int | FourState | None"]],
    ) -> None:
        """Drive per-lane input values, then propagate once.

        Each signal maps to a sequence of at most ``lanes`` entries;
        ``None`` leaves that lane's current value untouched (used for
        retired lanes and for stimuli that omit an input this cycle).
        """
        L = self._L
        alln = L.all
        sv, sx = self._sv, self._sx
        slots = self.vd.slot
        widths = self.vd.widths
        lanes = self.lanes
        active = self._active
        for name, lane_values in values.items():
            if len(lane_values) > lanes:
                raise SimulationError(
                    f"{len(lane_values)} values for {lanes}-lane "
                    f"simulator on signal {name!r}"
                )
            slot = slots.get(name)
            if slot is None:
                self.design.signal(name)  # unknown names fault here
                raise SimulationError(f"cannot poke memory {name!r}")
            w = widths[slot]
            mask_w = (1 << w) - 1
            v = x = lm = 0
            for i, item in enumerate(lane_values):
                if item is None:
                    continue
                lm |= 1 << i
                if isinstance(item, int):
                    v |= (item & mask_w) << (i * w)
                else:
                    resized = item.resize(w)
                    v |= resized.val << (i * w)
                    x |= resized.xmask << (i * w)
            lm &= active
            if not lm:
                continue
            if lm == alln:
                sv[slot] = v
                sx[slot] = x
            else:
                e = L.expand(lm, w)
                sv[slot] = (sv[slot] & ~e) | (v & e)
                sx[slot] = (sx[slot] & ~e) | (x & e)
        self._propagate()

    def peek(self, name: str, lane: int = 0) -> FourState:
        slot = self.vd.slot.get(name)
        if slot is None:
            raise SimulationError(f"unknown signal {name!r}")
        if lane:
            self._check_lane(lane)
        w = self.vd.widths[slot]
        shift = lane * w
        # FourState truncates both fields to w bits.
        return FourState(w, self._sv[slot] >> shift, self._sx[slot] >> shift)

    def peek_raw(self, name: str, lane: int) -> tuple[int, int]:
        """One lane's ``(val, xmask)`` as plain ints -- the hot-loop
        variant of :meth:`peek`, skipping FourState construction."""
        slot = self.vd.slot.get(name)
        if slot is None:
            raise SimulationError(f"unknown signal {name!r}")
        w = self.vd.widths[slot]
        shift = lane * w
        field = (1 << w) - 1
        x = (self._sx[slot] >> shift) & field
        return (self._sv[slot] >> shift) & field & ~x, x

    def eval(self, expr: Expr) -> FourState:
        """Evaluate an expression against lane 0's current state."""
        cached = self._eval_cache.get(id(expr))
        if cached is None or cached[0] is not expr:
            # Holding the expr in the cache keeps its id() stable.
            cached = (expr, self.vd._build_expr(expr))
            self._eval_cache[id(expr)] = cached
        w, v, x = cached[1](self._sv, self._sx, self._m)
        L = self._L
        return FourState(w, L.extract(v, w, 0), L.extract(x, w, 0))

    def read_memory(self, name: str, address: int,
                    lane: int = 0) -> FourState:
        slot = self.vd.mem_slot.get(name)
        if slot is None:
            raise SimulationError(f"{name!r} is not a memory")
        self._check_lane(lane)
        width = self.design.signal(name).width
        word = self._m[slot].get(address)
        if word is None:
            return FourState.unknown(width)
        L = self._L
        return FourState(width, L.extract(word[0], width, lane),
                         L.extract(word[1], width, lane))

    def write_memory(self, name: str, address: int, value: int) -> None:
        """Backdoor-write one word on every active lane."""
        slot = self.vd.mem_slot.get(name)
        if slot is None:
            raise SimulationError(f"{name!r} is not a memory")
        L = self._L
        width = self.design.signal(name).width
        v = L.rep(value & ((1 << width) - 1), width)
        cur = self._m[slot].get(address)
        if cur is None:
            cur = (0, L.full(width), 0)
        active = self._active
        e = L.expand(active, width)
        self._m[slot][address] = ((cur[0] & ~e) | (v & e), cur[1] & ~e,
                                  cur[2] | active)

    # -- propagation engine ------------------------------------------------

    def settle(self) -> None:
        sv, sx, m = self._sv, self._sx, self._m
        active = self._active
        if not active:
            return
        assigns = self.vd.assigns
        comb = self.vd.comb
        for _ in range(_MAX_SETTLE_ITERS):
            changed = False
            for assign in assigns:
                if assign(sv, sx, m, active):
                    changed = True
            for body, wslots in comb:
                if self._run_comb(body, wslots, active):
                    changed = True
            if not changed:
                return
        raise SimulationError("combinational logic did not settle "
                              f"after {_MAX_SETTLE_ITERS} iterations")

    def _run_comb(self, body: StmtFn, wslots: tuple[int, ...],
                  active: int) -> bool:
        sv, sx, m = self._sv, self._sx, self._m
        before = [(sv[slot], sx[slot]) for slot in wslots]
        nba: list = []
        body(sv, sx, m, nba, active)
        if nba:
            self._commit(nba)
        for slot, (v, x) in zip(wslots, before, strict=True):
            if sv[slot] != v or sx[slot] != x:
                return True
        return False

    def _commit(self, nba: list) -> None:
        L = self._L
        sv, sx, m = self._sv, self._sx, self._m
        it = iter(nba)
        for resolved, lm, value in zip(it, it, it, strict=True):
            _apply_group(L, sv, sx, m, resolved, value, lm)

    def _snapshot_edges(self) -> None:
        sv, sx = self._sv, self._sx
        slots = self.vd.edge_slots
        self._edge_v = [sv[slot] for slot in slots]
        self._edge_x = [sx[slot] for slot in slots]

    def _propagate(self) -> None:
        self.settle()
        sv, sx, m = self._sv, self._sx, self._m
        for _ in range(_MAX_EDGE_CASCADE):
            triggered = self._triggered_bodies()
            if triggered is None:
                return  # nothing moved: the last snapshot still holds
            self._snapshot_edges()
            if not triggered:
                return
            nba: list = []
            for body, trig in triggered:
                body(sv, sx, m, nba, trig)
            self._commit(nba)
            self.settle()
        raise SimulationError("edge cascade exceeded "
                              f"{_MAX_EDGE_CASCADE} levels")

    def _triggered_bodies(self) -> "list[tuple[StmtFn, int]] | None":
        """Edge-triggered bodies to run, with per-lane trigger masks.

        Returns ``None`` when no edge signal changed at all since the
        last snapshot (so the caller can skip re-snapshotting), and an
        empty list when signals moved without firing any sensitivity.
        Edges read bit 0 of each lane; a 1-bit signal's value already is
        that stride-1 lane mask.
        """
        sv, sx = self._sv, self._sx
        prev_v, prev_x = self._edge_v, self._edge_x
        active = self._active
        if not active:
            return None
        for i, slot in enumerate(self.vd.edge_slots):
            if sv[slot] != prev_v[i] or sx[slot] != prev_x[i]:
                break
        else:
            return None  # no edge signal moved since the last snapshot
        pick = self._L.pick
        triggered = []
        for sens, body in self.vd.seq:
            trig = 0
            for edge, slot, i, w in sens:
                pv, px, nv, nx = prev_v[i], prev_x[i], sv[slot], sx[slot]
                if w != 1:
                    pv, px = pick(pv, w, 0), pick(px, w, 0)
                    nv, nx = pick(nv, w, 0), pick(nx, w, 0)
                if edge == _POSEDGE:
                    trig |= nv & ~pv
                elif edge == _NEGEDGE:
                    trig |= (pv | px) & ~(nv | nx)
                else:
                    trig |= (pv ^ nv) | (px ^ nx)
            trig &= active
            if trig:
                triggered.append((body, trig))
        return triggered
