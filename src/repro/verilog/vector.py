"""Lane-vectorized simulation backend: N stimulus sequences at once.

Every measurement in this reproduction replays the *same elaborated
design* under many independent stimulus sequences (one per completion
x seed).  The compiled backend (:mod:`repro.verilog.compile`) amortizes
the front-end across those runs but still advances one sequence at a
time.  This module packs ``n`` independent simulations ("lanes") into
wide Python ints: each signal's ``(val, xmask)`` pair stores the n
lanes bit-interleaved at a stride equal to the signal's width, so one
integer AND/OR/XOR/add advances all lanes simultaneously.

Layout.  A packed value is a ``(width, val, xmask)`` tuple where lane
``i``'s field occupies bits ``[i*width, (i+1)*width)`` of ``val`` and
``xmask``.  Pure bitwise operators (&, |, ^, ~, ==) vectorize for free
-- the scalar X-propagation formulas from ``compile.py`` are already
lanewise.  Addition widens both operands to the result stride (fields
can then never carry across a lane boundary); subtraction uses the
SWAR borrow-isolation identity.  Multiply/divide/compare extract lanes
and loop -- cold paths in real designs.

Control flow uses lane-mask predication, the same way the scalar
closures handle X-masks: statement closures take an active-lane mask,
``If`` splits it by the per-lane truth of the condition, ``Case``
peels matching lanes off arm by arm, ``For`` retires lanes whose
condition goes false, and writes merge into the packed state only
under the active mask.  Nonblocking assignments capture their resolved
target groups *and* lane mask at schedule time.

Lane-divergent constructs a single packed value cannot represent
(per-lane result widths from mixed-width ternaries, divergent
replication counts or part-select bounds) raise
:class:`~repro.verilog.simulator.SimulationError`; the evaluation
harness catches any such failure and re-runs that group through the
scalar backend, so vectorization is strictly an optimization, never a
semantics change.  The differential suite asserts bit-identical
four-state traces against the interpreter for every corpus design at
every lane index.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

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

# A packed four-state value: (width, val, xmask); lane i's field lives
# at bit offset i*width in both ints, canonical per lane (val & xmask
# == 0, both truncated to width).
ExprFn = Callable[[list, list, list], "tuple[int, int, int]"]
# Statement closures additionally take the NBA queue and the active
# lane mask (stride-1: bit i set = lane i executes this statement).
StmtFn = Callable[[list, list, list, "list | None", int], None]


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


def _swar_sub(L: Lanes, a: int, b: int, w: int) -> int:
    """Per-lane ``(a - b) mod 2**w`` without cross-lane borrows.

    Standard SWAR borrow isolation: force each lane's MSB high on the
    minuend and clear it on the subtrahend so no lane can borrow from
    its neighbour, then patch the MSBs back via XOR.
    """
    h = L.rep(1 << (w - 1), w)
    return ((a | h) - (b & ~h)) ^ ((a ^ b ^ h) & h)


def _v_resize(L: Lanes, w: int, v: int, x: int,
              width: int) -> tuple[int, int, int]:
    """Packed twin of ``_t_resize``: per-lane zero-extend/truncate."""
    if width == w:
        return (w, v, x)
    v2 = L.repack(v, w, width)
    x2 = L.repack(x, w, width)
    return (width, v2 & ~x2, x2)


def _v_slice(L: Lanes, w: int, v: int, x: int, msb: int,
             lsb: int) -> tuple[int, int, int]:
    """Packed twin of ``_t_slice``: per-lane [msb:lsb] with X fill for
    out-of-range high bits."""
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
    scalar semantics: X addresses drop writes and read all-X).
    """
    if ix == 0 and lm == L.all:
        u = L.uniform(iv, iw)
        if u is not None:
            return [(u, lm)], 0
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
            # The scalar backends fault here too (negative shift).
            raise SimulationError(f"bit-select below range: {lsb}")
        width = msb - lsb + 1
        _, cv, cx = _v_resize(L, *value, width)
        field = (((1 << width) - 1) << lsb) & ((1 << spec_w) - 1)
        e = L.rep(field, spec_w) & L.expand(lm, spec_w)
        pv = (L.repack(cv, width, spec_w) << lsb) & e
        px = (L.repack(cx, width, spec_w) << lsb) & e
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
    if kind == "drop":
        return False
    raise SimulationError(f"bad resolved target {kind!r}")


class VectorDesign:
    """A :class:`FlatDesign` lowered to lane-parallel closures.

    Mirrors :class:`~repro.verilog.compile.CompiledDesign` (same slot
    maps, same static comb write-sets, same structural-error timing)
    but every closure computes all ``lanes`` lanes per call and every
    statement closure is predicated on an active-lane mask.
    """

    def __init__(self, design: FlatDesign, lanes: int):
        self.design = design
        self.L = Lanes(lanes)
        self.lowered = lowered = lower_design(design)
        self.slot: dict[str, int] = lowered.slot
        self.mem_slot: dict[str, int] = lowered.mem_slot
        self.widths: list[int] = lowered.widths
        self.n_mems = lowered.n_mems

        self.assigns = [self._build_assign(target, value)
                        for target, value in lowered.assigns]
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

    def _build_assign(self, target: list, value_ir: list) -> Callable[..., bool]:
        value = self._build_expr(value_ir)
        write = self._build_write(target)

        def run(sv, sx, m, lm):
            return write(sv, sx, m, value(sv, sx, m), lm)

        return run

    # -- statements --------------------------------------------------------

    def _build_body(self, body: list) -> StmtFn:
        fns = [self._build_stmt(stmt) for stmt in body]
        if not fns:
            return lambda sv, sx, m, nba, lm: None
        if len(fns) == 1:
            return fns[0]

        def run(sv, sx, m, nba, lm):
            for fn in fns:
                fn(sv, sx, m, nba, lm)

        return run

    def _build_stmt(self, stmt: list) -> StmtFn:
        tag = stmt[0]
        if tag in ("a", "n"):
            return self._build_stmt_assign(stmt)
        if tag == "b":
            return self._build_body(stmt[1])
        if tag == "i":
            nonzero = self.L.nonzero
            cond = self._build_expr(stmt[1])
            then_body = self._build_body(stmt[2])
            else_body = self._build_body(stmt[3])

            def run(sv, sx, m, nba, lm):
                cw, cv, cx = cond(sv, sx, m)
                t = nonzero(cv, cw) & lm
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
        if tag == "c":
            return self._build_stmt_case(stmt)
        if tag == "f":
            return self._build_stmt_for(stmt)
        raise SimulationError(f"unknown statement tag {tag!r}")

    def _build_stmt_assign(self, stmt: list) -> StmtFn:
        value = self._build_expr(stmt[2])
        write = self._build_write(stmt[1])
        if stmt[0] == "a":
            def run(sv, sx, m, nba, lm):
                write(sv, sx, m, value(sv, sx, m), lm)

            return run
        resolve = self._build_resolve(stmt[1])

        def run(sv, sx, m, nba, lm):
            # Initial blocks execute with nba=None: commit immediately.
            if nba is None:
                write(sv, sx, m, value(sv, sx, m), lm)
            else:
                # Addressing, value *and* lane mask captured at
                # schedule time, like the scalar NBA queue.
                nba.append((resolve(sv, sx, m, lm), value(sv, sx, m)))

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

        def run(sv, sx, m, nba, lm):
            subj = subject(sv, sx, m)
            remaining = lm
            for patterns, body in arms:
                matched = 0
                for pattern in patterns:
                    matched |= self._case_match_lanes(
                        kind, subj, pattern(sv, sx, m)) & remaining
                if matched:
                    body(sv, sx, m, nba, matched)
                    remaining &= ~matched
                    if not remaining:
                        return
            if default_body is not None and remaining:
                default_body(sv, sx, m, nba, remaining)

        return run

    def _case_match_lanes(self, kind: str, subject: tuple,
                          pattern: tuple) -> int:
        """Stride-1 mask of lanes where the pattern matches."""
        L = self.L
        w = subject[0] if subject[0] >= pattern[0] else pattern[0]
        _, s_val, s_x = _v_resize(L, *subject, w)
        _, p_val, p_x = _v_resize(L, *pattern, w)
        if kind == "case":
            diff = (s_val ^ p_val) | (s_x ^ p_x)
            return L.all & ~L.nonzero(diff, w)
        care = ~p_x & L.full(w)  # casez: pattern X/Z/? bits wildcard
        if kind == "casex":
            care &= ~s_x
        diff = ((s_val ^ p_val) | s_x) & care
        return L.all & ~L.nonzero(diff, w)

    def _build_stmt_for(self, stmt: list) -> StmtFn:
        L = self.L
        init = self._build_stmt(stmt[1])
        cond = self._build_expr(stmt[2])
        step = self._build_stmt(stmt[3])
        body = self._build_body(stmt[4])

        def run(sv, sx, m, nba, lm):
            init(sv, sx, m, nba, lm)
            active = lm
            for _ in range(_MAX_LOOP_ITERS):
                cw, cv, cx = cond(sv, sx, m)
                # A lane leaves for good when its condition goes false
                # (X counts false, matching the scalar backends).
                active &= L.nonzero(cv, cw)
                if not active:
                    return
                body(sv, sx, m, nba, active)
                step(sv, sx, m, nba, active)
            raise SimulationError("for-loop exceeded iteration limit")

        return run

    # -- lvalues -----------------------------------------------------------

    def _build_write(self, target: list) -> Callable[..., bool]:
        """Compile an lvalue node to ``write(sv, sx, m, value, lm) -> changed``."""
        L = self.L
        if target[0] == "W":
            _, slot, width = target
            alln = L.all
            repack = L.repack
            expand = L.expand

            def write(sv, sx, m, value, lm):
                w, v, x = value
                if w != width:
                    v = repack(v, w, width)
                    x = repack(x, w, width)
                    v &= ~x
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
        resolve = self._build_resolve(target)

        def write(sv, sx, m, value, lm):
            changed = False
            for resolved, sub in resolve(sv, sx, m, lm):
                if _apply_group(L, sv, sx, m, resolved, value, sub):
                    changed = True
            return changed

        return write

    def _build_resolve(self, target: list) -> Callable[..., list]:
        """Compile an lvalue node to a runtime address resolver returning
        ``[(resolved, lane_mask), ...]`` groups.

        Lane-divergent addressing splits into one group per distinct
        address; lanes with X addressing are dropped (the scalar
        semantics, now per lane).
        """
        L = self.L
        tag = target[0]
        if tag == "W":
            resolved = ("whole", target[1], target[2])

            def resolve(sv, sx, m, lm):
                return [(resolved, lm)] if lm else []

            return resolve
        if tag == "M":
            _, mem_slot, width, mem_lsb, index_ir = target
            index = self._build_expr(index_ir)

            def resolve(sv, sx, m, lm):
                iw, iv, ix = index(sv, sx, m)
                groups, _ = _lane_groups(L, iw, iv, ix, lm)
                return [(("word", mem_slot, val - mem_lsb, width), sub)
                        for val, sub in groups]

            return resolve
        if tag == "X":
            _, slot, spec_width, lsb, index_ir = target
            index = self._build_expr(index_ir)

            def resolve(sv, sx, m, lm):
                iw, iv, ix = index(sv, sx, m)
                groups, _ = _lane_groups(L, iw, iv, ix, lm)
                out = []
                for val, sub in groups:
                    bit = val - lsb
                    out.append((("bits", slot, spec_width, bit, bit), sub))
                return out

            return resolve
        if tag == "P":
            _, slot, spec_width, spec_lsb, msb_ir, lsb_ir = target
            msb = self._build_expr(msb_ir)
            lsb = self._build_expr(lsb_ir)

            def resolve(sv, sx, m, lm):
                mw, mv, mx = msb(sv, sx, m)
                lw, lv, lx = lsb(sv, sx, m)
                hi_groups, hi_x = _lane_groups(L, mw, mv, mx, lm)
                lo_groups, lo_x = _lane_groups(L, lw, lv, lx,
                                               lm & ~hi_x)
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
        if tag == "CC":
            parts = [self._build_resolve(p) for p in target[1]]
            widths = [self._build_target_width(w) for w in target[2]]

            def resolve(sv, sx, m, lm):
                return [(("concat",
                          [p(sv, sx, m, lm) for p in parts],
                          [w(sv, sx, m) for w in widths]), lm)]

            return resolve
        raise SimulationError(f"unknown lvalue tag {tag!r}")

    def _build_target_width(self, wd: list) -> Callable[..., int]:
        L = self.L
        tag = wd[0]
        if tag == "wk":
            width = wd[1]
            return lambda sv, sx, m: width
        if tag == "wr":
            msb = self._build_expr(wd[1])
            lsb = self._build_expr(wd[2])

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
        if tag == "ws":
            widths = [self._build_target_width(w) for w in wd[1]]
            return lambda sv, sx, m: sum(w(sv, sx, m) for w in widths)
        raise SimulationError(f"unknown width tag {tag!r}")

    # -- expressions -------------------------------------------------------

    def _expr(self, expr: Expr, sensitive: bool = False) -> ExprFn:
        """Compile an ad-hoc AST expression (the testbench ``eval`` path)."""
        return self._build_expr(lower_expr(self.design, expr), sensitive)

    def _build_expr(self, ir: list, sensitive: bool = False) -> ExprFn:
        """Lower one IR node to a packed closure.

        ``sensitive`` marks a *width-sensitive* context: the parent
        operator's result depends on the operand's exact bit width, not
        just its numeric value (``~``, reductions, subtraction, left
        shifts, concat/replicate parts, select targets).  A ternary
        whose branches have different widths and whose lanes pick
        different branches can only be packed by zero-extending the
        narrow branch to the max width; that is bit-exact in
        width-insensitive contexts (assign right-hand sides, compares,
        value arithmetic -- the scalar backends resize there anyway)
        and raises in sensitive ones so the caller can fall back to a
        scalar backend.  The flag is a property of the walk, not the
        node, so it is re-derived here rather than stored in the IR.
        """
        L = self.L
        tag = ir[0]
        if tag == "K":
            _, kw, kv, kx = ir
            const = (kw, L.rep(kv, kw), L.rep(kx, kw))
            return lambda sv, sx, m: const
        if tag == "S":
            _, slot, width = ir
            return lambda sv, sx, m: (width, sv[slot], sx[slot])
        if tag == "U":
            return self._build_unary(ir, sensitive)
        if tag == "B":
            return self._build_binary(ir, sensitive)
        if tag == "T":
            return self._build_ternary(ir, sensitive)
        if tag in ("IB", "IM", "IE"):
            return self._build_index(ir)
        if tag == "PS":
            return self._build_part_select(ir)
        if tag == "C":
            parts = [self._build_expr(p, True) for p in ir[1]]

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
        if tag == "R":
            return self._build_replicate(ir)
        if tag == "L2":
            return self._build_clog2(ir)
        raise SimulationError(f"unknown expression tag {tag!r}")

    def _build_ternary(self, ir: list, sensitive: bool) -> ExprFn:
        L = self.L
        cond = self._build_expr(ir[1])
        then = self._build_expr(ir[2], sensitive)
        otherwise = self._build_expr(ir[3], sensitive)
        nonzero = L.nonzero
        alln = L.all

        def run(sv, sx, m):
            cw, cv, cx = cond(sv, sx, m)
            t = nonzero(cv, cw)
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
                # Scalar semantics give a known-condition lane the
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

    def _build_index(self, ir: list) -> ExprFn:
        L = self.L
        tag = ir[0]
        if tag == "IM":
            _, mem_slot, width, mem_lsb, index_ir = ir
            index = self._build_expr(index_ir)

            def run(sv, sx, m):
                iw, iv, ix = index(sv, sx, m)
                mem = m[mem_slot]
                groups, xl = _lane_groups(L, iw, iv, ix, L.all)
                if not xl and len(groups) == 1:
                    word = mem.get(groups[0][0] - mem_lsb)
                    if word is None:
                        return (width, 0, L.full(width))
                    return (width, word[0], word[1])
                # Divergent addresses: gather one word per group.
                # Unwritten lanes of a stored word are all-X, so a
                # plain masked OR is an exact per-lane read.
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
        if tag == "IB":
            _, slot, width, lsb, index_ir = ir
            index = self._build_expr(index_ir)

            def run(sv, sx, m):
                iw, iv, ix = index(sv, sx, m)
                groups, xl = _lane_groups(L, iw, iv, ix, L.all)
                v, x = sv[slot], sx[slot]
                if not xl and len(groups) == 1:
                    i = groups[0][0] - lsb
                    if i < 0 or i >= width:
                        return (1, 0, L.all)
                    return (1, L.pick(v, width, i), L.pick(x, width, i))
                out_v = 0
                out_x = xl
                for val, sub in groups:
                    i = val - lsb
                    if i < 0 or i >= width:
                        out_x |= sub
                    else:
                        out_v |= L.pick(v, width, i) & sub
                        out_x |= L.pick(x, width, i) & sub
                return (1, out_v, out_x)

            return run
        target = self._build_expr(ir[1], True)
        index = self._build_expr(ir[2])

        def run(sv, sx, m):
            tw, tv, tx = target(sv, sx, m)
            iw, iv, ix = index(sv, sx, m)
            groups, xl = _lane_groups(L, iw, iv, ix, L.all)
            out_v = 0
            out_x = xl
            for val, sub in groups:
                if val < 0 or val >= tw:
                    out_x |= sub
                else:
                    out_v |= L.pick(tv, tw, val) & sub
                    out_x |= L.pick(tx, tw, val) & sub
            return (1, out_v, out_x)

        return run

    def _build_part_select(self, ir: list) -> ExprFn:
        L = self.L
        _, target_ir, adjust, msb_ir, lsb_ir = ir
        target = self._build_expr(target_ir, True)
        msb = self._build_expr(msb_ir)
        lsb = self._build_expr(lsb_ir)

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

    def _build_replicate(self, ir: list) -> ExprFn:
        L = self.L
        count = self._build_expr(ir[1])
        value = self._build_expr(ir[2], True)

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

    def _bool3_lanes(self, value: tuple) -> tuple[int, int]:
        """Per-lane logical truth: (true_lanes, x_lanes); the rest are
        known-false.  A lane with any known 1 bit is true even when
        other bits are X, matching the scalar ``_bool3``."""
        L = self.L
        w, v, x = value
        t = L.nonzero(v, w)
        return t, L.nonzero(x, w) & ~t

    def _build_unary(self, ir: list, sensitive: bool) -> ExprFn:
        L = self.L
        op = ir[1]
        # ~, negate and the reductions read the operand's exact width;
        # ! only tests nonzero; unary + is the identity.
        if op == "+":
            operand_sensitive = sensitive
        else:
            operand_sensitive = op != "!"
        value = self._build_expr(ir[2], operand_sensitive)
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
                rv = _swar_sub(L, 0, v, w) & L.full(w)
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

    def _build_binary(self, ir: list, sensitive: bool) -> ExprFn:
        L = self.L
        op = ir[1]
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
        left = self._build_expr(ir[2], left_sensitive)
        right = self._build_expr(ir[3], right_sensitive)
        if op in ("&&", "||"):
            want_or = op == "||"

            def run(sv, sx, m):
                ta, xa = self._bool3_lanes(left(sv, sx, m))
                tb, xb = self._bool3_lanes(right(sv, sx, m))
                if want_or:
                    one = ta | tb  # X | 1 == 1; X | 0 == X
                    xm = (xa | xb) & ~one
                    return (1, one, xm)
                fa = L.all & ~ta & ~xa  # X & 0 == 0; X & 1 == X
                fb = L.all & ~tb & ~xb
                zero = fa | fb
                xm = (xa | xb) & ~zero
                return (1, L.all & ~zero & ~xm, xm)

            return run
        repack = L.repack
        nonzero = L.nonzero
        expand = L.expand
        if op in ("&", "|", "^", "~^", "^~"):
            kind = "^" if op in ("^", "~^", "^~") else op
            invert = op in ("~^", "^~")
            fullt = L._full

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw if aw >= bw else bw
                if aw != w:
                    av = repack(av, aw, w)
                    ax = repack(ax, aw, w)
                elif bw != w:
                    bv = repack(bv, bw, w)
                    bx = repack(bx, bw, w)
                if kind == "&":
                    known_zero = (~av & ~ax) | (~bv & ~bx)
                    x = (ax | bx) & ~known_zero
                    return (w, av & bv, x)
                if kind == "|":
                    known_one = (av & ~ax) | (bv & ~bx)
                    x = (ax | bx) & ~known_one
                    return (w, (av | bv) & ~x, x)
                x = ax | bx
                v = (av ^ bv) & ~x
                if invert:
                    v = ~v & fullt[w] & ~x
                return (w, v, x)

            return run
        if op in ("+", "-"):
            add = op == "+"
            onest = L._ones

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
                if add:
                    r = av + bv
                else:
                    h = (1 << (w - 1)) * onest[w]
                    r = ((av | h) - (bv & ~h)) ^ ((av ^ bv ^ h) & h)
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
                    # Scalar width is aw for X lanes, max(32, aw)
                    # otherwise; mixed lanes cannot pack.
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
            fullt = L._full
            alln = L.all

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw if aw >= bw else bw
                if aw != w:
                    av = repack(av, aw, w)
                    ax = repack(ax, aw, w)
                elif bw != w:
                    bv = repack(bv, bw, w)
                    bx = repack(bx, bw, w)
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
            alln = L.all

            def run(sv, sx, m):
                aw, av, ax = left(sv, sx, m)
                bw, bv, bx = right(sv, sx, m)
                w = aw if aw >= bw else bw
                if aw != w:
                    av = repack(av, aw, w)
                    ax = repack(ax, aw, w)
                elif bw != w:
                    bv = repack(bv, bw, w)
                    bx = repack(bx, bw, w)
                neq = nonzero((av ^ bv) | (ax ^ bx), w)
                if negate:
                    return (1, neq, 0)
                return (1, alln & ~neq, 0)

            return run
        if op in ("<", "<=", ">", ">="):
            compare = {"<": operator.lt, "<=": operator.le,
                       ">": operator.gt, ">=": operator.ge}[op]

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

    def _build_clog2(self, ir: list) -> ExprFn:
        L = self.L
        operand = self._build_expr(ir[1])

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


def vector_design(design: FlatDesign, lanes: int) -> VectorDesign:
    """Lower ``design`` for ``lanes`` lanes, caching on the design.

    Shares the design's unified ``(backend, lanes)``-keyed cache with
    the other backends (see :mod:`repro.verilog.lower`).
    """
    cache = design._lowered_cache
    vd = cache.get(("vector", lanes))
    if vd is None:
        vd = VectorDesign(design, lanes)
        cache[("vector", lanes)] = vd
    return vd


class VectorSimulator(Simulator):
    """A :class:`Simulator` advancing ``lanes`` independent stimulus
    sequences through one design at once.

    The scalar API (``poke``/``poke_many``/``clock_pulse``/``settle``)
    broadcasts to every active lane, and ``state``/``memories``/
    ``peek()`` default to lane 0, so a 1-lane instance is a drop-in
    scalar backend.  Lane-aware extensions: ``poke_many_lanes`` drives
    per-lane values, ``peek(name, lane)``/``state_lane``/
    ``memories_lane``/``read_memory(..., lane=...)`` observe one lane,
    and ``retire_lane`` freezes a finished lane so the remaining lanes
    keep stepping without it.
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
        if isinstance(value, int):
            v = L.rep(value & ((1 << w) - 1), w)
            x = 0
        else:
            resized = value.resize(w)
            v = L.rep(resized.val, w)
            x = L.rep(resized.xmask, w)
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
        self._check_lane(lane)
        L = self._L
        w = self.vd.widths[slot]
        return FourState(w, L.extract(self._sv[slot], w, lane),
                         L.extract(self._sx[slot], w, lane))

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
            cached = (expr, self.vd._expr(expr))
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
        for groups, value in nba:
            for resolved, sub in groups:
                _apply_group(L, sv, sx, m, resolved, value, sub)

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
        """
        L = self._L
        sv, sx = self._sv, self._sx
        prev_v, prev_x = self._edge_v, self._edge_x
        pos = self.vd.edge_pos
        widths = self.vd.widths
        active = self._active
        if not active:
            return None
        for i, slot in enumerate(self.vd.edge_slots):
            if sv[slot] != prev_v[i] or sx[slot] != prev_x[i]:
                break
        else:
            return None  # no edge signal moved since the last snapshot
        triggered = []
        for sens, body in self.vd.seq:
            trig = 0
            for edge, slot in sens:
                i = pos[slot]
                w = widths[slot]
                pl = L.pick(prev_v[i], w, 0)
                nl = L.pick(sv[slot], w, 0)
                if edge == _POSEDGE:
                    fired = nl & ~pl
                elif edge == _NEGEDGE:
                    plx = pl | L.pick(prev_x[i], w, 0)
                    nlx = nl | L.pick(sx[slot], w, 0)
                    fired = plx & ~nlx
                else:
                    fired = ((pl ^ nl)
                             | (L.pick(prev_x[i], w, 0)
                                ^ L.pick(sx[slot], w, 0)))
                trig |= fired
            trig &= active
            if trig:
                triggered.append((body, trig))
        return triggered
