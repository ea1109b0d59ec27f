"""Recursive-descent parser for the synthesizable Verilog subset.

Accepts both ANSI (`module m(input wire a, ...)`) and non-ANSI
(`module m(a, b); input a; ...`) port styles, parameters, localparams,
wire/reg/integer declarations (with memories), continuous assigns,
always/initial blocks, if/case/for statements, module instantiation with
named or positional connections, and the full expression grammar with
Verilog operator precedence.
"""

from __future__ import annotations

from .ast_nodes import (
    AlwaysBlock,
    Assign,
    Binary,
    Block,
    Case,
    CaseItem,
    Concat,
    ContinuousAssign,
    EdgeKind,
    Expr,
    For,
    Identifier,
    If,
    Index,
    InitialBlock,
    Instance,
    Module,
    NetDecl,
    Number,
    ParamDecl,
    PartSelect,
    Port,
    PortConnection,
    PortDirection,
    Range,
    Replicate,
    SensItem,
    SourceFile,
    Stmt,
    SystemCall,
    Ternary,
    Unary,
)
from .lexer import tokenize
from .tokens import Token, TokenKind


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} (got {token} )")
        self.token = token


# Binary operator precedence, higher binds tighter (Verilog-2001 table).
_BINARY_PRECEDENCE: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "~^": 4, "^~": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_UNARY_OPS = frozenset(["~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"])

# The parser's hot paths compare a token's text first, then its kind
# against these.
_KEYWORD = TokenKind.KEYWORD
_IDENT = TokenKind.IDENT
_SYSTEM_IDENT = TokenKind.SYSTEM_IDENT
_NUMBER = TokenKind.NUMBER
_OPERATOR = TokenKind.OPERATOR
_PUNCT = TokenKind.PUNCT


#: Widest literal accepted, in bits.  IEEE 1364-2005 lets a tool cap
#: vector widths, at no less than 2**16 bits.
MAX_LITERAL_WIDTH = 1 << 16

#: Longest decimal digit string decoded.  Checked here rather than left
#: to ``int()``, whose own limit is an interpreter setting.
MAX_DECIMAL_DIGITS = 4300

#: Deepest nesting of parentheses, braces, brackets, unary operators,
#: ternary selects and compound statements.  Past it the parser raises
#: :class:`ParseError` rather than exhausting the interpreter's stack.
MAX_NESTING = 64

_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}
_BASE_NAMES = {"b": "binary", "o": "octal", "d": "decimal",
               "h": "hexadecimal"}
_UNKNOWN = "xXzZ?"
_UNKNOWN_SET = frozenset(_UNKNOWN)
_KNOWN = {"b": "01", "o": "01234567", "d": "0123456789",
          "h": "0123456789abcdefABCDEF"}
#: the digits each base accepts (a decimal's single x/z digit aside)
_ALLOWED = {base: frozenset(known if base == "d" else known + _UNKNOWN)
            for base, known in _KNOWN.items()}
#: an unknown digit reads 0 in a literal's value and all ones in its
#: unknown mask, where a known digit reads 0
_VALUE_OF = str.maketrans(_UNKNOWN, "0" * len(_UNKNOWN))
_MASK_OF = {base: str.maketrans(_KNOWN[base] + _UNKNOWN,
                                "0" * len(_KNOWN[base])
                                + top * len(_UNKNOWN))
            for base, top in (("b", "1"), ("o", "7"), ("h", "f"))}


def _parse_number_token(tok: Token) -> Number:
    """Decode a numeric literal token into a :class:`Number` node."""
    text = tok.text
    for tick in "'’‘":
        if tick in text:
            break
    else:
        digits = text.replace("_", "")
        if len(digits) > MAX_DECIMAL_DIGITS:
            raise ParseError(f"decimal literal longer than "
                             f"{MAX_DECIMAL_DIGITS} digits", tok)
        return Number(value=int(digits), width=None, original=text)

    size_part, _, rest = text.partition(tick)
    signed = rest[0] in "sS"
    if signed:
        rest = rest[1:]
    base_ch = rest[0].lower()
    digits = rest[1:].replace("_", "")
    width = None
    if size_part:
        size = size_part.replace("_", "").lstrip("0")
        if not size:
            raise ParseError("literal width must be at least 1", tok)
        if len(size) > 5 or int(size) > MAX_LITERAL_WIDTH:
            raise ParseError(f"literal wider than {MAX_LITERAL_WIDTH} "
                             "bits", tok)
        width = int(size)

    xmask = 0
    if base_ch == "d" and len(digits) == 1 and digits in _UNKNOWN:
        value, xmask = 0, -1  # IEEE 1364 A.8.7: every bit unknown
    elif not _ALLOWED[base_ch].issuperset(digits):
        bad = next(ch for ch in digits if ch not in _ALLOWED[base_ch])
        raise ParseError(f"invalid digit {bad!r} in "
                         f"{_BASE_NAMES[base_ch]} literal", tok)
    elif base_ch == "d":
        if len(digits) > MAX_DECIMAL_DIGITS:
            raise ParseError(f"decimal literal longer than "
                             f"{MAX_DECIMAL_DIGITS} digits", tok)
        value = int(digits or "0")
    else:
        radix = _RADIX[base_ch]
        value = int(digits.translate(_VALUE_OF) or "0", radix)
        if not _UNKNOWN_SET.isdisjoint(digits):
            xmask = int(digits.translate(_MASK_OF[base_ch]), radix)
    if width is None:
        width = max(32, value.bit_length())
        if width > MAX_LITERAL_WIDTH:
            raise ParseError(f"literal wider than {MAX_LITERAL_WIDTH} "
                             "bits", tok)
    mask = (1 << width) - 1
    return Number(
        value=value & mask & ~xmask,
        width=width,
        xmask=xmask & mask,
        base=base_ch,
        signed=signed,
        original=text,
    )


class Parser:
    """Token-stream parser producing a :class:`SourceFile`.

    The token list ends in EOF, and the parser never steps past it, so
    the current token is always ``self.tokens[self.pos]``.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        #: open nesting levels; see :data:`MAX_NESTING`
        self.depth = 0

    # -- stream helpers ----------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._peek())

    def _nest(self) -> None:
        """Open one nesting level (the caller closes it on success; a
        failed parse discards the parser)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels")

    def _expect_kw(self, word: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != word or tok.kind is not _KEYWORD:
            raise ParseError(f"expected keyword {word!r}", tok)
        self.pos += 1
        return tok

    def _expect_punct(self, ch: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != ch or tok.kind is not _PUNCT:
            raise ParseError(f"expected {ch!r}", tok)
        self.pos += 1
        return tok

    def _expect_op(self, op: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != op or tok.kind is not _OPERATOR:
            raise ParseError(f"expected operator {op!r}", tok)
        self.pos += 1
        return tok

    def _expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok.kind is not _IDENT:
            raise ParseError("expected identifier", tok)
        self.pos += 1
        return tok.text

    def _accept_punct(self, ch: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.text == ch and tok.kind is _PUNCT:
            self.pos += 1
            return True
        return False

    def _accept_kw(self, word: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.text == word and tok.kind is _KEYWORD:
            self.pos += 1
            return True
        return False

    def _accept_op(self, op: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.text == op and tok.kind is _OPERATOR:
            self.pos += 1
            return True
        return False

    def _try_parse_range(self) -> Range | None:
        """Parse ``[msb:lsb]`` if present, else return None."""
        if not self._peek().is_punct("["):
            return None
        self._next()
        msb = self.parse_expr()
        self._expect_punct(":")
        lsb = self.parse_expr()
        self._expect_punct("]")
        return Range(msb=msb, lsb=lsb)

    # -- top level -----------------------------------------------------------

    def parse_source(self) -> SourceFile:
        modules = []
        while not self._peek().kind is TokenKind.EOF:
            modules.append(self.parse_module())
        if not modules:
            raise self._error("empty source: expected at least one module")
        return SourceFile(modules=modules)

    def parse_module(self) -> Module:
        self._expect_kw("module")
        name = self._expect_ident()
        module = Module(name=name, ports=[])

        if self._accept_punct("#"):
            self._parse_param_port_list(module)

        declared_ports: dict[str, Port] = {}
        if self._accept_punct("("):
            self._parse_port_list(module, declared_ports)
        self._expect_punct(";")

        while not self._peek().is_kw("endmodule"):
            self._parse_module_item(module, declared_ports)
        self._expect_kw("endmodule")
        return module

    def _parse_param_port_list(self, module: Module) -> None:
        """``#(parameter A = 1, parameter B = 2)``"""
        self._expect_punct("(")
        while True:
            self._accept_kw("parameter")
            rng = self._try_parse_range()
            pname = self._expect_ident()
            self._expect_op("=")
            value = self.parse_expr()
            module.params.append(ParamDecl(name=pname, value=value, range=rng))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    def _parse_port_list(self, module: Module, declared: dict[str, Port]) -> None:
        if self._accept_punct(")"):
            return
        # ANSI style begins with a direction keyword.
        if self._peek().text in ("input", "output", "inout"):
            direction = None
            is_reg = False
            signed = False
            rng: Range | None = None
            while True:
                tok = self._peek()
                if tok.text in ("input", "output", "inout"):
                    direction = PortDirection(self._next().text)
                    is_reg = False
                    signed = False
                    rng = None
                    if self._accept_kw("wire"):
                        pass
                    elif self._accept_kw("reg"):
                        is_reg = True
                    if self._accept_kw("signed"):
                        signed = True
                    rng = self._try_parse_range()
                pname = self._expect_ident()
                if direction is None:
                    raise self._error("port direction missing in ANSI port list")
                port = Port(name=pname, direction=direction, range=rng,
                            is_reg=is_reg, signed=signed)
                module.ports.append(port)
                declared[pname] = port
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        else:
            # Non-ANSI: bare identifier list; directions come later.
            while True:
                pname = self._expect_ident()
                port = Port(name=pname, direction=PortDirection.INPUT)
                module.ports.append(port)
                declared[pname] = port
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")

    # -- module items ------------------------------------------------------

    def _parse_module_item(self, module: Module, declared: dict[str, Port]) -> None:
        tok = self._peek()

        if tok.text in ("input", "output", "inout"):
            self._parse_port_declaration(module, declared)
        elif tok.is_kw("parameter") or tok.is_kw("localparam"):
            self._parse_param_declaration(module)
        elif tok.text in ("wire", "reg", "integer", "genvar"):
            self._parse_net_declaration(module)
        elif tok.is_kw("assign"):
            self._parse_continuous_assign(module)
        elif tok.is_kw("always"):
            module.always_blocks.append(self._parse_always())
        elif tok.is_kw("initial"):
            self._next()
            module.initial_blocks.append(InitialBlock(body=self._parse_stmt_or_block()))
        elif tok.kind is TokenKind.IDENT:
            module.instances.append(self._parse_instance())
        else:
            raise self._error("unexpected token in module body")

    def _parse_port_declaration(self, module: Module, declared: dict[str, Port]) -> None:
        direction = PortDirection(self._next().text)
        is_reg = False
        signed = False
        if self._accept_kw("wire"):
            pass
        elif self._accept_kw("reg"):
            is_reg = True
        if self._accept_kw("signed"):
            signed = True
        rng = self._try_parse_range()
        while True:
            pname = self._expect_ident()
            if pname in declared:
                port = declared[pname]
                port.direction = direction
                port.range = rng
                port.is_reg = is_reg
                port.signed = signed
            else:
                port = Port(name=pname, direction=direction, range=rng,
                            is_reg=is_reg, signed=signed)
                module.ports.append(port)
                declared[pname] = port
            if not self._accept_punct(","):
                break
        self._expect_punct(";")

    def _parse_param_declaration(self, module: Module) -> None:
        local = self._next().text == "localparam"
        rng = self._try_parse_range()
        while True:
            pname = self._expect_ident()
            self._expect_op("=")
            value = self.parse_expr()
            module.params.append(ParamDecl(name=pname, value=value,
                                           local=local, range=rng))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")

    def _parse_net_declaration(self, module: Module) -> None:
        kind = self._next().text
        if kind == "genvar":
            kind = "integer"
        signed = self._accept_kw("signed")
        rng = self._try_parse_range()
        while True:
            name = self._expect_ident()
            memory_range = self._try_parse_range()
            init = None
            if self._accept_op("="):
                init = self.parse_expr()
            module.nets.append(NetDecl(name=name, kind=kind, range=rng,
                                       memory_range=memory_range,
                                       signed=signed, init=init))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")

    def _parse_continuous_assign(self, module: Module) -> None:
        self._expect_kw("assign")
        while True:
            target = self._parse_lvalue()
            self._expect_op("=")
            value = self.parse_expr()
            module.assigns.append(ContinuousAssign(target=target, value=value))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")

    def _parse_always(self) -> AlwaysBlock:
        self._expect_kw("always")
        self._expect_punct("@")
        star = False
        sensitivity: list[SensItem] = []
        if self._accept_op("*"):
            star = True
        else:
            self._expect_punct("(")
            if self._accept_op("*"):
                star = True
            else:
                while True:
                    edge = EdgeKind.LEVEL
                    if self._accept_kw("posedge"):
                        edge = EdgeKind.POSEDGE
                    elif self._accept_kw("negedge"):
                        edge = EdgeKind.NEGEDGE
                    signal = self._expect_ident()
                    sensitivity.append(SensItem(edge=edge, signal=signal))
                    if self._accept_punct(","):
                        continue
                    if self._accept_kw("or"):
                        continue
                    break
            self._expect_punct(")")
        body = self._parse_stmt_or_block()
        return AlwaysBlock(sensitivity=sensitivity, body=body, star=star)

    def _parse_instance(self) -> Instance:
        module_name = self._expect_ident()
        param_overrides: list[PortConnection] = []
        if self._accept_punct("#"):
            self._expect_punct("(")
            param_overrides = self._parse_connection_list()
        instance_name = self._expect_ident()
        self._expect_punct("(")
        connections = self._parse_connection_list()
        self._expect_punct(";")
        return Instance(module_name=module_name, instance_name=instance_name,
                        connections=connections, param_overrides=param_overrides)

    def _parse_connection_list(self) -> list[PortConnection]:
        """Parse ``.name(expr), ...`` or positional ``expr, ...`` up to ``)``."""
        connections: list[PortConnection] = []
        if self._accept_punct(")"):
            return connections
        while True:
            if self._accept_punct("."):
                name = self._expect_ident()
                self._expect_punct("(")
                expr = None
                if not self._peek().is_punct(")"):
                    expr = self.parse_expr()
                self._expect_punct(")")
                connections.append(PortConnection(name=name, expr=expr))
            else:
                connections.append(PortConnection(name=None, expr=self.parse_expr()))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return connections

    # -- statements -----------------------------------------------------------

    def _parse_stmt_or_block(self) -> list[Stmt]:
        if self._peek().is_kw("begin"):
            block = self._parse_block()
            return block.body
        return [self._parse_stmt()]

    def _parse_block(self) -> Block:
        self._expect_kw("begin")
        name = None
        if self._accept_punct(":"):
            name = self._expect_ident()
        body: list[Stmt] = []
        while not self._peek().is_kw("end"):
            body.append(self._parse_stmt())
        self._expect_kw("end")
        return Block(body=body, name=name)

    def _parse_stmt(self) -> Stmt:
        tok = self._peek()
        if tok.kind in (TokenKind.IDENT, TokenKind.SYSTEM_IDENT) or tok.is_punct("{"):
            return self._parse_assignment_stmt()
        self._nest()
        if tok.is_kw("begin"):
            stmt: Stmt = self._parse_block()
        elif tok.is_kw("if"):
            stmt = self._parse_if()
        elif tok.text in ("case", "casez", "casex"):
            stmt = self._parse_case()
        elif tok.is_kw("for"):
            stmt = self._parse_for()
        else:
            raise self._error("unexpected token in statement position")
        self.depth -= 1
        return stmt

    def _parse_if(self) -> If:
        self._expect_kw("if")
        self._expect_punct("(")
        cond = self.parse_expr()
        self._expect_punct(")")
        then_body = self._parse_stmt_or_block()
        else_body: list[Stmt] = []
        if self._accept_kw("else"):
            else_body = self._parse_stmt_or_block()
        return If(cond=cond, then_body=then_body, else_body=else_body)

    def _parse_case(self) -> Case:
        kind = self._next().text
        self._expect_punct("(")
        subject = self.parse_expr()
        self._expect_punct(")")
        items: list[CaseItem] = []
        while not self._peek().is_kw("endcase"):
            if self._accept_kw("default"):
                self._accept_punct(":")
                body = self._parse_stmt_or_block()
                items.append(CaseItem(patterns=[], body=body))
                continue
            patterns = [self.parse_expr()]
            while self._accept_punct(","):
                patterns.append(self.parse_expr())
            self._expect_punct(":")
            body = self._parse_stmt_or_block()
            items.append(CaseItem(patterns=patterns, body=body))
        self._expect_kw("endcase")
        return Case(subject=subject, items=items, kind=kind)

    def _parse_for(self) -> For:
        self._expect_kw("for")
        self._expect_punct("(")
        init = self._parse_plain_assign()
        self._expect_punct(";")
        cond = self.parse_expr()
        self._expect_punct(";")
        step = self._parse_plain_assign()
        self._expect_punct(")")
        body = self._parse_stmt_or_block()
        return For(init=init, cond=cond, step=step, body=body)

    def _parse_plain_assign(self) -> Assign:
        target = self._parse_lvalue()
        self._expect_op("=")
        value = self.parse_expr()
        return Assign(target=target, value=value, blocking=True)

    def _parse_assignment_stmt(self) -> Assign:
        target = self._parse_lvalue()
        if self._accept_op("<="):
            blocking = False
        elif self._accept_op("="):
            blocking = True
        else:
            raise self._error("expected '=' or '<=' in assignment")
        value = self.parse_expr()
        self._expect_punct(";")
        return Assign(target=target, value=value, blocking=blocking)

    def _parse_lvalue(self) -> Expr:
        if self._peek().is_punct("{"):
            return self._parse_concat()
        return self._parse_selects(Identifier(self._expect_ident()))

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(0)
        if self._accept_op("?"):
            self._nest()
            then = self._parse_ternary()
            self._expect_punct(":")
            otherwise = self._parse_ternary()
            self.depth -= 1
            return Ternary(cond=cond, then=then, otherwise=otherwise)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            prec = _BINARY_PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec or tok.kind is not _OPERATOR:
                return left
            self.pos += 1
            right = self._parse_binary(prec + 1)
            left = Binary(op=tok.text, left=left, right=right)

    def _parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.text in _UNARY_OPS and tok.kind is _OPERATOR:
            self._nest()
            self.pos += 1
            operand = self._parse_unary()
            self.depth -= 1
            return Unary(op=tok.text, operand=operand)
        return self._parse_selects(self._parse_primary())

    def _parse_selects(self, expr: Expr) -> Expr:
        """Any ``[index]`` / ``[msb:lsb]`` selects following ``expr``."""
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.text != "[" or tok.kind is not _PUNCT:
                return expr
            self._nest()
            self.pos += 1
            first = self.parse_expr()
            if self._accept_punct(":"):
                second = self.parse_expr()
                self._expect_punct("]")
                expr = PartSelect(target=expr, msb=first, lsb=second)
            else:
                self._expect_punct("]")
                expr = Index(target=expr, index=first)
            self.depth -= 1

    def _parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _IDENT:
            self.pos += 1
            return Identifier(tok.text)
        if kind is _NUMBER:
            self.pos += 1
            return _parse_number_token(tok)
        if kind is _SYSTEM_IDENT:
            self.pos += 1
            args: list[Expr] = []
            if self._peek().is_punct("("):
                self._nest()
                self.pos += 1
                if not self._peek().is_punct(")"):
                    args.append(self.parse_expr())
                    while self._accept_punct(","):
                        args.append(self.parse_expr())
                self._expect_punct(")")
                self.depth -= 1
            return SystemCall(name=tok.text, args=args)
        if kind is _PUNCT:
            if tok.text == "(":
                self._nest()
                self.pos += 1
                expr = self.parse_expr()
                self._expect_punct(")")
                self.depth -= 1
                return expr
            if tok.text == "{":
                return self._parse_concat()
        raise self._error("expected expression")

    def _parse_concat(self) -> Expr:
        self._nest()
        self._expect_punct("{")
        first = self.parse_expr()
        # Replication: {N{expr}}
        if self._peek().is_punct("{"):
            self._next()
            value = self.parse_expr()
            self._expect_punct("}")
            self._expect_punct("}")
            self.depth -= 1
            return Replicate(count=first, value=value)
        parts = [first]
        while self._accept_punct(","):
            parts.append(self.parse_expr())
        self._expect_punct("}")
        self.depth -= 1
        return Concat(parts=parts)


def parse(source: str) -> SourceFile:
    """Parse Verilog ``source`` text into a :class:`SourceFile`."""
    return Parser(tokenize(source)).parse_source()


def parse_module(source: str, name: str | None = None) -> Module:
    """Parse source and return one module (by ``name`` or the first)."""
    sf = parse(source)
    if name is None:
        return sf.modules[0]
    return sf.module(name)
