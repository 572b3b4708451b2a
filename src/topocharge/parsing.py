"""Parser for the expression grammar.

Terms are joined by ``+`` and ``-``, factors by ``*`` (implicit
multiplication is a syntax error), integer powers use ``^``, and ``/``
divides by integer literals or parameter symbols.  Derivatives are
written as subscripts (``u_txx``) or primes (``f''``); subscript letter
order is insignificant.  Decimal literals are converted exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .jetexpr import (
    AXES,
    JetExpr,
    T,
    arbfun_key,
    param_key,
)


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class SymbolTable:
    """Names legal in a parse: dependent variables, arbfuns, parameters."""

    deps: frozenset = frozenset({"u"})
    arbfuns: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def with_deps(self, *names: str) -> "SymbolTable":
        return SymbolTable(self.deps | set(names), dict(self.arbfuns), dict(self.params))

    def with_arbfun(self, name: str, sig, rule=()) -> "SymbolTable":
        funs = dict(self.arbfuns)
        funs[name] = (tuple(sig), rule)
        return SymbolTable(self.deps, funs, dict(self.params))

    def with_param(self, name: str, square=None) -> "SymbolTable":
        pars = dict(self.params)
        pars[name] = square
        return SymbolTable(self.deps, dict(self.arbfuns), pars)


def default_symbols() -> SymbolTable:
    return SymbolTable(frozenset({"u"}), {"f": ((T,), ())}, {})


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z]+'*(?:_[A-Za-z]+)?)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    pos = 0
    n = len(src)
    out = []
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(src, pos)
        if not m:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, src: str, dim: int, symbols: SymbolTable):
        if not 1 <= dim <= 3:
            raise ValueError(f"dim must be 1..3, got {dim}")
        self.src = src
        self.dim = dim
        self.symbols = symbols
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)

    # grammar ----------------------------------------------------------

    def parse(self) -> JetExpr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return e

    def expr(self) -> JetExpr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> JetExpr:
        e = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                if val == "*":
                    e = e * rhs
                else:
                    try:
                        e = e / rhs
                    except ValueError as exc:
                        raise ParseError(str(exc), off) from None
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", off)
            else:
                return e

    def unary(self) -> JetExpr:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            operand = self.unary()
            return operand if val == "+" else -operand
        return self.power()

    def power(self) -> JetExpr:
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.next()
            n = self.integer()
            try:
                base = base ** n if n >= 0 else JetExpr.number(1) / base ** (-n)
            except ValueError as exc:
                raise ParseError(str(exc), off) from None
        return base

    def integer(self) -> int:
        sign = 1
        kind, val, off = self.next()
        if kind == "op" and val == "-":
            sign = -1
            kind, val, off = self.next()
        if kind != "num" or "." in val:
            raise ParseError("expected an integer exponent", off)
        return sign * int(val)

    def atom(self) -> JetExpr:
        kind, val, off = self.next()
        if kind == "num":
            if "." in val:
                return JetExpr.number(Fraction(val))
            return JetExpr.number(int(val))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            return self.symbol(val, off)
        raise ParseError(f"unexpected token {val!r}", off)

    def symbol(self, text: str, off: int) -> JetExpr:
        name, _, subscript = text.partition("_")
        primes = len(name) - len(name.rstrip("'"))
        name = name.rstrip("'")
        if primes and subscript:
            raise ParseError("cannot mix primes and subscripts", off)

        if name in AXES and not subscript and not primes:
            axis = AXES.index(name)
            if axis > self.dim:
                raise ParseError(f"variable {name!r} is illegal in dim {self.dim}", off)
            return JetExpr.variable(axis)

        if name in self.symbols.deps:
            if primes:
                raise ParseError(f"primes are illegal on dependent variable {name!r}", off)
            mi = self._subscript_mi(subscript, off)
            return JetExpr.jet(name, mi)

        if name in self.symbols.arbfuns:
            sig, rule = self.symbols.arbfuns[name]
            if primes:
                if len(sig) != 1:
                    raise ParseError(
                        f"primes are only legal on single-variable functions ({name!r})", off
                    )
                return JetExpr.arbfun(arbfun_key(name, sig, (primes,), rule))
            orders = [0] * len(sig)
            for ch in subscript:
                if ch not in AXES:
                    raise ParseError(f"unknown axis letter {ch!r}", off)
                axis = AXES.index(ch)
                if axis not in sig:
                    raise ParseError(
                        f"derivative of {name!r} with respect to {ch!r} is outside "
                        f"its signature", off
                    )
                orders[sig.index(axis)] += 1
            return JetExpr.arbfun(arbfun_key(name, sig, tuple(orders), rule))

        if name in self.symbols.params:
            if primes or subscript:
                raise ParseError(f"parameter {name!r} cannot carry derivatives", off)
            square = self.symbols.params[name]
            return JetExpr.param(param_key(name, square))

        raise ParseError(f"unknown symbol {text!r}", off)

    def _subscript_mi(self, subscript: str, off: int):
        mi = [0, 0, 0, 0]
        for ch in subscript:
            if ch not in AXES:
                raise ParseError(f"unknown axis letter {ch!r}", off)
            axis = AXES.index(ch)
            if axis > self.dim:
                raise ParseError(f"axis {ch!r} is illegal in dim {self.dim}", off)
            mi[axis] += 1
        return tuple(mi)


def parse_expr(source: str, dim: int, symbols: SymbolTable | None = None) -> JetExpr:
    """Parse `source` into a canonical JetExpr for a dim-dimensional problem."""
    source = source.replace("−", "-")  # tolerate typographic minus
    return _Parser(source, dim, symbols or default_symbols()).parse()
