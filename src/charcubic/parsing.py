"""Parsers for the text surface: rationals, polynomials, polynomial maps,
matrices, and group words.

All failures raise ParseError (a ValueError) carrying a position where one is
meaningful; parsers never raise anything else on malformed text.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .autgroup import GroupWord, SignedPerm
from .matrices import Matrix
from .multipoly import MAP_VARS, MultiPoly, PolyMap


class ParseError(ValueError):
    pass


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(s: str) -> Fraction:
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError("malformed rational literal %r" % s)
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ParseError("zero denominator in %r" % s)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def parse_triple(s: str) -> tuple:
    parts = s.split(",")
    if len(parts) != 3:
        raise ParseError("expected three comma-separated rationals, got %d part(s)"
                         % len(parts))
    return tuple(parse_rational(p) for p in parts)


def parse_int_list(s: str) -> tuple:
    out = []
    for part in s.split(","):
        v = parse_rational(part)
        if v.denominator != 1:
            raise ParseError("expected an integer, got %r" % part.strip())
        out.append(int(v))
    return tuple(out)


def parse_matrix(s: str) -> Matrix:
    """Rows separated by ';', entries by ','; e.g. \"1,1;0,1\"."""
    rows = []
    for row_text in s.split(";"):
        rows.append([parse_rational(e) for e in row_text.split(",")])
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix literal %r" % s)
    return Matrix(rows)


# --- polynomial expressions --------------------------------------------------

_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_]\w*")


def _tokenize(s: str) -> list:
    tokens = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUM_RE.match(s, i)
        if m:
            text = m.group()
            if "/" in text and int(text.split("/")[1]) == 0:
                raise ParseError("zero denominator at position %d" % i)
            tokens.append(("num", text, i))
            i = m.end()
            continue
        m = _NAME_RE.match(s, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r at position %d" % (ch, i))
    return tokens


# a level of parentheses costs five stack frames: well inside the recursion limit
_MAX_NESTING = 100


class _PolyParser:
    """expr := term (('+'|'-') term)* ; term := unary ('*' unary)* ;
    unary := ('+'|'-')* power ; power := atom ('^' integer)? ;
    atom := number | variable | '(' expr ')'"""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.variables = tuple(variables)

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return t

    def parse(self) -> MultiPoly:
        e = self.expr()
        left = self._peek()
        if left is not None:
            raise ParseError("unexpected %r at position %d" % (left[1], left[2]))
        return e

    def expr(self):
        e = self.term()
        while True:
            t = self._peek()
            if t and t[0] == "op" and t[1] in "+-":
                self._next()
                rhs = self.term()
                e = e + rhs if t[1] == "+" else e - rhs
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            t = self._peek()
            if t and t[0] == "op" and t[1] == "*":
                self._next()
                e = e * self.unary()
            else:
                return e

    def unary(self):
        negate = False
        t = self._peek()
        while t and t[0] == "op" and t[1] in "+-":
            self._next()
            negate ^= t[1] == "-"
            t = self._peek()
        e = self.power()
        return -e if negate else e

    def power(self):
        e = self.atom()
        t = self._peek()
        if t and t[0] == "op" and t[1] == "^":
            self._next()
            exp = self._next()
            if exp[0] != "num" or "/" in exp[1]:
                raise ParseError("exponent must be a nonnegative integer at position %d"
                                 % exp[2])
            return e ** int(exp[1])
        return e

    def atom(self):
        t = self._next()
        if t[0] == "num":
            return MultiPoly.const(self.variables, parse_rational(t[1]))
        if t[0] == "name":
            if t[1] not in self.variables:
                raise ParseError("unknown variable %r at position %d" % (t[1], t[2]))
            return MultiPoly.variable(t[1], self.variables)
        if t[0] == "op" and t[1] == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError("parentheses nested more than %d deep at position %d"
                                 % (_MAX_NESTING, t[2]))
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            closing = self._next()
            if closing[0] != "op" or closing[1] != ")":
                raise ParseError("expected ')' at position %d" % closing[2])
            return e
        raise ParseError("unexpected %r at position %d" % (t[1], t[2]))


def parse_poly(s: str, variables=MAP_VARS) -> MultiPoly:
    tokens = _tokenize(s)
    if not tokens:
        raise ParseError("empty polynomial expression")
    return _PolyParser(tokens, variables).parse()


def parse_poly_map(s: str) -> PolyMap:
    parts = s.split(";")
    if len(parts) != 3:
        raise ParseError("expected three ';'-separated components, got %d" % len(parts))
    return PolyMap(tuple(parse_poly(p, MAP_VARS) for p in parts))


# --- group words --------------------------------------------------------------

_TOKEN_TO_LETTER = {
    "a": "alpha", "b": "beta", "g": "gamma",
    "sx": "sigma_x", "sy": "sigma_y", "sz": "sigma_z",
    "t1": "tau1", "t2": "tau2", "t3": "tau3",
}
LETTER_TO_TOKEN = {v: k for k, v in _TOKEN_TO_LETTER.items()}

_PERM_RE = re.compile(r"^perm\(([xyz]{3})\)(?:flip\(([xyz]{1,3})\))?$")


def _parse_tail(text: str) -> SignedPerm:
    m = _PERM_RE.match(text)
    if not m:
        raise ParseError("malformed trailing permutation %r" % text)
    perm_text, flip_text = m.group(1), m.group(2) or ""
    if sorted(perm_text) != ["x", "y", "z"]:
        raise ParseError("perm(%s) is not a permutation of xyz" % perm_text)
    if len(set(flip_text)) != len(flip_text):
        raise ParseError("repeated axis in flip(%s)" % flip_text)
    perm = tuple("xyz".index(ch) for ch in perm_text)
    signs = tuple(-1 if ax in flip_text else 1 for ax in "xyz")
    return SignedPerm(perm, signs)


def parse_word(s: str) -> GroupWord:
    """Whitespace-separated letters from {a, b, g, sx, sy, sz, t1, t2, t3},
    each optionally suffixed ^-1 (b^-1 expands to b b; the others are
    involutions), plus an optional final perm(...)flip(...) literal."""
    tokens = s.split()
    letters = []
    tail = None
    for idx, tok in enumerate(tokens):
        if tok.startswith("perm("):
            if idx != len(tokens) - 1:
                raise ParseError("permutation literal %r must come last" % tok)
            tail = _parse_tail(tok)
            continue
        base, caret, exp = tok.partition("^")
        if caret and exp != "-1":
            raise ParseError("only the exponent -1 is supported, got %r" % tok)
        if base not in _TOKEN_TO_LETTER:
            raise ParseError("unknown letter %r" % tok)
        name = _TOKEN_TO_LETTER[base]
        if caret and name == "beta":
            letters.extend(["beta", "beta"])
        else:
            letters.append(name)
    return GroupWord(tuple(letters), tail)


def word_tokens(word: GroupWord) -> str:
    """Inverse of parse_word on canonical forms."""
    bits = [LETTER_TO_TOKEN[name] for name in word.letters]
    if not word.tail.is_identity():
        bits.append(str(word.tail))
    return " ".join(bits)
