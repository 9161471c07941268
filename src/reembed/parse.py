"""Text grammar for rings and polynomials.

Ring declarations look like ``ring x, y, z, w;`` (optionally
``ring x, y mod 7;`` for a prime field).  Polynomials are infix with
rational coefficients written a/b, ``^`` for powers and optional ``*``:
``x^2*y - 1/2y^3 + 3z`` parses, and juxtaposition such as ``2w`` means
multiplication.  Identifiers are maximal runs, so ``xy`` is one
identifier while ``x y`` and ``x*y`` both parse as the product of x and y.

Expanding a product costs one step per pair of terms, and no budget applies
before the parse ends, so each polynomial may expand PARSE_WORK_LIMIT pairs:
a product of two operands with 2 or more terms each, each squaring of a
``^`` included, is charged len(p) * len(q).
"""

from __future__ import annotations

from .field import QQ, PrimeField
from .poly import Poly
from .ring import Ring, tconst


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_SYMBOLS = "+-*^(),;/"

# (a+b+c+d+e)^10, 1001 terms, takes 12575 and parses; ^14 does not.  The
# job files under jobs/ and the benchmark corpora multiply no two sums.
PARSE_WORK_LIMIT = 10 ** 5


def _tokenize(text):
    """Yield (kind, value, line, col); kinds: int, name, or a symbol char."""
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("int", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            yield (ch, ch, line, start_col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)


class _TokenStream:
    def __init__(self, text):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.work = 0    # term pairs expanded so far
        if self.tokens:
            last = self.tokens[-1]
            self._end = (last[2], last[3] + len(str(last[1])))
        else:
            self._end = (1, 1)

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", *self._end)

    def next(self):
        tok = self.peek()
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def done(self):
        return self.pos >= len(self.tokens)


def parse_ring(text):
    """Parse a declaration like ``ring x, y, z;`` into a Ring."""
    ts = _TokenStream(text)
    ring, _ = _parse_ring_decl(ts)
    if not ts.done():
        tok = ts.peek()
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
    return ring


def _parse_ring_decl(ts):
    tok = ts.next()
    if tok[0] != "name" or tok[1] != "ring":
        raise ParseError("expected a ring declaration", tok[2], tok[3])
    labels = [ts.expect("name")[1]]
    field = QQ
    while True:
        tok = ts.next()
        if tok[0] == ",":
            labels.append(ts.expect("name")[1])
        elif tok[0] == "name" and tok[1] == "mod":
            mod = ts.expect("int")
            try:
                field = PrimeField(int(mod[1]))
            except ValueError as e:
                raise ParseError(str(e), mod[2], mod[3]) from None
        elif tok[0] == ";":
            break
        else:
            raise ParseError(f"expected ',' or ';', found {tok[1]!r}",
                             tok[2], tok[3])
    try:
        ring = Ring(labels, field)
    except ValueError as e:
        raise ParseError(str(e), tok[2], tok[3]) from None
    return ring, ts


def parse_poly(text, ring):
    """Parse one polynomial in the given ring."""
    ts = _TokenStream(text)
    if ts.done():
        raise ParseError("empty polynomial", 1, 1)
    p = _parse_sum(ts, ring)
    if not ts.done():
        tok = ts.peek()
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
    return p


def _parse_sum(ts, ring):
    tok = ts.peek()
    sign = 1
    if tok[0] in "+-":
        ts.next()
        sign = -1 if tok[0] == "-" else 1
    p = _parse_product(ts, ring) * sign
    while True:
        tok = ts.peek()
        if tok[0] == "+":
            ts.next()
            p = p + _parse_product(ts, ring)
        elif tok[0] == "-":
            ts.next()
            p = p - _parse_product(ts, ring)
        else:
            return p


_FACTOR_START = ("int", "name", "(")


def _mul(ts, p, q, tok):
    """p * q, charged to the parse when both have 2 or more terms; an
    expansion past PARSE_WORK_LIMIT is refused at the token tok."""
    if len(p) > 1 and len(q) > 1:
        ts.work += len(p) * len(q)
        if ts.work > PARSE_WORK_LIMIT:
            raise ParseError("expansion exceeds the parse limit of "
                             f"{PARSE_WORK_LIMIT} term pairs", tok[2], tok[3])
    return p * q


def _parse_product(ts, ring):
    p = _parse_power(ts, ring)
    while True:
        tok = ts.peek()
        if tok[0] == "*":
            ts.next()
        elif tok[0] not in _FACTOR_START:
            return p
        p = _mul(ts, p, _parse_power(ts, ring), tok)


def _parse_power(ts, ring):
    base = _parse_atom(ts, ring)
    if ts.peek()[0] != "^":
        return base
    caret = ts.next()
    neg = ts.peek()[0] == "-"
    if neg:
        ts.next()
    e = int(ts.expect("int")[1])
    if neg:
        tok = ts.peek()
        raise ParseError("negative exponent", tok[2], tok[3])
    # repeated squaring, as Poly.__pow__ does, with each product charged
    result = Poly.constant(ring, 1)
    while e:
        if e & 1:
            result = _mul(ts, result, base, caret)
        e >>= 1
        if e:
            base = _mul(ts, base, base, caret)
    return result


def _parse_atom(ts, ring):
    tok = ts.next()
    if tok[0] == "int":
        num = int(tok[1])
        if ts.peek()[0] == "/":
            ts.next()
            den_tok = ts.expect("int")
            den = int(den_tok[1])
            if den == 0:
                raise ParseError("zero denominator", den_tok[2], den_tok[3])
            return Poly(ring, {tconst(ring.n): ring.field.of(f"{num}/{den}")})
        return Poly.constant(ring, num)
    if tok[0] == "name":
        try:
            i = ring.index(tok[1])
        except ValueError:
            raise ParseError(f"unknown indeterminate {tok[1]!r}",
                             tok[2], tok[3]) from None
        return Poly.variable(ring, i)
    if tok[0] == "(":
        p = _parse_sum(ts, ring)
        ts.expect(")")
        return p
    raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


def parse_term(text, ring):
    """Parse a single monic term such as ``x*y^2``; returns its exponent tuple."""
    p = parse_poly(text, ring)
    if len(p) != 1:
        raise ParseError("expected a single term", 1, 1)
    ((t, c),) = p.coeffs.items()
    if c != 1:
        raise ParseError("expected a term with coefficient 1", 1, 1)
    return t
