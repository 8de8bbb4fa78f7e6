"""Exact coefficient arithmetic on polynomial coordinate charts.

Scalars are Gaussian rationals, each stored as three normalised Python
ints: (a + b i)/d with d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1)
and equal values have equal triples.  Polynomials live on a chart: a
complex chart of dimension n has 2n independent generators z1..zn,
zb1..zbn ("zb" is the conjugate variable, treated formally); a real chart
has generators x1..xn, y1..yn.  There is one Chart object per kind and
size, so charts compare by identity.  Everything is immutable and every
operation returns a canonical form.

Input is checked once, at the boundary: Chart(kind, n), Poly(chart,
terms) and the parsers validate what they are given.  The constructors
zero, one, const, var and monomial and every operation build their
canonical term maps directly, with no second pass over them.
"""

from __future__ import annotations

import re
import sys
from math import gcd
from operator import add

from .errors import ChartError, ParseError

# the rationals of the scalar grammar: no decimals, exponents or '_'
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# a bare GQ, for results whose triple is already normalised
_new = object.__new__


class GQ:
    """A Gaussian rational (a + b i)/d held as normalised ints.

    Invariants: d > 0 and gcd(a, b, d) = 1, so each value has exactly one
    triple and zero is (0, 0, 1).  ``re`` and ``im`` are derived
    ``Fraction``s.  ``GQ(re, im)`` takes ints, ``Fraction``s or strings of
    the scalar grammar ``[+-]digits(/digits)?``; a float is a TypeError.
    A real GQ hashes like the int or Fraction it equals.  The arithmetic
    builds no Fraction: ``fractions`` is imported only by ``re`` and
    ``im``, so a command that never asks for them does not load it.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a = re
            self.b = im
            self.d = 1
            return
        ra, rd = _rational(re)
        ia, id_ = _rational(im)
        a, b, d = ra * id_, ia * rd, rd * id_
        g = gcd(a, b, d)
        self.a = a // g
        self.b = b // g
        self.d = d // g

    @staticmethod
    def of(value) -> "GQ":
        if type(value) is GQ:
            return value
        return GQ(value)

    @staticmethod
    def i() -> "GQ":
        return GQ(0, 1)

    @property
    def re(self):
        from fractions import Fraction

        return Fraction(self.a, self.d)

    @property
    def im(self):
        from fractions import Fraction

        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is not GQ:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d = self.d
        e = other.d
        if d == 1 and e == 1:
            z = _new(GQ)
            z.a = self.a + other.a
            z.b = self.b + other.b
            z.d = 1
            return z
        if d == e:
            return _normal(self.a + other.a, self.b + other.b, d)
        return _normal(self.a * e + other.a * d, self.b * e + other.b * d,
                       d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GQ:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d = self.d
        e = other.d
        if d == 1 and e == 1:
            z = _new(GQ)
            z.a = self.a - other.a
            z.b = self.b - other.b
            z.d = 1
            return z
        if d == e:
            return _normal(self.a - other.a, self.b - other.b, d)
        return _normal(self.a * e - other.a * d, self.b * e - other.b * d,
                       d * e)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        kind = type(other)
        if kind is GQ:
            a = self.a
            b = self.b
            c = other.a
            e = other.b
            if self.d == 1 and other.d == 1:
                z = _new(GQ)
                z.a = a * c - b * e
                z.b = a * e + b * c
                z.d = 1
                return z
            return _normal(a * c - b * e, a * e + b * c, self.d * other.d)
        if kind is int:
            if self.d == 1:
                z = _new(GQ)
                z.a = self.a * other
                z.b = self.b * other
                z.d = 1
                return z
            return _normal(self.a * other, self.b * other, self.d)
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.__mul__(other)

    __rmul__ = __mul__

    def __neg__(self):
        z = _new(GQ)
        z.a = -self.a
        z.b = -self.b
        z.d = self.d
        return z

    def __truediv__(self, other):
        if type(other) is not GQ:
            other = _operand(other)
            if other is None:
                return NotImplemented
        # 1/((c + ei)/f) = f(c - ei)/(c^2 + e^2)
        c = other.a
        e = other.b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a = self.a
        b = self.b
        f = other.d
        return _normal((a * c + b * e) * f, (b * c - a * e) * f,
                       self.d * norm)

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def conj(self) -> "GQ":
        z = _new(GQ)
        z.a = self.a
        z.b = -self.b
        z.d = self.d
        return z

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if type(other) is GQ:
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if _is_fraction(other):
            return (self.b == 0 and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # equal values hash equal: a real GQ like the int or Fraction it is
        if self.b:
            return hash((self.a, self.b, self.d))
        if self.d == 1:
            return hash(self.a)
        return _rational_hash(self.a, self.d)

    def __repr__(self):
        return f"GQ({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gq(self)


def _normal(a: int, b: int, d: int) -> GQ:
    """The GQ (a + b i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    z = _new(GQ)
    if g == 1:
        z.a = a
        z.b = b
        z.d = d
    else:
        z.a = a // g
        z.b = b // g
        z.d = d // g
    return z


def _is_fraction(value) -> bool:
    """True for a Fraction.  None exists unless ``fractions`` is loaded, so
    the test imports nothing."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def is_scalar(value) -> bool:
    """True for the values Poly.const takes: an int, a GQ or a Fraction."""
    return isinstance(value, (int, GQ)) or _is_fraction(value)


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for coprime n and d > 1, without building it:
    Python's numeric hash, n * d^-1 modulo sys.hash_info.modulus."""
    modulus = sys.hash_info.modulus
    try:
        inverse = pow(d, -1, modulus)
    except ValueError:
        # d is a multiple of the modulus
        value = sys.hash_info.inf
    else:
        value = hash(hash(abs(n)) * inverse)
    value = value if n >= 0 else -value
    return -2 if value == -1 else value


def _operand(value):
    """An int or Fraction operand as a GQ; None for any other type."""
    if isinstance(value, int) or _is_fraction(value):
        return GQ(value)
    return None


def _rational(value):
    """(numerator, denominator > 0) of one part of GQ(re, im)."""
    if isinstance(value, int):
        return value, 1
    if _is_fraction(value):
        return value.numerator, value.denominator
    if isinstance(value, str):
        return _parse_ratio(value, value)
    raise TypeError("a GQ part is an int, a Fraction or a rational string, "
                    f"not {type(value).__name__}")


def format_gq(c: GQ) -> str:
    """Canonical string form: '3', '-1/2', 'i', '-i', '3i', '(1/2-3i)'.
    Each part is a/d or b/d in lowest terms."""
    a, b, d = c.a, c.b, c.d
    if b == 0:
        return _ratio_text(a, d)
    if b == d:
        imag = "i"
    elif b == -d:
        imag = "-i"
    else:
        imag = f"{_ratio_text(b, d)}i"
    if a == 0:
        return imag
    sign = "+" if b > 0 else ""
    return f"({_ratio_text(a, d)}{sign}{imag})"


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms as str(Fraction(n, d)) prints it."""
    g = gcd(n, d)
    n //= g
    d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def parse_gq(text: str) -> GQ:
    """Parse the canonical Gaussian-rational forms accepted by format_gq.

    Real and imaginary parts are integers or integer fractions
    ([+-]digits[/digits]); decimals and exponents such as "1e3" are
    rejected.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s:
        raise ParseError("empty scalar literal")
    # split into real and imaginary summands at top level
    parts = []
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/(":
            parts.append(s[start:k])
            start = k
    parts.append(s[start:])
    value = GQ(0)
    for part in parts:
        part = part.strip()
        if not part:
            raise ParseError(f"malformed scalar literal {text!r}")
        if part.endswith("i"):
            body = part[:-1].strip()
            if body in ("", "+"):
                num, den = 1, 1
            elif body == "-":
                num, den = -1, 1
            else:
                num, den = _parse_ratio(body, text)
            value = value + _normal(0, num, den)
        else:
            num, den = _parse_ratio(part, text)
            value = value + _normal(num, 0, den)
    return value


def _parse_ratio(body: str, context: str):
    """(numerator, denominator > 0) of a rational of the scalar grammar."""
    if not _RATIONAL.fullmatch(body):
        raise ParseError(f"bad rational {body!r} in {context!r}")
    num, _, den = body.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ParseError(f"bad rational {body!r} in {context!r}")
    return int(num), den


class Chart:
    """A coordinate chart: complex(n) or real(n), with 2n formal variables.

    There is one Chart object per (kind, n): construction returns the one
    made first, so charts compare by identity."""

    __slots__ = ("kind", "n")

    COMPLEX = "complex"
    REAL = "real"

    def __new__(cls, kind: str, n: int):
        if kind not in (Chart.COMPLEX, Chart.REAL):
            raise ChartError(f"unknown chart kind {kind!r}")
        if n < 0:
            raise ChartError("chart dimension must be >= 0")
        chart = _CHARTS.get((kind, n))
        if chart is not None:
            return chart
        chart = object.__new__(cls)
        chart.kind = kind
        chart.n = n
        _CHARTS[(kind, n)] = chart
        return chart

    def __reduce__(self):
        return Chart, (self.kind, self.n)

    @staticmethod
    def complex(n: int) -> "Chart":
        return Chart(Chart.COMPLEX, n)

    @staticmethod
    def real(n: int) -> "Chart":
        return Chart(Chart.REAL, n)

    @property
    def nvars(self) -> int:
        return 2 * self.n

    def is_complex(self) -> bool:
        return self.kind == Chart.COMPLEX

    def var_name(self, index: int) -> str:
        if not 0 <= index < self.nvars:
            raise ChartError(f"variable index {index} out of range on {self}")
        if self.is_complex():
            return (f"z{index + 1}" if index < self.n
                    else f"zb{index - self.n + 1}")
        return (f"x{index + 1}" if index < self.n
                else f"y{index - self.n + 1}")

    def var_index(self, name: str) -> int:
        head = name.rstrip("0123456789")
        tail = name[len(head):]
        if not tail:
            raise ChartError(f"variable {name!r} has no index")
        k = int(tail) - 1
        if not 0 <= k < self.n:
            raise ChartError(f"variable {name!r} out of range on {self}")
        prefixes = ("z", "zb") if self.is_complex() else ("x", "y")
        if head == prefixes[0]:
            return k
        if head == prefixes[1]:
            return self.n + k
        raise ChartError(f"variable {name!r} does not belong to {self}")

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"Chart.{self.kind}({self.n})"

    def __str__(self):
        return f"{self.kind}({self.n})"


# the one Chart of each (kind, n)
_CHARTS: dict = {}


def _grlex_key(exps):
    # graded-lex, z-block (low indices) first; used descending for printing
    return (sum(exps), exps)


class Poly:
    """Multivariate polynomial over GQ on a fixed chart, canonical form.

    Terms map exponent tuples (length = chart.nvars) to nonzero GQ
    coefficients; the zero polynomial has an empty term map.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if type(coeff) is not GQ:
                    coeff = GQ.of(coeff)
                if coeff.is_zero():
                    continue
                exps = tuple(exps)
                if len(exps) != chart.nvars:
                    raise ChartError(
                        f"exponent vector {exps} has wrong length for {chart}")
                if any(e < 0 for e in exps):
                    raise ChartError("negative exponent")
                clean[exps] = coeff
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return _poly(chart, {})

    @staticmethod
    def const(chart: Chart, value) -> "Poly":
        value = GQ.of(value)
        if value.is_zero():
            return _poly(chart, {})
        return _poly(chart, {(0,) * chart.nvars: value})

    @staticmethod
    def one(chart: Chart) -> "Poly":
        return _poly(chart, {(0,) * chart.nvars: _ONE})

    @staticmethod
    def var(chart: Chart, index: int) -> "Poly":
        exps = [0] * chart.nvars
        exps[index] = 1
        return _poly(chart, {tuple(exps): _ONE})

    @staticmethod
    def monomial(chart: Chart, exps, coeff=1) -> "Poly":
        exps = tuple(exps)
        if len(exps) != chart.nvars:
            raise ChartError(
                f"exponent vector {exps} has wrong length for {chart}")
        if any(e < 0 for e in exps):
            raise ChartError("negative exponent")
        coeff = GQ.of(coeff)
        return _poly(chart, {} if coeff.is_zero() else {exps: coeff})

    # ------------------------------------------------------------------
    # ring operations

    def _require_same_chart(self, other: "Poly"):
        if self.chart is not other.chart:
            raise ChartError(
                f"chart mismatch: {self.chart} vs {other.chart}")

    def __add__(self, other):
        if type(other) is not Poly and is_scalar(other):
            other = Poly.const(self.chart, other)
        self._require_same_chart(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            coeff = coeff if acc is None else acc + coeff
            if coeff.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = coeff
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if type(other) is not Poly and is_scalar(other):
            other = Poly.const(self.chart, other)
        self._require_same_chart(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = -coeff
                continue
            coeff = acc - coeff
            if coeff.is_zero():
                del terms[exps]
            else:
                terms[exps] = coeff
        return _poly(self.chart, terms)

    def __mul__(self, other):
        if type(other) is not Poly and is_scalar(other):
            return self.scale(other)
        self._require_same_chart(other)
        # a one-term constant factor scales the other, with no products of
        # exponent vectors
        if len(self.terms) == 1:
            (exps, value), = self.terms.items()
            if not any(exps):
                return other.scale(value)
        if len(other.terms) == 1:
            (exps, value), = other.terms.items()
            if not any(exps):
                return self.scale(value)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = terms.get(exps)
                c = c if acc is None else acc + c
                if c.is_zero():
                    terms.pop(exps, None)
                else:
                    terms[exps] = c
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = terms
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, value) -> "Poly":
        value = GQ.of(value)
        if value.b == 0 and value.d == 1:
            # an integer: 0 and +-1 need no coefficient product
            if value.a == 0:
                return Poly.zero(self.chart)
            if value.a == 1:
                return self
            if value.a == -1:
                return self.__neg__()
        return _poly(self.chart, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Poly.one(self.chart)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is not Poly and is_scalar(other):
            other = Poly.const(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # ------------------------------------------------------------------
    # calculus

    def diff(self, var: int) -> "Poly":
        """Formal partial derivative with respect to chart variable var."""
        if not 0 <= var < self.chart.nvars:
            raise ChartError(f"unknown variable index {var} on {self.chart}")
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            new = list(exps)
            new[var] = e - 1
            terms[tuple(new)] = coeff * e
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = terms
        return out

    def conj(self) -> "Poly":
        """Swap z_k <-> zb_k and conjugate coefficients.  Complex chart only."""
        if not self.chart.is_complex():
            raise ChartError("poly_conj requires a complex chart")
        n = self.chart.n
        terms = {}
        for exps, coeff in self.terms.items():
            swapped = exps[n:] + exps[:n]
            terms[swapped] = coeff.conj()
        return _poly(self.chart, terms)

    def is_holomorphic(self) -> bool:
        """True when no zb variable occurs (complex chart)."""
        if not self.chart.is_complex():
            raise ChartError("holomorphy test requires a complex chart")
        n = self.chart.n
        return all(all(e == 0 for e in exps[n:]) for exps in self.terms)

    def evaluate(self, point) -> GQ:
        values = [GQ.of(v) for v in point]
        if len(values) != self.chart.nvars:
            raise ChartError(
                f"point has {len(values)} coordinates, chart needs "
                f"{self.chart.nvars}")
        total = GQ(0)
        for exps, coeff in self.terms.items():
            v = coeff
            for base, e in zip(values, exps):
                for _ in range(e):
                    v = v * base
            total = total + v
        return total

    def substitute(self, images: list, target: Chart) -> "Poly":
        """Ring map onto the target chart sending chart variable k to
        images[k]."""
        if len(images) != self.chart.nvars:
            raise ChartError("wrong number of substitution images")
        out = Poly.zero(target)
        powers: dict = {}
        for exps, coeff in self.terms.items():
            term = Poly.const(target, coeff)
            for k, e in enumerate(exps):
                if e == 0:
                    continue
                key = (k, e)
                if key not in powers:
                    powers[key] = images[k] ** e
                term = term * powers[key]
            out = out + term
        return out

    # ------------------------------------------------------------------
    # presentation

    def sorted_terms(self):
        """Terms in descending graded-lex order (z-block first)."""
        return sorted(self.terms.items(),
                      key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            vars_part = " ".join(
                self.chart.var_name(k) + (f"^{e}" if e > 1 else "")
                for k, e in enumerate(exps) if e > 0)
            if not vars_part:
                chunks.append(format_gq(coeff))
            elif coeff == GQ(1):
                chunks.append(vars_part)
            elif coeff == GQ(-1):
                chunks.append("-" + vars_part)
            else:
                chunks.append(format_gq(coeff) + " " + vars_part)
        return " + ".join(chunks)

    def __repr__(self):
        return f"Poly({self.chart}, {self})"


_ONE = GQ(1)


def _poly(chart: Chart, terms: dict) -> Poly:
    """The Poly of a term map that is canonical by construction: exponent
    tuples of the chart's length with no negative entry, nonzero GQ
    coefficients.  Neither checked nor copied."""
    out = _new(Poly)
    out.chart = chart
    out.terms = terms
    return out


def _accumulate(comps: dict, key, value) -> None:
    """comps[key] += value in a sparse dict that stores no zero entries."""
    acc = comps.get(key)
    value = value if acc is None else acc + value
    if value.is_zero():
        comps.pop(key, None)
    else:
        comps[key] = value


# ----------------------------------------------------------------------
# parsing

def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse the polynomial literal grammar.

    Terms are separated by top-level '+' or '-'; a term is a product of an
    optional scalar literal and variable powers like "z1^2 zb2" (whitespace
    or '*' between factors).  Scalars follow format_gq, e.g. "(-1/2+3i)".
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial literal")
    total = Poly.zero(chart)
    for sign, term in _split_terms(s):
        poly = _parse_term(term, chart)
        total = total + (poly if sign > 0 else -poly)
    return total


def _split_terms(s: str):
    depth = 0
    sign = 1
    start = 0
    k = 0
    while k < len(s):
        ch = s[k]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' in {s!r}")
        elif depth == 0 and ch in "+-":
            body = s[start:k].strip()
            if not body:
                # leading sign of the current term
                if ch == "-":
                    sign = -sign
                start = k + 1
            elif body[-1] not in "^*/(":
                yield sign, body
                sign = 1 if ch == "+" else -1
                start = k + 1
        k += 1
    if depth != 0:
        raise ParseError(f"unbalanced '(' in {s!r}")
    body = s[start:].strip()
    if not body:
        raise ParseError(f"dangling sign in {s!r}")
    yield sign, body


def _parse_term(term: str, chart: Chart) -> Poly:
    term = term.strip()
    if not term:
        raise ParseError("empty term in polynomial literal")
    if term.startswith("-"):
        return -_parse_term(term[1:], chart)
    result = Poly.one(chart)
    for factor in _split_factors(term):
        result = result * _parse_factor(factor, chart)
    return result


def _split_factors(term: str):
    depth = 0
    start = 0
    k = 0
    factors = []
    while k < len(term):
        ch = term[k]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                # a parenthesised scalar ends its factor: "(1/2+3i)z1"
                factors.append(term[start:k + 1])
                start = k + 1
        elif depth == 0 and (ch.isspace() or ch == "*"):
            if k > start:
                factors.append(term[start:k])
            start = k + 1
        k += 1
    if len(term) > start:
        factors.append(term[start:])
    return [f for f in factors if f]


def _parse_factor(factor: str, chart: Chart) -> Poly:
    factor = factor.strip()
    if factor.startswith("("):
        return Poly.const(chart, parse_gq(factor))
    if factor[0].isdigit() or factor in ("i", "-i") or factor[0] == "-":
        return Poly.const(chart, parse_gq(factor))
    name = factor
    exp = 1
    if "^" in factor:
        name, _, exp_part = factor.partition("^")
        try:
            exp = int(exp_part)
        except ValueError as exc:
            raise ParseError(f"bad exponent in {factor!r}") from exc
        if exp < 0:
            raise ParseError(f"negative exponent in {factor!r}")
    try:
        index = chart.var_index(name)
    except ChartError as exc:
        raise ParseError(str(exc)) from exc
    return Poly.var(chart, index) ** exp


# ----------------------------------------------------------------------
# chart conversion

def _coordinate_images(source: Chart, target: Chart) -> list:
    """The variables of source written on target, the chart of the other
    kind: z_k = x_k + i y_k and zb_k = x_k - i y_k; inversely
    x_k = (z_k + zb_k)/2 and y_k = (z_k - zb_k)/2i.  The one place that
    fixes the identification; the frame changes follow from it."""
    n = target.n
    first = [Poly.var(target, k) for k in range(n)]
    second = [Poly.var(target, n + k) for k in range(n)]
    if source.is_complex():
        # z_k -> x_k + i y_k ; zb_k -> x_k - i y_k
        return ([x + y.scale(GQ.i()) for x, y in zip(first, second)]
                + [x - y.scale(GQ.i()) for x, y in zip(first, second)])
    # x_k -> (z_k + zb_k)/2 ; y_k -> (z_k - zb_k)/2i = -i/2 (z_k - zb_k)
    half = _normal(1, 0, 2)
    half_i = _normal(0, 1, 2)
    return ([(z + zb).scale(half) for z, zb in zip(first, second)]
            + [(zb - z).scale(half_i) for z, zb in zip(first, second)])
