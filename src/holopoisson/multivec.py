"""Exterior calculus on a chart: multivector fields, differential forms,
wedge, contraction, Lie derivative, the Schouten-Nijenhuis bracket, de Rham
d with its (dpart, dbar) splitting and the sharp map of a bivector.

Frame bookkeeping: on a chart of dimension n both the tangent and cotangent
frames carry 2n slots.  On complex charts slot k < n is the holomorphic
direction (d/dz_{k+1} resp. dz_{k+1}) and slot k >= n the antiholomorphic
one; on real charts the x-block comes before the y-block.  Components are
stored on strictly increasing index tuples, so every object is kept in its
canonical antisymmetric representation.

Schouten convention (fixed once, used everywhere): [X, f] = X(f),
[X, Y] = Lie bracket, and the graded Leibniz extension
[P, Q ^ R] = [P, Q] ^ R + (-1)^((p-1) q) Q ^ [P, R] together with graded
antisymmetry [P, Q] = -(-1)^((p-1)(q-1)) [Q, P].  These force
[X ^ Y, f] = Y(f) X - X(f) Y, i.e. [P, f] = -(-1)^p i_df P.
"""

from __future__ import annotations

from .errors import ChartError, DegreeError
from .exactalg import GQ, Chart, Poly, _accumulate, convert_chart


def merge_indices(left, right):
    """Concatenate two strictly increasing index tuples with the Koszul sign.

    Returns (tuple, sign) or None when an index repeats.
    """
    merged = list(left) + list(right)
    sign = 1
    # insertion sort, counting transpositions
    for a in range(1, len(merged)):
        b = a
        while b > 0 and merged[b - 1] > merged[b]:
            merged[b - 1], merged[b] = merged[b], merged[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and merged[b - 1] == merged[b]:
            return None
    return tuple(merged), sign


def insert_index(index, indices):
    """Prepend one index into an increasing tuple; None if already present."""
    return merge_indices((index,), indices)


class _Alternating:
    """Shared storage for Multivector and Form."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps=None):
        if degree < 0:
            raise DegreeError("degree must be >= 0")
        self.chart = chart
        self.degree = degree
        clean = {}
        if comps:
            for idx, poly in comps.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise DegreeError(
                        f"index tuple {idx} has length != degree {degree}")
                if any(not 0 <= k < chart.nvars for k in idx):
                    raise ChartError(f"frame index out of range in {idx}")
                if list(idx) != sorted(set(idx)):
                    raise DegreeError(f"index tuple {idx} not increasing")
                if isinstance(poly, (int, GQ)):
                    poly = Poly.const(chart, poly)
                if poly.chart != chart:
                    raise ChartError("component on wrong chart")
                if not poly.is_zero():
                    clean[idx] = poly
        self.comps = clean

    # ------------------------------------------------------------------

    def _require_same(self, other):
        if self.chart != other.chart:
            raise ChartError(
                f"chart mismatch: {self.chart} vs {other.chart}")
        if type(self) is not type(other):
            raise DegreeError("cannot combine a form with a multivector")

    def _raw(self, comps):
        out = type(self).__new__(type(self))
        out.chart = self.chart
        out.degree = self.degree
        out.comps = comps
        return out

    def __add__(self, other):
        self._require_same(other)
        if self.degree != other.degree:
            # zero objects act as the zero of any degree
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeError("cannot add different degrees")
        comps = dict(self.comps)
        for idx, poly in other.comps.items():
            _accumulate(comps, idx, poly)
        return self._raw(comps)

    def __neg__(self):
        return self._raw({i: -p for i, p in self.comps.items()})

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def scale(self, value):
        if isinstance(value, Poly):
            comps = {i: value * p for i, p in self.comps.items()}
            return type(self)(self.chart, self.degree, comps)
        value = GQ.of(value)
        comps = {i: p.scale(value) for i, p in self.comps.items()}
        return type(self)(self.chart, self.degree, comps)

    def __eq__(self, other):
        if not isinstance(other, _Alternating):
            return NotImplemented
        if type(self) is not type(other) or self.chart != other.chart:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.comps == other.comps

    def is_zero(self) -> bool:
        return not self.comps

    def component(self, idx) -> Poly:
        return self.comps.get(tuple(idx), Poly.zero(self.chart))

    @classmethod
    def zero(cls, chart: Chart, degree: int = 0):
        return cls(chart, degree, {})

    @classmethod
    def frame(cls, chart: Chart, index: int):
        """The degree-1 frame element of slot index."""
        return cls(chart, 1, {(index,): Poly.one(chart)})

    @classmethod
    def from_components(cls, chart: Chart, coeffs):
        """Degree-1 object from a length-2n coefficient list."""
        return cls(chart, 1, {(k,): c for k, c in enumerate(coeffs)})

    def coefficients(self):
        """Degree-1 object as a dense length-2n coefficient list."""
        if self.degree != 1:
            raise DegreeError("coefficients() needs degree 1")
        return [self.component((k,)) for k in range(self.chart.nvars)]

    def wedge(self, other):
        self._require_same(other)
        degree = self.degree + other.degree
        comps: dict = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                merged = merge_indices(i1, i2)
                if merged is None:
                    continue
                idx, sign = merged
                poly = p1 * p2
                _accumulate(comps, idx, poly if sign > 0 else -poly)
        out = type(self).__new__(type(self))
        out.chart = self.chart
        out.degree = degree
        out.comps = comps
        return out

    def map_coefficients(self, fn):
        comps = {}
        for idx, poly in self.comps.items():
            image = fn(poly)
            if not image.is_zero():
                comps[idx] = image
        return self._raw(comps)

    def bidegree(self):
        """(k, l) split across the holomorphic block, or None if mixed."""
        n = self.chart.n
        splits = {(sum(1 for k in idx if k < n),
                   sum(1 for k in idx if k >= n)) for idx in self.comps}
        if not splits:
            return (self.degree, 0) if self.degree == 0 else None
        if len(splits) == 1:
            return splits.pop()
        return None

    def sorted_comps(self):
        return sorted(self.comps.items())

    def _frame_prefix(self):
        raise NotImplementedError

    def __str__(self):
        if not self.comps:
            return "0"
        chunks = []
        for idx, poly in self.sorted_comps():
            frame = "^".join(self._frame_prefix() + self.chart.var_name(k)
                             for k in idx)
            if not frame:
                chunks.append(f"({poly})")
            else:
                chunks.append(f"({poly}) {frame}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"{type(self).__name__}({self.chart}, {self})"


class Multivector(_Alternating):
    """Alternating contravariant tensor with Poly coefficients."""

    def _frame_prefix(self):
        return "d/d"

    @staticmethod
    def function(f: Poly) -> "Multivector":
        return Multivector(f.chart, 0, {(): f})

    def apply_to(self, f: Poly) -> Poly:
        """Directional derivative X(f) of a degree-1 field."""
        if self.degree != 1:
            raise DegreeError("apply_to needs a degree-1 field")
        if f.chart != self.chart:
            raise ChartError("chart mismatch")
        out = Poly.zero(self.chart)
        for (k,), coeff in self.comps.items():
            out = out + coeff * f.diff(k)
        return out


class Form(_Alternating):
    """Alternating covariant tensor with Poly coefficients."""

    def _frame_prefix(self):
        return "d"


def pairing(xi: Form, x: Multivector) -> Poly:
    """Natural pairing <xi, X> of a 1-form with a vector field."""
    if xi.degree != 1 or x.degree != 1:
        raise DegreeError("pairing needs degree-1 arguments")
    if xi.chart != x.chart:
        raise ChartError("chart mismatch")
    out = Poly.zero(xi.chart)
    for (k,), coeff in xi.comps.items():
        other = x.comps.get((k,))
        if other is not None:
            out = out + coeff * other
    return out


def differential(f: Poly) -> Form:
    """Full de Rham differential df over all chart variables."""
    comps = {(k,): f.diff(k) for k in range(f.chart.nvars)}
    return Form(f.chart, 1, comps)


def _contract_slots(one: dict, comps: dict) -> dict:
    """Components of the contraction of a degree-1 object (components one)
    into each slot of an alternating one (components comps), slot pos
    carrying the sign (-1)^pos."""
    out: dict = {}
    for idx, coeff in comps.items():
        for pos, k in enumerate(idx):
            c = one.get((k,))
            if c is None:
                continue
            poly = coeff * c
            _accumulate(out, idx[:pos] + idx[pos + 1:],
                        -poly if pos % 2 else poly)
    return out


def contract(xi: Form, P: Multivector) -> Multivector:
    """Interior product i_xi P, contracting the first slot of P."""
    if xi.degree != 1:
        raise DegreeError("contract needs a 1-form")
    if P.degree == 0:
        raise DegreeError("cannot contract a degree-0 multivector")
    if xi.chart != P.chart:
        raise ChartError("chart mismatch")
    return Multivector(P.chart, P.degree - 1,
                       _contract_slots(xi.comps, P.comps))


def interior(x: Multivector, omega: Form) -> Form:
    """Interior product i_X omega of a vector field into a form."""
    if x.degree != 1:
        raise DegreeError("interior needs a vector field")
    if x.chart != omega.chart:
        raise ChartError("chart mismatch")
    if omega.degree == 0:
        return Form.zero(omega.chart, 0)
    return Form(omega.chart, omega.degree - 1,
                _contract_slots(x.comps, omega.comps))


def _d_comps(omega: Form, split: int):
    """The components of d omega as two dicts: the terms whose new slot is
    < split, and the rest."""
    parts = ({}, {})
    for idx, coeff in omega.comps.items():
        for k in range(omega.chart.nvars):
            dcoeff = coeff.diff(k)
            if dcoeff.is_zero():
                continue
            merged = insert_index(k, idx)
            if merged is None:
                continue
            new_idx, sign = merged
            _accumulate(parts[k >= split], new_idx,
                        dcoeff if sign > 0 else -dcoeff)
    return parts


def exterior_d(omega: Form) -> Form:
    """De Rham differential on forms (all 2n chart variables)."""
    return Form(omega.chart, omega.degree + 1,
                _d_comps(omega, omega.chart.nvars)[0])


def derham_split(omega: Form):
    """Split d = dpart + dbar on a complex chart.

    dpart inserts holomorphic frame slots (dz), dbar antiholomorphic ones.
    """
    if not omega.chart.is_complex():
        raise ChartError("derham_split requires a complex chart")
    dpart, dbar = _d_comps(omega, omega.chart.n)
    return (Form(omega.chart, omega.degree + 1, dpart),
            Form(omega.chart, omega.degree + 1, dbar))


# ----------------------------------------------------------------------
# Schouten-Nijenhuis bracket

def schouten(P: Multivector, Q: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket with the module's fixed convention."""
    if P.chart != Q.chart:
        raise ChartError("chart mismatch")
    p, q = P.degree, Q.degree
    degree = max(p + q - 1, 0)
    comps: dict = {}

    def one_side(src, dst, outer_sign):
        # sum_k (src right-derivative in slot k) wedge (d/dx_k dst)
        sp = src.degree
        for idx, f in src.comps.items():
            for pos, k in enumerate(idx, start=1):
                rest = idx[:pos - 1] + idx[pos:]
                sign = outer_sign * (-1 if (sp - pos) % 2 else 1)
                for jdx, g in dst.comps.items():
                    dg = g.diff(k)
                    if dg.is_zero():
                        continue
                    merged = merge_indices(rest, jdx)
                    if merged is None:
                        continue
                    new_idx, msign = merged
                    poly = f * dg
                    _accumulate(comps, new_idx,
                                poly if sign * msign > 0 else -poly)

    one_side(P, Q, 1)
    flip = -1 if ((p - 1) * (q - 1)) % 2 else 1
    one_side(Q, P, -flip)
    return Multivector(P.chart, degree, comps)


def lie_derivative(x: Multivector, target):
    """Lie derivative along a degree-1 field; Cartan formula on forms,
    Schouten bracket on multivectors."""
    if x.degree != 1:
        raise DegreeError("lie_derivative needs a degree-1 field")
    if isinstance(target, Form):
        return interior(x, exterior_d(target)) + exterior_d(interior(x, target))
    if isinstance(target, Multivector):
        return schouten(x, target)
    raise DegreeError(f"cannot Lie-derive {type(target).__name__}")


def sharp(pi: Multivector, xi: Form) -> Multivector:
    """The anchor-like map of a bivector: pi_sharp(xi) = i_xi pi, so that
    pi(xi, eta) = <eta, pi_sharp(xi)>."""
    if pi.degree != 2:
        raise DegreeError("sharp needs a bivector")
    if xi.degree != 1:
        raise DegreeError("sharp needs a 1-form")
    return contract(xi, pi)


def sharp_matrix(pi: Multivector):
    """Matrix M with (pi_sharp xi)^a = sum_b M[a][b] xi_b over the frame."""
    if pi.degree != 2:
        raise DegreeError("sharp_matrix needs a bivector")
    chart = pi.chart
    m = chart.nvars
    rows = [[Poly.zero(chart) for _ in range(m)] for _ in range(m)]
    for (a, b), coeff in pi.comps.items():
        # pi_sharp(e^b) has +coeff in slot... i_{e^a} contributes along b
        rows[b][a] = rows[b][a] + coeff
        rows[a][b] = rows[a][b] - coeff
    return rows


# ----------------------------------------------------------------------
# chart conversion of frames

def _tangent_images(source: Chart, target: Chart):
    n = source.n
    half = GQ(1, 0) / GQ(2, 0)
    out = []
    if source.is_complex():
        # d/dz_k = (d/dx_k - i d/dy_k)/2 ; d/dzb_k = (d/dx_k + i d/dy_k)/2
        for k in range(n):
            out.append(Multivector(target, 1, {
                (k,): Poly.const(target, half),
                (n + k,): Poly.const(target, GQ(0, 1) * half * -1)}))
        for k in range(n):
            out.append(Multivector(target, 1, {
                (k,): Poly.const(target, half),
                (n + k,): Poly.const(target, GQ(0, 1) * half)}))
    else:
        # d/dx_k = d/dz_k + d/dzb_k ; d/dy_k = i (d/dz_k - d/dzb_k)
        for k in range(n):
            out.append(Multivector(target, 1, {
                (k,): Poly.one(target), (n + k,): Poly.one(target)}))
        for k in range(n):
            out.append(Multivector(target, 1, {
                (k,): Poly.const(target, GQ(0, 1)),
                (n + k,): Poly.const(target, GQ(0, -1))}))
    return out


def _cotangent_images(source: Chart, target: Chart):
    n = source.n
    half = GQ(1, 0) / GQ(2, 0)
    out = []
    if source.is_complex():
        # dz_k = dx_k + i dy_k ; dzb_k = dx_k - i dy_k
        for k in range(n):
            out.append(Form(target, 1, {
                (k,): Poly.one(target),
                (n + k,): Poly.const(target, GQ(0, 1))}))
        for k in range(n):
            out.append(Form(target, 1, {
                (k,): Poly.one(target),
                (n + k,): Poly.const(target, GQ(0, -1))}))
    else:
        # dx_k = (dz_k + dzb_k)/2 ; dy_k = (dz_k - dzb_k)/2i
        minus_half_i = GQ(0, 1) * half * -1
        for k in range(n):
            out.append(Form(target, 1, {
                (k,): Poly.const(target, half),
                (n + k,): Poly.const(target, half)}))
        for k in range(n):
            out.append(Form(target, 1, {
                (k,): Poly.const(target, minus_half_i),
                (n + k,): Poly.const(target, minus_half_i * -1)}))
    return out


def convert_alternating(obj, target: Chart):
    """Transport a Multivector or Form across the real/complex chart pair."""
    if obj.chart == target:
        return obj
    if obj.chart.n != target.n:
        raise ChartError("dimension mismatch in chart conversion")
    if isinstance(obj, Multivector):
        images = _tangent_images(obj.chart, target)
        unit: _Alternating = Multivector(target, 0, {(): Poly.one(target)})
    else:
        images = _cotangent_images(obj.chart, target)
        unit = Form(target, 0, {(): Poly.one(target)})
    total = type(unit)(target, obj.degree, {})
    for idx, coeff in obj.comps.items():
        term = unit.map_coefficients(
            lambda p, c=coeff: p * convert_chart(c, target))
        for k in idx:
            term = term.wedge(images[k])
        total = total + term
    return total

