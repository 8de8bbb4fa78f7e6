"""Slow, independent oracle implementations used by the test suite.

These deliberately take different routes from the library code:

* schouten_oracle builds the bracket recursively from the defining axioms
  ([X, f] = X(f), [X, Y] = Lie bracket, graded Leibniz and antisymmetry)
  instead of the closed coordinate formula.
* contract_oracle expands the antisymmetrized definition on decomposables.
* ce_differential is the plain Chevalley-Eilenberg differential of a single
  algebroid; applied to the direct-sum algebroid of a matched pair it
  reproduces the double-complex operators by projection.
* coboundary_reference is the double complex's A-direction coboundary
  evaluated on frame arguments, component by component, through full
  Poly products; partial_A_reference and partial_B_reference (the latter
  on the swapped pair) apply it to a BiCochain.  It was the library's
  route before the per-cell operator tables, and checks them.
* cell_matrix_reference and total_matrix_oracle build a block's cell and
  total matrices one basis vector at a time through the reference
  coboundary, instead of reading the operator tables and assembling.
* FractionGQ is the Gaussian rational as a pair of Fractions: the scalar
  the library used before its integer-triple GQ, frozen here, with
  format_fraction_gq, as the reference for the property tests.
* multivector_conj_reference and _permutation_sign are the library's
  conjugation before it took its sign from merge_indices, frozen here as
  the reference for the property test of that sign.

Fixtures and references that no command needs, moved out of the library:

* tangent_algebroid (identity anchor, commuting frame) and
  lie_algebra_algebroid (a Lie algebra as an algebroid over a point);
* recompose, pi_R + i pi_I back on the complex chart, the inverse that
  checks decompose;
* realified_cotangent, the underlying real algebroid of the cotangent
  algebroid, and conjugate_by_signs, which changes the signs of frame
  sections: acceptance criterion 9 and tests/test_algebroid.py compare
  them with the Koszul algebroids of 4 pi_R and 4 pi_I.
"""

from fractions import Fraction
from itertools import combinations

from holopoisson.algebroid import AlgebroidChart, cotangent_algebroid
from holopoisson.cohomology import BiCochain
from holopoisson.errors import ChartError, TruncationError
from holopoisson.exactalg import GQ, Chart, Poly, _accumulate, convert_chart
from holopoisson.linalg import SparseMatrix, poly_identity
from holopoisson.multivec import (
    Form,
    Multivector,
    convert_alternating,
    insert_index,
)
from holopoisson.poisson import multivector_conj


def sgn(x: int) -> int:
    return -1 if x % 2 else 1


def rand_poly(rng, chart, deg=2, terms=3, holomorphic=False):
    t = {}
    nv = chart.nvars
    upper = chart.n if holomorphic else nv
    for _ in range(terms):
        e = [0] * nv
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(upper)] += 1
        t[tuple(e)] = GQ(rng.randint(-3, 3), rng.randint(-2, 2))
    return Poly(chart, t)


def rand_multivector(rng, chart, degree, deg=2, keep=0.7, holomorphic=False):
    comps = {}
    for idx in combinations(range(chart.nvars), degree):
        if rng.random() < keep:
            comps[idx] = rand_poly(rng, chart, deg, holomorphic=holomorphic)
    return Multivector(chart, degree, comps)


def rand_form(rng, chart, degree, deg=2, keep=0.7):
    comps = {}
    for idx in combinations(range(chart.nvars), degree):
        if rng.random() < keep:
            comps[idx] = rand_poly(rng, chart, deg)
    return Form(chart, degree, comps)


# ----------------------------------------------------------------------
# Schouten bracket from the axioms

def _vector(chart, index, coeff):
    return Multivector(chart, 1, {(index,): coeff})


def schouten_oracle(P: Multivector, Q: Multivector) -> Multivector:
    """Recursive bracket using only the pinned axioms.

    Base cases are [f, g] = 0, [X, f] = X(f) and the Lie bracket of vector
    fields; a second argument of degree >= 2 is split as Q1 ^ R and reduced
    through the graded Leibniz rule; everything else flips through graded
    antisymmetry (which always lands in a splittable call).
    """
    chart = P.chart
    p, q = P.degree, Q.degree
    if p <= 1 and q <= 1:
        if p == 0 and q == 0:
            return Multivector.zero(chart, 0)
        if p == 1 and q == 0:
            f = Q.component(())
            out = Poly.zero(chart)
            for (k,), coeff in P.comps.items():
                out = out + coeff * f.diff(k)
            return Multivector.function(out)
        if p == 0 and q == 1:
            # [f, X] = -(-1)^{(0-1)(1-1)} [X, f] = -X(f)
            return schouten_oracle(Q, P).scale(-1)
        out = {}
        for (a,), fa in P.comps.items():
            for (b,), gb in Q.comps.items():
                term1 = fa * gb.diff(a)
                acc = out.get((b,), Poly.zero(chart))
                out[(b,)] = acc + term1
                term2 = gb * fa.diff(b)
                acc = out.get((a,), Poly.zero(chart))
                out[(a,)] = acc - term2
        return Multivector(chart, 1, {k: v for k, v in out.items()
                                      if not v.is_zero()})
    if q >= 2:
        # [P, Q1 ^ R] = [P, Q1] ^ R + (-1)^{(p-1) deg Q1} Q1 ^ [P, R]
        total = Multivector.zero(chart, max(p + q - 1, 0))
        for jdx, g in Q.comps.items():
            q1 = _vector(chart, jdx[0], g)
            r = Multivector(chart, q - 1, {jdx[1:]: Poly.one(chart)})
            term = schouten_oracle(P, q1).wedge(r)
            term2 = q1.wedge(schouten_oracle(P, r)).scale(sgn(p - 1))
            total = total + term + term2
        return total
    # q <= 1 and p >= 2: flip; the inner call splits its second argument
    return schouten_oracle(Q, P).scale(-sgn((p - 1) * (q - 1)))


def contract_oracle(xi: Form, P: Multivector) -> Multivector:
    """Interior product by expanding the antisymmetrized definition:
    i_xi(X_1 ^ ... ^ X_p) = sum_a (-1)^{a-1} xi(X_a) X_1 ^ ..hat a.. ^ X_p,
    applied to frame decomposables."""
    chart = P.chart
    out = Multivector.zero(chart, P.degree - 1)
    for idx, coeff in P.comps.items():
        for a, k in enumerate(idx, start=1):
            pair = xi.component((k,))
            if pair.is_zero():
                continue
            rest = Multivector(chart, P.degree - 1,
                               {idx[:a - 1] + idx[a:]: coeff * pair})
            out = out + rest.scale(sgn(a - 1))
    return out


# ----------------------------------------------------------------------
# Chevalley-Eilenberg differential of one algebroid

def ce_differential(algebroid, comps: dict, degree: int) -> dict:
    """d alpha on frame tuples, for alpha given by components on increasing
    index tuples over the algebroid frame."""
    rank = algebroid.rank
    chart = algebroid.chart
    out = {}
    for idx_out in combinations(range(rank), degree + 1):
        total = Poly.zero(chart)
        for t, s in enumerate(idx_out):
            rest = idx_out[:t] + idx_out[t + 1:]
            base = comps.get(rest)
            if base is not None and not base.is_zero():
                term = algebroid.anchor_apply(algebroid.frame_section(s), base)
                total = total + (term if t % 2 == 0 else -term)
        for t in range(degree + 1):
            for u in range(t + 1, degree + 1):
                rest = tuple(v for w, v in enumerate(idx_out)
                             if w not in (t, u))
                section = algebroid.structure[idx_out[t]][idx_out[u]]
                for m, coeff in enumerate(section):
                    if coeff.is_zero():
                        continue
                    merged = insert_index(m, rest)
                    if merged is None:
                        continue
                    key, insign = merged
                    base = comps.get(key)
                    if base is None or base.is_zero():
                        continue
                    term = coeff * base
                    total = total + term.scale(sgn(t + u) * insign)
        if not total.is_zero():
            out[idx_out] = total
    return out


def bicochain_as_total(cochain, mp):
    """A (k,l) BiCochain as a degree k+l cochain of the direct sum
    algebroid (A indices first)."""
    ra = mp.A.rank
    out = {}
    for (I, J), poly in cochain.comps.items():
        idx = tuple(I) + tuple(ra + j for j in J)
        out[idx] = poly
    return out


def total_as_bicochain_parts(total_comps, mp, k, l):
    """Split a degree-(k+l+1) direct-sum cochain into its (k+1, l) and
    (k, l+1) components."""
    ra = mp.A.rank
    part_a = {}
    part_b = {}
    for idx, poly in total_comps.items():
        I = tuple(s for s in idx if s < ra)
        J = tuple(s - ra for s in idx if s >= ra)
        if len(I) == k + 1 and len(J) == l:
            part_a[(I, J)] = poly
        elif len(I) == k and len(J) == l + 1:
            part_b[(I, J)] = poly
    return part_a, part_b


# ----------------------------------------------------------------------
# the double-complex coboundary, evaluated on frame arguments

def _eval_with_replacement(comps, I, J, slot_pos, section):
    """Sum of section[m] * alpha(I, J with slot slot_pos replaced by frame
    m), expanded with antisymmetrization signs; alpha is given by comps."""
    total = None
    rest = J[:slot_pos] + J[slot_pos + 1:]
    slot_sign = -1 if slot_pos % 2 else 1
    for m, coeff in enumerate(section):
        if coeff.is_zero():
            continue
        merged = insert_index(m, rest)
        if merged is None:
            continue
        key, sign = merged
        comp = comps.get((I, key))
        if comp is None:
            continue
        term = coeff * comp
        term = term if sign * slot_sign > 0 else -term
        total = term if total is None else total + term
    return total


def _eval_with_first_insertion(comps, section, rest, J):
    """Sum of section[m] * alpha((m, rest...), J), with the insertion sign
    of m into rest; alpha is given by comps."""
    total = None
    for m, coeff in enumerate(section):
        if coeff.is_zero():
            continue
        merged = insert_index(m, rest)
        if merged is None:
            continue
        key, sign = merged
        comp = comps.get((key, J))
        if comp is None:
            continue
        term = coeff * comp
        term = term if sign > 0 else -term
        total = term if total is None else total + term
    return total


def coboundary_reference(mp, comps: dict, k: int, l: int) -> dict:
    """The A-direction coboundary of the (k, l) cochain alpha whose nonzero
    components comps are keyed (A-indices, B-indices); returns the
    components of the (k + 1, l) image.

    On frame arguments (A_0..A_k, B_1..B_l):
    sum_i (-1)^i [ a(A_i) alpha(..hat A_i.., B..)
                   - sum_j alpha(..hat A_i.., B_1, .., nabla_{A_i} B_j, ..) ]
    + sum_{i<j} (-1)^{i+j} alpha([A_i,A_j], ..hat A_i..hat A_j.., B..).
    """
    a = mp.A
    gamma = mp.nablaAB.gamma
    chart = a.chart
    out = {}
    for I_out in combinations(range(a.rank), k + 1):
        for J_out in combinations(range(mp.B.rank), l):
            total = Poly.zero(chart)
            for t, i in enumerate(I_out):
                rest = I_out[:t] + I_out[t + 1:]
                sign = -1 if t % 2 else 1
                base = comps.get((rest, J_out))
                if base is not None:
                    term = a.anchor_apply(a.frame_section(i), base)
                    total = total + (term if sign > 0 else -term)
                for s, j in enumerate(J_out):
                    term = _eval_with_replacement(comps, rest, J_out, s,
                                                  gamma[i][j])
                    if term is not None:
                        total = total - (term if sign > 0 else -term)
            for t in range(len(I_out)):
                for u in range(t + 1, len(I_out)):
                    rest = tuple(v for w, v in enumerate(I_out)
                                 if w not in (t, u))
                    sign = -1 if (t + u) % 2 else 1
                    section = a.structure[I_out[t]][I_out[u]]
                    term = _eval_with_first_insertion(comps, section,
                                                      rest, J_out)
                    if term is not None:
                        total = total + (term if sign > 0 else -term)
            if not total.is_zero():
                out[(I_out, J_out)] = total
    return out


def partial_A_reference(cochain):
    mp = cochain.mp
    comps = coboundary_reference(mp, cochain.comps, cochain.k, cochain.l)
    return BiCochain(mp, cochain.k + 1, cochain.l, comps)


def partial_B_reference(cochain):
    """partial_A_reference of the swapped pair, on the components with
    their index tuples exchanged."""
    mp = cochain.mp
    transposed = {(J, I): poly for (I, J), poly in cochain.comps.items()}
    image = coboundary_reference(mp.swapped(), transposed, cochain.l,
                                 cochain.k)
    comps = {(I, J): poly for (J, I), poly in image.items()}
    return BiCochain(mp, cochain.k, cochain.l + 1, comps)


# ----------------------------------------------------------------------
# matrices of a truncation block, basis vector by basis vector

def _basis_cochain(block, cell, key):
    I, J, exps = key
    return BiCochain(block.mp, cell[0], cell[1],
                     {(I, J): Poly.monomial(block.mp.A.chart, exps)})


def cell_matrix_reference(block, cell, direction):
    """The matrix of block.cell_matrix(cell, direction), each column the
    reference coboundary of one basis vector expanded in the target cell's
    basis; raises TruncationError when an image leaves that basis."""
    k, l = cell
    target = (k + 1, l) if direction == "A" else (k, l + 1)
    partial = partial_A_reference if direction == "A" else partial_B_reference
    rows = {key: pos for pos, key in enumerate(block.basis.get(target, []))}
    entries = {}
    for col, key in enumerate(block.basis.get(cell, [])):
        image = partial(_basis_cochain(block, cell, key))
        for (I, J), poly in image.comps.items():
            for exps, coeff in poly.terms.items():
                if (I, J, exps) not in rows:
                    raise TruncationError(
                        "differential escapes the truncated basis; "
                        "choose a compatible truncation")
                entries[(rows[(I, J, exps)], col)] = coeff
    return SparseMatrix(len(rows), len(block.basis.get(cell, [])), entries)


def total_matrix_oracle(block, degree):
    """Entries {(row, col): GQ} and shape of the total differential from
    total degree n to n+1 of a block, image of each basis vector expanded
    in the block's frozen basis order."""
    def offsets(total_degree):
        out = {}
        size = 0
        for cell in sorted(block.basis):
            if sum(cell) == total_degree:
                out[cell] = size
                size += len(block.basis[cell])
        return out, size

    col_offset, ncols = offsets(degree)
    row_offset, nrows = offsets(degree + 1)
    entries = {}
    for (k, l), col_base in col_offset.items():
        for col, key in enumerate(block.basis[(k, l)]):
            cochain = _basis_cochain(block, (k, l), key)
            db = partial_B_reference(cochain)
            for image in (partial_A_reference(cochain), -db if k % 2 else db):
                if image.is_zero():
                    continue
                target = (image.k, image.l)
                items = block.basis[target]
                for (I2, J2), poly in image.comps.items():
                    for exps2, coeff in poly.terms.items():
                        row = items.index((I2, J2, exps2))
                        entries[(row_offset[target] + row,
                                 col_base + col)] = coeff
    return (nrows, ncols), entries


class FractionGQ:
    """A Gaussian rational a + bi with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(value) -> "FractionGQ":
        if isinstance(value, FractionGQ):
            return value
        return FractionGQ(value)

    @staticmethod
    def i() -> "FractionGQ":
        return FractionGQ(0, 1)

    def __add__(self, other):
        other = FractionGQ.of(other)
        return FractionGQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = FractionGQ.of(other)
        return FractionGQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return FractionGQ.of(other).__sub__(self)

    def __mul__(self, other):
        other = FractionGQ.of(other)
        return FractionGQ(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return FractionGQ(-self.re, -self.im)

    def __truediv__(self, other):
        other = FractionGQ.of(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionGQ((self.re * other.re + self.im * other.im) / norm,
                          (self.im * other.re - self.re * other.im) / norm)

    def __rtruediv__(self, other):
        return FractionGQ.of(other).__truediv__(self)

    def conj(self) -> "FractionGQ":
        return FractionGQ(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionGQ(other)
        if not isinstance(other, FractionGQ):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"FractionGQ({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_fraction_gq(self)


def format_fraction_gq(c: FractionGQ) -> str:
    """Canonical string form: '3', '-1/2', 'i', '-i', '3i', '(1/2-3i)'."""
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}i"
    if c.im == 1:
        tail = "+i"
    elif c.im == -1:
        tail = "-i"
    elif c.im > 0:
        tail = f"+{c.im}i"
    else:
        tail = f"{c.im}i"
    return f"({c.re}{tail})"


# ----------------------------------------------------------------------
# conjugation of multivectors, as it was before the merge_indices sign

def multivector_conj_reference(P: Multivector) -> Multivector:
    """Conjugate multivector: swap z/zb frame slots, conjugate coefficients."""
    if not P.chart.is_complex():
        raise ChartError("conjugation requires a complex chart")
    n = P.chart.n
    comps = {}
    for idx, coeff in P.comps.items():
        swapped = tuple(k + n if k < n else k - n for k in idx)
        order = sorted(range(len(swapped)), key=lambda t: swapped[t])
        sign = _permutation_sign(order)
        poly = coeff.conj()
        if sign < 0:
            poly = -poly
        _accumulate(comps, tuple(sorted(swapped)), poly)
    return Multivector(P.chart, P.degree, comps)


def _permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ----------------------------------------------------------------------
# fixtures and references moved out of the library

def tangent_algebroid(chart: Chart) -> AlgebroidChart:
    """The tangent algebroid: identity anchor, commuting coordinate frame."""
    m = chart.nvars
    anchor = poly_identity(chart, m)
    zero = [Poly.zero(chart) for _ in range(m)]
    structure = [[list(zero) for _ in range(m)] for _ in range(m)]
    return AlgebroidChart(chart, m, anchor, structure)


def lie_algebra_algebroid(g) -> AlgebroidChart:
    """A LieAlgebraData as the algebroid with zero anchor on the point
    chart real(0)."""
    chart = Chart.real(0)
    anchor = [[] for _ in range(g.rank)]
    structure = [[[Poly.const(chart, v) for v in vec] for vec in row]
                 for row in g.c]
    return AlgebroidChart(chart, g.rank, anchor, structure)


def recompose(pair) -> Multivector:
    """pi_R + i pi_I back on the complex chart (includes the (0,2) part)."""
    cx = Chart.complex(pair.pi_R.chart.n)
    return (convert_alternating(pair.pi_R, cx)
            + convert_alternating(pair.pi_I, cx).scale(GQ(0, 1)))


def realified_cotangent(pi):
    """The underlying real Lie algebroid of the cotangent algebroid,
    on the doubled frame (dz_k, i dz_k), transported to the real chart
    coframe by Re: dz_k -> dx_k, i dz_k -> -dy_k."""
    n = pi.chart.n
    real = Chart.real(n)
    b = cotangent_algebroid(pi)
    half = GQ(Fraction(1, 2))

    def re_part(poly):
        return convert_chart((poly + poly.conj()).scale(half), real)

    def im_part(poly):
        return convert_chart((poly - poly.conj()).scale(GQ(0, Fraction(-1, 2))),
                             real)

    def real_field(v):
        # 2 Re(v) of a complex tangent field, on the real chart
        return convert_alternating(v + multivector_conj(v), real)

    anchor = []
    for k in range(n):
        v = b.anchor_field(b.frame_section(k))
        anchor.append(real_field(v).coefficients())
    for k in range(n):
        v = b.anchor_field(b.frame_section(k)).scale(GQ.i())
        anchor.append(real_field(v).coefficients())

    def bracket_fn(s, t):
        i, j = s % n, t % n
        factor_i = (s >= n) + (t >= n)
        scaled = [p.scale(GQ.i() if factor_i == 1 else
                          GQ(-1) if factor_i == 2 else GQ(1))
                  for p in b.structure[i][j]]
        out = [Poly.zero(real) for _ in range(2 * n)]
        for k in range(n):
            out[k] = re_part(scaled[k])
            out[n + k] = im_part(scaled[k])
        return out

    return AlgebroidChart.from_frame_brackets(real, 2 * n, anchor, bracket_fn)


def conjugate_by_signs(a, signs):
    """The algebroid a in the frame (signs[s] e_s)."""
    anchor = [[p.scale(signs[s]) for p in a.anchor[s]] for s in range(a.rank)]
    structure = [[[a.structure[s][t][r].scale(signs[s] * signs[t] * signs[r])
                   for r in range(a.rank)] for t in range(a.rank)]
                 for s in range(a.rank)]
    return AlgebroidChart(a.chart, a.rank, anchor, structure)
