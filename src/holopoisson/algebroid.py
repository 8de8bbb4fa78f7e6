"""Lie algebroids over a chart as frame-presented free modules.

An algebroid is given by its anchor matrix (one row per frame section,
columns over the chart tangent frame) and antisymmetric structure functions;
brackets of arbitrary sections follow from the Leibniz rule.  One Leibniz
extension (_leibniz) takes a frame table to sections: the structure
functions to the bracket, and a connection's gamma to its _apply.  On top of
that sit the tangent algebroid of a chart, Nijenhuis deformation, the
cotangent algebroid of a holomorphic Poisson structure (its bracket is
the Koszul bracket) and the Koszul algebroid of any bivector (whose
bracket the koszul command computes), Lie-Poisson duality for
finite-dimensional complex Lie algebras, matched pairs with their F/S/T
obstruction tensors, the direct-sum algebroid of a matched pair, and the
isomorphism onto the Dirac structure of the associated generalized
complex structure.

An endomorphism N of an algebroid, a bundle map over the identity, is
its square Poly matrix: N[r][c] is the e_r coefficient of N e_c, so N
applied to a frame e_c is column c.  A chart endomorphism is one of the
tangent algebroid.

A complex Lie algebra is the algebroid with zero anchor over the point
chart complex(0), whose structure functions are constants (lie_algebra);
a complex structure j on it is a matrix of constant Polys, and LieAlgebra
pairs the two, as a document gives them and as realify_liealgebra
returns them.

A holomorphic Lie algebroid A is the matched pair (T^{0,1}X, A^{1,0}):
holomorphic_matched_pair builds it from A's data on a holomorphic frame,
where both actions are zero on frames, and canonical_matched_pair is the
case A = (T*X)_pi.  A connection is flat or not (check_representation,
which reads gamma); the Leibniz rule holds by construction, as
RepData._apply is the Leibniz extension of gamma.

The public constructors (AlgebroidChart, RepData) check and coerce their
input, once.  The algebroids the module builds itself are valid by
construction and skip that check: from_frame_brackets (the cotangent,
Koszul and bowtie algebroids), tangent_algebroid,
antiholomorphic_tangent and the realification go through
AlgebroidChart._build, and the checks call RepData._apply on sections
that are already coerced.  lie_poisson and realify_liealgebra refuse an
algebra that fails the Jacobi identity, each once per call, and
realparts_liealgebra_check has its algebra checked by lie_poisson.

The structural checks read a frame bracket that is in the data (two
frames: their structure vector; two coordinate coframes: d pi^{ij}) and
evaluate every other frame-level quantity once, into a table.  The
flatness and F/S/T checks and bowtie read the frame table nabla_{e_i} e_m
of each connection, which is its connection data gamma itself: _apply is
tensorial in its acting argument, so nabla along a combination of frames
is the same combination of gamma's rows.
realparts_liealgebra_check takes the antisymmetric identities on the
pairs s < t only, and yao_isomorphism_check takes yao_phi of each bowtie
frame once.

Nijenhuis deformation by an endomorphism N builds the deformed frame
brackets [e_i, e_j]_N from the frame data alone (_deformation), and the
torsion from them only where it is asked for.  It is the one torsion of
the package: a chart endomorphism's is its torsion on tangent_algebroid,
and poisson.pn_check reads Poisson-Nijenhuis compatibility as the
deformation of the Koszul algebroid of pi_I by N* (Kosmann-Schwarzbach
and Magri).

The underlying real algebroid of the cotangent algebroid is a test
fixture, in tests/oracles.py, which acceptance criterion 9 compares with
the Koszul algebroids of 4 pi_R and 4 pi_I.
"""

from __future__ import annotations

from .errors import ChartError, DegreeError, Record, ShapeError, StructureError
from .exactalg import GQ, Chart, Poly, _coordinate_images, _normal, is_scalar
from .linalg import (
    dense_rank,
    gq_mat_inverse,
    poly_combine,
    poly_identity,
    poly_mat_squares_to_minus_identity,
    poly_mat_transpose,
)
from .multivec import (
    Form,
    Multivector,
    differential,
    pairing,
    schouten,
    sharp,
    sharp_matrix,
)
from .poisson import (
    GCSection,
    complex_parts,
    courant_bracket,
    is_holomorphic_poisson,
)

QUARTER = GQ(1) / 4


class AlgebroidChart:
    """Free-module Lie algebroid presented by frame data.

    anchor[i] is the tangent-frame coefficient row of rho(e_i); structure
    c[i][j] is the coefficient vector of [e_i, e_j], antisymmetric with
    zero diagonal.  Sections are coefficient lists of Poly.
    """

    __slots__ = ("chart", "rank", "anchor", "structure")

    def __init__(self, chart: Chart, rank: int, anchor, structure):
        if rank < 0:
            raise ShapeError("rank must be >= 0")
        if len(anchor) != rank:
            raise ShapeError("anchor needs one row per frame section")
        rows = []
        for row in anchor:
            row = [self._coerce(chart, p) for p in row]
            if len(row) != chart.nvars:
                raise ShapeError("anchor row length must equal tangent rank")
            rows.append(row)
        c = [[None] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(rank):
                vec = [self._coerce(chart, p) for p in structure[i][j]]
                if len(vec) != rank:
                    raise ShapeError("structure vector has wrong length")
                c[i][j] = vec
        for i in range(rank):
            if any(not p.is_zero() for p in c[i][i]):
                raise StructureError("structure functions need c[i][i] = 0")
            for j in range(i + 1, rank):
                if any(not (x + y).is_zero()
                       for x, y in zip(c[i][j], c[j][i])):
                    raise StructureError("structure functions not antisymmetric")
        self.chart = chart
        self.rank = rank
        self.anchor = rows
        self.structure = c

    @classmethod
    def _build(cls, chart: Chart, rank: int, anchor, structure):
        """The algebroid of data that is valid by construction: anchor rows
        of chart.nvars Polys, structure vectors of rank Polys on the chart,
        antisymmetric with a zero diagonal.  Neither checked nor copied."""
        a = cls.__new__(cls)
        a.chart = chart
        a.rank = rank
        a.anchor = anchor
        a.structure = structure
        return a

    @staticmethod
    def _coerce(chart, p):
        if type(p) is not Poly and is_scalar(p):
            return Poly.const(chart, p)
        if p.chart is not chart:
            raise ChartError("algebroid data on wrong chart")
        return p

    @staticmethod
    def from_frame_brackets(chart: Chart, rank: int, anchor, bracket_fn):
        """The algebroid whose bracket [e_i, e_j], i < j, is bracket_fn(i, j),
        for the library's own frame data: anchor rows and bracket vectors
        of Polys on the chart, of the right lengths.  Antisymmetry and the
        zero diagonal hold by construction, so nothing is re-checked."""
        structure = [[None] * rank for _ in range(rank)]
        zero = [Poly.zero(chart) for _ in range(rank)]
        for i in range(rank):
            structure[i][i] = list(zero)
            for j in range(i + 1, rank):
                vec = bracket_fn(i, j)
                structure[i][j] = vec
                structure[j][i] = [-p for p in vec]
        return AlgebroidChart._build(chart, rank, anchor, structure)

    # ------------------------------------------------------------------

    def zero_section(self):
        return [Poly.zero(self.chart) for _ in range(self.rank)]

    def frame_section(self, i: int):
        out = self.zero_section()
        out[i] = Poly.one(self.chart)
        return out

    def coerce_section(self, coeffs):
        out = [self._coerce(self.chart, p) for p in coeffs]
        if len(out) != self.rank:
            raise ShapeError("section has wrong rank")
        return out

    def anchor_field(self, section) -> Multivector:
        """rho applied to a section, as a tangent vector field."""
        section = self.coerce_section(section)
        rows = [(s, row) for s, row in zip(section, self.anchor) if s.terms]
        comps = {}
        for a in range(self.chart.nvars):
            acc = Poly.zero(self.chart)
            for s, row in rows:
                if row[a].terms:
                    acc = acc + s * row[a]
            if not acc.is_zero():
                comps[(a,)] = acc
        return Multivector(self.chart, 1, comps)

    def anchor_apply(self, section, f: Poly) -> Poly:
        """Directional derivative rho(section)(f).  Only the section's
        nonzero entries are visited, and f is differentiated only along
        the anchor columns they reach."""
        out = Poly.zero(self.chart)
        rows = [(s, row) for s, row in zip(section, self.anchor) if s.terms]
        if not rows:
            return out
        for a in range(self.chart.nvars):
            reached = [(s, row[a]) for s, row in rows if row[a].terms]
            if not reached:
                continue
            df = f.diff(a)
            if not df.terms:
                continue
            for s, entry in reached:
                out = out + s * entry * df
        return out

    def bracket(self, u, v):
        """Leibniz-extended bracket of two sections (coefficient lists)."""
        return self._bracket(self.coerce_section(u), self.coerce_section(v))

    def _bracket(self, u, v):
        """bracket of two sections already coerced: Poly lists of the
        rank on this chart (frames, structure vectors, images of them).
        _leibniz with the structure functions as the table, less
        sum_i rho(v)(u_i) e_i."""
        out = _leibniz(self, self.structure, u, v)
        return [x - self.anchor_apply(v, p) if p.terms else x
                for x, p in zip(out, u)]

    def section_is_zero(self, section) -> bool:
        return all(p.is_zero() for p in section)

    def __eq__(self, other):
        if not isinstance(other, AlgebroidChart):
            return NotImplemented
        return (self.chart == other.chart and self.rank == other.rank
                and self.anchor == other.anchor
                and self.structure == other.structure)


def _leibniz(acting: AlgebroidChart, table, u, s):
    """sum_j rho(u)(s_j) f_j + sum_{i,j} u_i s_j table[i][j]: the Leibniz
    extension of a frame table (table[i][j] the coefficient vector of e_i
    of the acting algebroid on a frame f_j) to coerced sections u and s."""
    out = [Poly.zero(acting.chart)] * len(s)
    support = [j for j, p in enumerate(s) if p.terms]
    for j in support:
        out[j] = out[j] + acting.anchor_apply(u, s[j])
    for i, ui in enumerate(u):
        if not ui.terms:
            continue
        for j in support:
            factor = ui * s[j]
            if not factor.terms:
                continue
            for k, ck in enumerate(table[i][j]):
                if ck.terms:
                    out[k] = out[k] + factor * ck
    return out


def tangent_algebroid(chart: Chart) -> AlgebroidChart:
    """The tangent algebroid: identity anchor, commuting coordinate frame.
    A chart endomorphism N, a square Poly matrix over the coordinate
    tangent frame, is an endomorphism of it, and its torsion there is the
    Nijenhuis torsion of N."""
    m = chart.nvars
    zero = [Poly.zero(chart) for _ in range(m)]
    structure = [[list(zero) for _ in range(m)] for _ in range(m)]
    return AlgebroidChart._build(chart, m, poly_identity(chart, m), structure)


# ----------------------------------------------------------------------
# verification

class AlgebroidReport(Record):
    __slots__ = ("jacobi", "anchor_morphism")
    VERDICT = "lie_algebroid"


def verify_algebroid(a: AlgebroidChart) -> AlgebroidReport:
    """Exact symbolic verification of the algebroid axioms on frames.

    The Leibniz rule holds by construction of the extended bracket, so the
    testable content is the anchor being a bracket morphism and the Jacobi
    identity; the bracket of frames e_i, e_j is read as c[i][j].
    """
    frames = [a.frame_section(i) for i in range(a.rank)]
    fields = [a.anchor_field(e) for e in frames]
    anchor_ok = True
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            lhs = a.anchor_field(a.structure[i][j])
            rhs = schouten(fields[i], fields[j])
            if lhs != rhs:
                anchor_ok = False
                break
        if not anchor_ok:
            break

    jacobi = True
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            for k in range(j + 1, a.rank):
                total = a._bracket(a.structure[i][j], frames[k])
                cyc2 = a._bracket(a.structure[j][k], frames[i])
                cyc3 = a._bracket(a.structure[k][i], frames[j])
                summed = [x + y + z for x, y, z in zip(total, cyc2, cyc3)]
                if not a.section_is_zero(summed):
                    jacobi = False
                    break
            if not jacobi:
                break
        if not jacobi:
            break
    return AlgebroidReport(jacobi, anchor_ok)


# ----------------------------------------------------------------------
# Nijenhuis deformation

def _deformation(a: AlgebroidChart, n):
    """The deformed brackets [e_i, e_j]_N = [N e_i, e_j] + [e_i, N e_j]
    - N[e_i, e_j] on frame pairs (i < j), from the frame data alone.

    With N e_i = sum_c N[c][i] e_c, the Leibniz rule gives
    [e_i, e_j]_N = sum_c (N[c][i] c_cj + N[c][j] c_ic)
    + sum_c (rho(e_i)(N[c][j]) - rho(e_j)(N[c][i])) e_c - N c_ij.
    A constant N (a Lie algebra's j, the standard J) has no derivative
    terms.  N is the rank x rank Poly matrix on a's chart."""
    rank = a.rank
    if len(n) != rank or any(len(row) != rank for row in n):
        raise ShapeError("endomorphism matrix must be rank x rank")
    if any(type(p) is not Poly or p.chart is not a.chart
           for row in n for p in row):
        raise ChartError("endomorphism entries must be Polys on the "
                         "algebroid's chart")
    zero = a.zero_section()
    frames = [a.frame_section(i) for i in range(rank)]
    columns = poly_mat_transpose(n)
    constant = all(p.degree() <= 0 for row in n for p in row)
    brackets = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            value = poly_combine(columns[i],
                                 [row[j] for row in a.structure], zero)
            value = poly_combine(columns[j], a.structure[i], value)
            if not constant:
                value = [x + a.anchor_apply(frames[i], n[c][j])
                         - a.anchor_apply(frames[j], n[c][i])
                         for c, x in enumerate(value)]
            brackets[(i, j)] = poly_combine(
                [-p for p in a.structure[i][j]], columns, value)
    return brackets


def _torsion(a: AlgebroidChart, n, brackets):
    """The nonzero values of the Nijenhuis torsion
    [N e_i, N e_j] - N[e_i, e_j]_N, from the deformed brackets."""
    columns = poly_mat_transpose(n)
    torsion = {}
    for (i, j), deformed in brackets.items():
        value = poly_combine([-p for p in deformed], columns,
                             a._bracket(columns[i], columns[j]))
        if not a.section_is_zero(value):
            torsion[(i, j)] = value
    return torsion


def nijenhuis_torsion_algebroid(a: AlgebroidChart, n):
    """Torsion of the endomorphism N (its square Poly matrix) over the
    algebroid bracket, on frame pairs (i < j)."""
    return _torsion(a, n, _deformation(a, n))


# ----------------------------------------------------------------------
# cotangent algebroid of a holomorphic Poisson structure

def cotangent_algebroid(pi: Multivector) -> AlgebroidChart:
    """The complex Lie algebroid on the holomorphic coframe dz_1..dz_n:
    anchor pi_sharp, bracket the Koszul bracket [xi, eta] = L_{pi# xi} eta
    - L_{pi# eta} xi - d(pi(xi, eta)), where d = dpart as pi(xi, eta) is
    holomorphic: [dz_i, dz_j] is the dz-part of d pi^{ij}."""
    report = is_holomorphic_poisson(pi)
    if not report.all_ok:
        raise StructureError(
            f"cotangent algebroid needs a holomorphic Poisson bivector: "
            f"{report.as_dict()}")
    return _coframe_algebroid(pi, pi.chart.n)


def koszul_algebroid(pihat: Multivector) -> AlgebroidChart:
    """The cotangent algebroid of a bivector on the full coordinate
    coframe of its chart: anchor pihat_sharp, bracket the Koszul bracket."""
    if pihat.degree != 2:
        raise DegreeError("koszul_algebroid needs a bivector")
    return _coframe_algebroid(pihat, pihat.chart.nvars)


def _coframe_algebroid(pi: Multivector, rank: int) -> AlgebroidChart:
    """Anchor pi# and Koszul bracket on the first rank coordinate
    coframes, where [e^i, e^j] = d pi^{ij}.  The anchor row of e^i is
    pi# e^i, column i of the sharp matrix."""
    chart = pi.chart
    anchor = poly_mat_transpose(sharp_matrix(pi))[:rank]
    return AlgebroidChart.from_frame_brackets(
        chart, rank, anchor,
        lambda i, j: differential(pi.component((i, j))).coefficients()[:rank])


# ----------------------------------------------------------------------
# Lie algebras, Lie-Poisson duality, realification

POINT = Chart.complex(0)


def lie_algebra(rank: int, triples) -> AlgebroidChart:
    """A complex Lie algebra: the algebroid with zero anchor over the
    point chart, from 1-based [i, j, k, coeff] entries, each adding coeff
    to c_ij^k and subtracting it from c_ji^k."""
    c = [[[GQ(0)] * rank for _ in range(rank)] for _ in range(rank)]
    for i, j, k, coeff in triples:
        value = GQ.of(coeff)
        c[i - 1][j - 1][k - 1] = c[i - 1][j - 1][k - 1] + value
        c[j - 1][i - 1][k - 1] = c[j - 1][i - 1][k - 1] - value
    return AlgebroidChart(POINT, rank, [[]] * rank, c)


class LieAlgebra(Record):
    """A Lie algebra over a point with its complex structure j, a square
    matrix of constant Polys, or None when it is the complex
    presentation."""

    __slots__ = ("algebroid", "j")


def _constants(section):
    """The constant values of a section over a point."""
    return [p.terms.get((), GQ(0)) for p in section]


def _jacobi(a: AlgebroidChart):
    if not verify_algebroid(a).jacobi:
        raise StructureError("structure constants fail the Jacobi identity")


def lie_poisson(a: AlgebroidChart) -> Multivector:
    """Fiberwise-linear holomorphic Poisson structure on the dual chart of
    a Lie algebra: {z_i, z_j} = sum_k c_ij^k z_k."""
    _jacobi(a)
    chart = Chart.complex(a.rank)
    comps = {}
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            coeff = Poly.zero(chart)
            for k, v in enumerate(_constants(a.structure[i][j])):
                if not v.is_zero():
                    coeff = coeff + Poly.var(chart, k).scale(v)
            if not coeff.is_zero():
                comps[(i, j)] = coeff
    return Multivector(chart, 2, comps)


def realify_liealgebra(a: AlgebroidChart) -> LieAlgebra:
    """Formal realification of a complex Lie algebra: rank doubles, the
    basis becomes (e_1..e_r, je_1..je_r), the structure constants become
    real, and the doubled j matrix is returned with it."""
    _jacobi(a)
    r = a.rank
    chart = Chart.real(0)
    rank = 2 * r

    def real_vec(complex_vec):
        # a complex combination sum c_k e_k as a real section of the doubling
        out = [Poly.zero(chart)] * rank
        for k, v in enumerate(complex_vec):
            out[k] = Poly.const(chart, _normal(v.a, 0, v.d))
            out[r + k] = Poly.const(chart, _normal(v.b, 0, v.d))
        return out

    zero = [Poly.zero(chart)] * rank
    structure = [[list(zero) for _ in range(rank)] for _ in range(rank)]
    for x in range(r):
        for y in range(r):
            base = _constants(a.structure[x][y])
            # [e_x, e_y]
            structure[x][y] = real_vec(base)
            # [e_x, je_y] = j [e_x, e_y]
            jbase = [GQ(0, 1) * v for v in base]
            structure[x][r + y] = real_vec(jbase)
            structure[r + x][y] = real_vec(jbase)
            # [je_x, je_y] = -[e_x, e_y]
            structure[r + x][r + y] = real_vec([-v for v in base])
    anchor = [[] for _ in range(rank)]
    algebroid = AlgebroidChart._build(chart, rank, anchor, structure)
    jm = [[Poly.zero(chart) for _ in range(rank)] for _ in range(rank)]
    for k in range(r):
        jm[r + k][k] = Poly.one(chart)
        jm[k][r + k] = Poly.const(chart, -1)
    return LieAlgebra(algebroid, jm)


def _is_complex_structure(g: LieAlgebra) -> bool:
    """j^2 = -1 and the bracket is C-linear for j: [j e_x, e_y]
    = j [e_x, e_y], where j e_x is column x of j."""
    a, j = g.algebroid, g.j
    if not poly_mat_squares_to_minus_identity(j):
        return False
    frames = [a.frame_section(x) for x in range(a.rank)]
    columns = poly_mat_transpose(j)
    zero = a.zero_section()
    return all(a._bracket(columns[x], frames[y])
               == poly_combine(a.structure[x][y], columns, zero)
               for x in range(a.rank) for y in range(a.rank))


def complex_presentation(g: LieAlgebra) -> AlgebroidChart:
    """Recover a complex presentation from realified data with explicit j.

    When g carries no j (or the scalar one), its algebroid already is the
    complex presentation.  Otherwise j must square to -1 and the bracket
    must be C-linear; a complex basis is extracted greedily and the
    structure constants are rewritten over it.
    """
    a, j = g.algebroid, g.j
    n = a.rank
    if j is None or all(j[x][y] == (GQ(0, 1) if x == y else 0)
                        for x in range(n) for y in range(n)):
        return a
    if not _is_complex_structure(g):
        raise StructureError(
            "bracket is not C-linear for the given j (or j^2 != -1)")
    if n % 2:
        raise StructureError("realified data must have even rank")
    r2 = n // 2

    # greedy complex basis: columns are real coordinate vectors
    chosen = []
    columns = poly_mat_transpose(j)

    def gq_rows(vectors):
        return [[vec[x] for vec in vectors] for x in range(n)]

    for cand_idx in range(n):
        trial = chosen + [_constants(a.frame_section(cand_idx)),
                          _constants(columns[cand_idx])]
        if dense_rank(gq_rows(trial)) == len(trial):
            chosen = trial
        if len(chosen) == n:
            break
    if len(chosen) != n:
        raise StructureError("could not extract a complex basis")
    basis_vectors = chosen  # [v1, j v1, v2, j v2, ...]

    change = gq_mat_inverse(gq_rows(basis_vectors))

    def in_complex_coords(real_vec):
        # coefficients over (v_x, j v_x) pairs -> complex coefficients
        coords = [sum((change[t][x] * real_vec[x] for x in range(n)),
                      GQ(0)) for t in range(n)]
        out = []
        for x in range(r2):
            alpha = coords[2 * x]
            beta = coords[2 * x + 1]
            out.append(alpha + GQ(0, 1) * beta)
        return out

    sections = [a.coerce_section(vec) for vec in basis_vectors]
    c = [[in_complex_coords(_constants(a._bracket(sections[2 * x],
                                                  sections[2 * y])))
          for y in range(r2)] for x in range(r2)]
    return AlgebroidChart(POINT, r2, [[]] * r2, c)


class RealPartsReport(Record):
    __slots__ = ("factor_re", "factor_im")
    VERDICT = "realparts"


def realparts_liealgebra_check(g: LieAlgebra) -> RealPartsReport:
    """Verify the quarter-factor identities relating the real and imaginary
    parts of the Lie-Poisson structure to the realified bracket:
    {l'_V, l'_W}_Re = l'_{[V,W]/4} and {l'_V, l'_W}_Im = l'_{-[V,W]_j/4},
    for all pairs of doubled basis vectors.

    Only the pairs s < t are evaluated: both sides are antisymmetric in
    (V, W), the Poisson brackets because pi_R and pi_I are bivectors and
    the right-hand sides because the brackets are.  d l'(e_s) and the
    Hamiltonian fields pi_R# d l'(e_s), pi_I# d l'(e_s) are tabled once per
    s, so each left-hand side is one pairing {f, g} = <dg, pi# df>.

    Everything is read on the complex chart of the Lie-Poisson structure,
    where complex_parts gives pi_R and pi_I with no chart conversion: the
    identities are between polynomials, which the coordinate change
    z = x + iy carries to the same identities on the real chart.  A
    doubled section with parts (Re w, Im w) over (e_1..e_r, je_1..je_r) is
    the complex combination w, and l' of it is sum_a Re(w_a) x_a
    - Im(w_a) y_a, with x_a and y_a written in z and zb.  The doubled basis
    is u e_x with u = 1 or i, and the realified bracket is C-bilinear, so
    [u e_x, u' e_y] = u u' c_xy and [V, W]_j = [V, jW] = i [V, W] are read
    from gc's structure constants c_xy."""
    gc = complex_presentation(g)
    pair = complex_parts(lie_poisson(gc))
    r = gc.rank
    chart = pair.pi_R.chart
    images = _coordinate_images(Chart.real(r), chart)
    x, y = images[:r], images[r:]

    def lprime(w):
        out = Poly.zero(chart)
        for a, v in enumerate(w):
            if v.a:
                out = out + x[a].scale(_normal(v.a, 0, v.d))
            if v.b:
                out = out - y[a].scale(_normal(v.b, 0, v.d))
        return out

    units = [GQ(1)] * r + [GQ(0, 1)] * r
    dl = [differential(lprime([units[s] if a == s % r else GQ(0)
                               for a in range(r)])) for s in range(2 * r)]
    ham_re = [sharp(pair.pi_R, d) for d in dl]
    ham_im = [sharp(pair.pi_I, d) for d in dl]
    minus_quarter_i = GQ(0, -1) * QUARTER
    ok_re = True
    ok_im = True
    for s in range(2 * r):
        for t in range(s + 1, 2 * r):
            unit = units[s] * units[t]
            bracket = [unit * v
                       for v in _constants(gc.structure[s % r][t % r])]
            lhs_re = pairing(dl[t], ham_re[s])
            rhs_re = lprime([v * QUARTER for v in bracket])
            if lhs_re != rhs_re:
                ok_re = False
            lhs_im = pairing(dl[t], ham_im[s])
            rhs_im = lprime([v * minus_quarter_i for v in bracket])
            if lhs_im != rhs_im:
                ok_im = False
        if not (ok_re or ok_im):
            break
    return RealPartsReport(ok_re, ok_im)


# ----------------------------------------------------------------------
# representations and matched pairs

class RepData:
    """A connection datum: gamma[i][j] is the coefficient vector of
    nabla_{e_i^acting} e_j^module."""

    __slots__ = ("acting", "module", "gamma")

    def __init__(self, acting: AlgebroidChart, module: AlgebroidChart, gamma):
        if acting.chart != module.chart:
            raise ChartError("representation needs a common chart")
        if len(gamma) != acting.rank:
            raise ShapeError("gamma needs one row per acting frame section")
        rows = []
        for row in gamma:
            if len(row) != module.rank:
                raise ShapeError("gamma row has wrong module rank")
            rows.append([module.coerce_section(vec) for vec in row])
        self.acting = acting
        self.module = module
        self.gamma = rows

    def _apply(self, u, s):
        """nabla_u s for sections u of the acting and s of the module
        algebroid, already coerced: Poly lists of the acting and module
        ranks on the common chart (frames, table entries).  It is _leibniz
        with gamma as the table: tensorial in u, Leibniz in s."""
        return _leibniz(self.acting, self.gamma, u, s)


def check_representation(rep: RepData) -> bool:
    """Flatness nabla_[ei,ej] = [nabla_ei, nabla_ej], exactly on frames.

    It reads the frame table nabla_{e_i} e_m, which is the connection data
    gamma[i][m] itself (_apply on two frames adds the anchor term
    rho(e_i)(1) = 0 to 1 * gamma[i][m]).  _apply is tensorial in its first
    argument, so nabla_[ei,ej] e_m = sum_k c_ij^k nabla_{e_k} e_m, and a
    zero table entry is not applied to, since nabla_u 0 = 0.  The Leibniz
    rule needs no check: _apply is the Leibniz extension of gamma.  An
    all-zero table, as both connections of a canonical pair have, is flat
    at once: both sides are zero."""
    a, b, table = rep.acting, rep.module, rep.gamma
    if all(not p.terms for row in table for s in row for p in s):
        return True
    frames = [a.frame_section(i) for i in range(a.rank)]
    columns = [[row[m] for row in table] for m in range(b.rank)]
    zero = b.zero_section()

    def nabla(i, s):
        # nabla_{e_i} s for a table entry s
        if all(x.is_zero() for x in s):
            return zero
        return rep._apply(frames[i], s)

    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            for m in range(b.rank):
                lhs = poly_combine(a.structure[i][j], columns[m], zero)
                rhs = [x - y for x, y in zip(nabla(i, table[j][m]),
                                             nabla(j, table[i][m]))]
                if any(x != y for x, y in zip(lhs, rhs)):
                    return False
    return True


class MatchedPairData:
    """Two algebroids acting on each other by flat connections."""

    __slots__ = ("A", "B", "nablaAB", "nablaBA")

    def __init__(self, A: AlgebroidChart, B: AlgebroidChart,
                 nablaAB: RepData, nablaBA: RepData):
        if nablaAB.acting is not A and nablaAB.acting != A:
            raise ShapeError("nablaAB must be A acting on B")
        if nablaAB.module is not B and nablaAB.module != B:
            raise ShapeError("nablaAB must be A acting on B")
        if nablaBA.acting is not B and nablaBA.acting != B:
            raise ShapeError("nablaBA must be B acting on A")
        if nablaBA.module is not A and nablaBA.module != A:
            raise ShapeError("nablaBA must be B acting on A")
        self.A = A
        self.B = B
        self.nablaAB = nablaAB
        self.nablaBA = nablaBA

    def swapped(self) -> "MatchedPairData":
        """The same matched pair with the roles of A and B exchanged."""
        return MatchedPairData(self.B, self.A, self.nablaBA, self.nablaAB)


class MatchedPairTensors(Record):
    """The F/S/T obstruction tensors evaluated on frames."""

    __slots__ = ("F", "S", "T")

    @property
    def all_zero(self) -> bool:
        return not self.F and not self.S and not self.T


def matched_pair_tensors(mp: MatchedPairData) -> MatchedPairTensors:
    """Evaluate F, S, T on all frame combinations; a matched pair is
    exactly the case F = S = T = 0.  Both connections must be flat, and
    F, S and T read their frame tables, the connection data gamma."""
    if not (check_representation(mp.nablaAB)
            and check_representation(mp.nablaBA)):
        raise StructureError("matched-pair data: representations are not flat")
    ab, ba = mp.nablaAB.gamma, mp.nablaBA.gamma
    return MatchedPairTensors(_f_tensor(mp, ab, ba), _s_tensor(mp, ab, ba),
                              _s_tensor(mp.swapped(), ba, ab))


def _f_tensor(mp: MatchedPairData, ab, ba) -> dict:
    """The nonzero values of F(X;Y) = [a(X), b(Y)] + a(nabla_Y X)
    - b(nabla_X Y) on frames, keyed (i, j), from the anchor fields of the
    frames, each taken once, and the frame tables ab = nabla_{e_i} f_j and
    ba = nabla_{f_j} e_i; a zero table entry drops its anchor term."""
    a, b = mp.A, mp.B
    a_fields = [a.anchor_field(a.frame_section(i)) for i in range(a.rank)]
    b_fields = [b.anchor_field(b.frame_section(j)) for j in range(b.rank)]
    F = {}
    for i in range(a.rank):
        for j in range(b.rank):
            value = schouten(a_fields[i], b_fields[j])
            if not a.section_is_zero(ba[j][i]):
                value = value + a.anchor_field(ba[j][i])
            if not b.section_is_zero(ab[i][j]):
                value = value - b.anchor_field(ab[i][j])
            if not value.is_zero():
                F[(i, j)] = value
    return F


def _s_tensor(mp: MatchedPairData, ab, ba) -> dict:
    """The nonzero values of S on frames, keyed (i, j1, j2) with j1 < j2;
    on the swapped pair these are the values of T.  S(X;Y1,Y2) is
    [nabla_X Y1, Y2] + [Y1, nabla_X Y2] - nabla_X [Y1,Y2]
    + nabla_{nabla_{Y2} X} Y1 - nabla_{nabla_{Y1} X} Y2, a B-section, read
    from the frame tables as in _f_tensor.  nabla_{e_i} of a structure
    vector c = sum_k c_k f_k is sum_k rho(e_i)(c_k) f_k + sum_k c_k ab[i][k],
    from anchor row i and the nonzero entries of row i of the table.  By
    tensoriality in the acting argument, nabla_{nabla_{Y} X} Y'
    = sum_m (nabla_Y X)_m nabla_{e_m} Y'.  Each table term is added only
    where its entry is nonzero."""
    a, b = mp.A, mp.B
    zero = Poly.zero(b.chart)
    b_frames = [b.frame_section(j) for j in range(b.rank)]
    columns = [[row[j] for row in ab] for j in range(b.rank)]
    ab_nonzero = [{k: vec for k, vec in enumerate(row)
                   if not b.section_is_zero(vec)} for row in ab]
    ba_nonzero = [[not a.section_is_zero(vec) for vec in row] for row in ba]
    S = {}
    for i in range(a.rank):
        anchor = [(v, p) for v, p in enumerate(a.anchor[i]) if p.terms]
        table = ab_nonzero[i]
        for j1 in range(b.rank):
            for j2 in range(j1 + 1, b.rank):
                # -nabla_{e_i} [f_j1, f_j2]
                c = b.structure[j1][j2]
                value = [-_derivative(anchor, p) if p.terms else zero
                         for p in c]
                for k, vec in table.items():
                    if c[k].terms:
                        value = [x - c[k] * y if y.terms else x
                                 for x, y in zip(value, vec)]
                if j1 in table:
                    value = [p + q for p, q in
                             zip(value, b._bracket(table[j1], b_frames[j2]))]
                if j2 in table:
                    value = [p + q for p, q in
                             zip(value, b._bracket(b_frames[j1], table[j2]))]
                if ba_nonzero[j2][i]:
                    value = poly_combine(ba[j2][i], columns[j1], value)
                if ba_nonzero[j1][i]:
                    value = poly_combine([-p for p in ba[j1][i]],
                                         columns[j2], value)
                if not b.section_is_zero(value):
                    S[(i, j1, j2)] = value
    return S


def _derivative(anchor, f: Poly) -> Poly:
    """rho(e)(f) for the nonzero entries (v, p) of e's anchor row."""
    out = Poly.zero(f.chart)
    for v, p in anchor:
        df = f.diff(v)
        if df.terms:
            out = out + p * df
    return out


def bowtie(mp: MatchedPairData) -> AlgebroidChart:
    """The direct-sum algebroid of a matched pair: anchor a(X) + b(Y) and
    bracket ([X1,X2] + nabla_{Y1}X2 - nabla_{Y2}X1) + ([Y1,Y2]
    + nabla_{X1}Y2 - nabla_{X2}Y1), on frames (A first) read from A's and
    B's data and the frame tables (gamma) of the connections."""
    if not matched_pair_tensors(mp).all_zero:
        raise StructureError("not a matched pair: F/S/T do not vanish")
    ab, ba = mp.nablaAB.gamma, mp.nablaBA.gamma
    ra = mp.A.rank

    def frame_bracket(s, t):
        if t < ra:
            return mp.A.structure[s][t] + mp.B.zero_section()
        if s >= ra:
            return mp.A.zero_section() + mp.B.structure[s - ra][t - ra]
        return [-p for p in ba[t - ra][s]] + ab[s][t - ra]

    return AlgebroidChart.from_frame_brackets(
        mp.A.chart, ra + mp.B.rank, mp.A.anchor + mp.B.anchor, frame_bracket)


# ----------------------------------------------------------------------
# the matched pair of a holomorphic Lie algebroid

def antiholomorphic_tangent(chart: Chart) -> AlgebroidChart:
    """T^{0,1}X on the chart: frame d/dzb_k, zero structure functions."""
    if not chart.is_complex():
        raise ChartError("needs a complex chart")
    n = chart.n
    anchor = []
    for k in range(n):
        row = [Poly.zero(chart) for _ in range(chart.nvars)]
        row[n + k] = Poly.one(chart)
        anchor.append(row)
    zero = [Poly.zero(chart) for _ in range(n)]
    structure = [[list(zero) for _ in range(n)] for _ in range(n)]
    return AlgebroidChart._build(chart, n, anchor, structure)


def holomorphic_matched_pair(b: AlgebroidChart) -> MatchedPairData:
    """(T^{0,1}X, A^{1,0}) for the holomorphic Lie algebroid A that b
    presents on a holomorphic frame e_1..e_r of A^{1,0}.

    Both actions are zero on frames.  T^{0,1} acts by dbar, which kills a
    holomorphic frame: nabla_{d/dzb_i} e_j = 0.  A^{1,0} acts by
    nabla_{e_j} d/dzb_i = pr^{0,1}[rho(e_j), d/dzb_i], and with
    rho(e_j) = sum_k rho_j^k d/dz_k that bracket is
    -sum_k d/dzb_i(rho_j^k) d/dz_k, which has no (0,1) part.  So zero is
    the right table exactly when every anchor row lies in T^{1,0}: a real
    chart raises ChartError and a d/dzb entry in the anchor raises
    StructureError.  Holomorphy of the anchor and of the structure
    functions is not assumed: F and S/T of the pair test it."""
    chart = b.chart
    a = antiholomorphic_tangent(chart)
    n = chart.n
    if any(not p.is_zero() for row in b.anchor for p in row[n:]):
        raise StructureError("anchor has a T^{0,1} entry: not a frame of "
                             "A^{1,0}")
    nabla_ab = RepData(a, b, [[b.zero_section() for _ in range(b.rank)]
                              for _ in range(a.rank)])
    nabla_ba = RepData(b, a, [[a.zero_section() for _ in range(a.rank)]
                              for _ in range(b.rank)])
    return MatchedPairData(a, b, nabla_ab, nabla_ba)


def canonical_matched_pair(pi: Multivector) -> MatchedPairData:
    """(T^{0,1}X, (T^{1,0}X)*_pi): the matched pair of the cotangent
    algebroid on the holomorphic coframe dz_1..dz_n."""
    return holomorphic_matched_pair(cotangent_algebroid(pi))


class YaoReport(Record):
    __slots__ = ("anchors", "vector_vector", "form_form", "mixed")
    VERDICT = "yao_isomorphism"


def yao_phi(pi: Multivector, section) -> GCSection:
    """phi(X01, xi10) = (X01 + pi# xi10, xi10) of a section of the
    bowtie algebroid of canonical_matched_pair(pi) (T^{0,1} frame first),
    as a section of TX + T*X."""
    chart = pi.chart
    n = chart.n
    form = Form(chart, 1, {(j,): section[n + j] for j in range(n)
                           if not section[n + j].is_zero()})
    vec = Multivector(chart, 1, {(n + i,): section[i] for i in range(n)
                                 if not section[i].is_zero()})
    return GCSection(vec + sharp(pi, form), form)


def yao_isomorphism_check(pi: Multivector) -> YaoReport:
    """yao_phi intertwines the bowtie bracket of the canonical matched
    pair with the Courant bracket, checked exactly on all frame-generator
    pairs.  yao_phi of each bowtie frame is taken once, into a table."""
    n = pi.chart.n
    mp = canonical_matched_pair(pi)
    d = bowtie(mp)
    images = [yao_phi(pi, d.frame_section(s)) for s in range(2 * n)]
    anchors_ok = True
    for s in range(2 * n):
        if d.anchor_field(d.frame_section(s)) != images[s].vec:
            anchors_ok = False
            break

    results = {"vv": True, "ff": True, "mx": True}
    for s in range(2 * n):
        for t in range(s + 1, 2 * n):
            lhs = courant_bracket(images[s], images[t])
            rhs = yao_phi(pi, d.structure[s][t])
            ok = (lhs.vec == rhs.vec and lhs.form == rhs.form)
            if s < n and t < n:
                results["vv"] = results["vv"] and ok
            elif s >= n and t >= n:
                results["ff"] = results["ff"] and ok
            else:
                results["mx"] = results["mx"] and ok
    return YaoReport(anchors_ok, results["vv"], results["ff"], results["mx"])
