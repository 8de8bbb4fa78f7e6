"""Lie algebroids over a chart as frame-presented free modules.

An algebroid is given by its anchor matrix (one row per frame section,
columns over the chart tangent frame) and antisymmetric structure functions;
brackets of arbitrary sections follow from the Leibniz rule.  On top of
that sit Nijenhuis deformation, the cotangent algebroid of a holomorphic
Poisson structure (its bracket is the Koszul bracket) and the Koszul
algebroid of a real bivector, Lie-Poisson duality for finite-dimensional
complex Lie algebras, matched pairs with their F/S/T obstruction tensors,
the direct-sum algebroid of a matched pair, and the isomorphism onto the
Dirac structure of the associated generalized complex structure.

The tangent algebroid and a Lie algebra as an algebroid over a point are
test fixtures, in tests/oracles.py; so is the underlying real algebroid
of the cotangent algebroid, which acceptance criterion 9 compares with
the Koszul algebroids of 4 pi_R and 4 pi_I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ChartError, DegreeError, ShapeError, StructureError
from .exactalg import GQ, Chart, Poly
from .linalg import dense_rank, poly_mat_vec
from .multivec import Form, Multivector, lie_derivative, schouten, sharp
from .poisson import (
    GCSection,
    courant_bracket,
    decompose,
    is_holomorphic_poisson,
    koszul_bracket,
    poisson_bracket,
)

QUARTER = GQ(Fraction(1, 4))


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

    @staticmethod
    def _coerce(chart, p):
        if type(p) is not Poly and isinstance(p, (int, GQ, Fraction)):
            return Poly.const(chart, p)
        if p.chart != chart:
            raise ChartError("algebroid data on wrong chart")
        return p

    @staticmethod
    def from_frame_brackets(chart: Chart, rank: int, anchor, bracket_fn):
        structure = [[None] * rank for _ in range(rank)]
        zero = [Poly.zero(chart) for _ in range(rank)]
        for i in range(rank):
            structure[i][i] = list(zero)
            for j in range(i + 1, rank):
                vec = bracket_fn(i, j)
                structure[i][j] = vec
                structure[j][i] = [-p for p in vec]
        return AlgebroidChart(chart, rank, anchor, structure)

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
        comps = {}
        for a in range(self.chart.nvars):
            acc = Poly.zero(self.chart)
            for i in range(self.rank):
                if not section[i].is_zero() and not self.anchor[i][a].is_zero():
                    acc = acc + section[i] * self.anchor[i][a]
            if not acc.is_zero():
                comps[(a,)] = acc
        return Multivector(self.chart, 1, comps)

    def anchor_apply(self, section, f: Poly) -> Poly:
        """Directional derivative rho(section)(f)."""
        out = Poly.zero(self.chart)
        for a in range(self.chart.nvars):
            df = f.diff(a)
            if df.is_zero():
                continue
            for i in range(self.rank):
                coeff = section[i] * self.anchor[i][a]
                if not coeff.is_zero():
                    out = out + coeff * df
        return out

    def bracket(self, u, v):
        """Leibniz-extended bracket of two sections (coefficient lists)."""
        u = self.coerce_section(u)
        v = self.coerce_section(v)
        out = self.zero_section()
        for j in range(self.rank):
            if not v[j].is_zero():
                out[j] = out[j] + self.anchor_apply(u, v[j])
        for i in range(self.rank):
            if not u[i].is_zero():
                out[i] = out[i] - self.anchor_apply(v, u[i])
        for i in range(self.rank):
            if u[i].is_zero():
                continue
            for j in range(self.rank):
                if v[j].is_zero() or i == j:
                    continue
                factor = u[i] * v[j]
                if factor.is_zero():
                    continue
                for k in range(self.rank):
                    ck = self.structure[i][j][k]
                    if not ck.is_zero():
                        out[k] = out[k] + factor * ck
        return out

    def section_is_zero(self, section) -> bool:
        return all(p.is_zero() for p in section)

    def __eq__(self, other):
        if not isinstance(other, AlgebroidChart):
            return NotImplemented
        return (self.chart == other.chart and self.rank == other.rank
                and self.anchor == other.anchor
                and self.structure == other.structure)


class EndoOnAlgebroid:
    """A bundle map A -> A over the identity; matrix[r][c] is the e_r
    coefficient of the image of e_c."""

    __slots__ = ("base", "matrix")

    def __init__(self, base: AlgebroidChart, matrix):
        if len(matrix) != base.rank or any(len(r) != base.rank for r in matrix):
            raise ShapeError("endomorphism matrix must be rank x rank")
        self.base = base
        self.matrix = [[AlgebroidChart._coerce(base.chart, p) for p in row]
                       for row in matrix]

    def apply(self, section):
        return poly_mat_vec(self.matrix, self.base.coerce_section(section))


# ----------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class AlgebroidReport:
    jacobi: bool
    anchor_morphism: bool

    @property
    def all_ok(self) -> bool:
        return self.jacobi and self.anchor_morphism

    def as_dict(self):
        return {"jacobi": self.jacobi, "anchor_morphism": self.anchor_morphism,
                "lie_algebroid": self.all_ok}


def verify_algebroid(a: AlgebroidChart) -> AlgebroidReport:
    """Exact symbolic verification of the algebroid axioms on frames.

    The Leibniz rule holds by construction of the extended bracket, so the
    testable content is the anchor being a bracket morphism and the Jacobi
    identity.
    """
    anchor_ok = True
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            lhs = a.anchor_field(a.structure[i][j])
            rhs = schouten(a.anchor_field(a.frame_section(i)),
                           a.anchor_field(a.frame_section(j)))
            if lhs != rhs:
                anchor_ok = False
                break
        if not anchor_ok:
            break

    jacobi_ok = True
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            for k in range(j + 1, a.rank):
                ei, ej, ek = (a.frame_section(t) for t in (i, j, k))
                total = a.bracket(a.bracket(ei, ej), ek)
                cyc2 = a.bracket(a.bracket(ej, ek), ei)
                cyc3 = a.bracket(a.bracket(ek, ei), ej)
                summed = [x + y + z for x, y, z in zip(total, cyc2, cyc3)]
                if not a.section_is_zero(summed):
                    jacobi_ok = False
                    break
            if not jacobi_ok:
                break
        if not jacobi_ok:
            break
    return AlgebroidReport(jacobi_ok, anchor_ok)


# ----------------------------------------------------------------------
# Nijenhuis deformation

def nijenhuis_torsion_algebroid(a: AlgebroidChart, n: EndoOnAlgebroid):
    """Torsion of N over the algebroid bracket, on frame pairs (i < j)."""
    if n.base is not a and n.base != a:
        raise ShapeError("endomorphism is not over this algebroid")
    out = {}
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            ei, ej = a.frame_section(i), a.frame_section(j)
            nei, nej = n.apply(ei), n.apply(ej)
            inner = [x + y - z for x, y, z in zip(
                a.bracket(nei, ej), a.bracket(ei, nej),
                n.apply(a.bracket(ei, ej)))]
            value = [x - y for x, y in zip(a.bracket(nei, nej),
                                           n.apply(inner))]
            if not a.section_is_zero(value):
                out[(i, j)] = value
    return out


def deform_by(a: AlgebroidChart, n: EndoOnAlgebroid) -> AlgebroidChart:
    """Deformed algebroid (rho o N, [., .]_N); requires vanishing torsion."""
    torsion = nijenhuis_torsion_algebroid(a, n)
    if torsion:
        raise StructureError("nonzero Nijenhuis torsion: deformation "
                             "does not yield a Lie algebroid")
    anchor = []
    for i in range(a.rank):
        anchor.append(a.anchor_field(n.apply(a.frame_section(i))).coefficients())

    def bracket_fn(i, j):
        ei, ej = a.frame_section(i), a.frame_section(j)
        nei, nej = n.apply(ei), n.apply(ej)
        return [x + y - z for x, y, z in zip(
            a.bracket(nei, ej), a.bracket(ei, nej),
            n.apply(a.bracket(ei, ej)))]

    return AlgebroidChart.from_frame_brackets(a.chart, a.rank, anchor,
                                              bracket_fn)


# ----------------------------------------------------------------------
# cotangent algebroid of a holomorphic Poisson structure

def cotangent_algebroid(pi: Multivector) -> AlgebroidChart:
    """The complex Lie algebroid on the holomorphic coframe dz_1..dz_n:
    anchor pi_sharp, bracket the Koszul bracket [xi, eta] = L_{pi# xi} eta
    - L_{pi# eta} xi - d(pi(xi, eta)), where d = dpart as pi(xi, eta) is
    holomorphic."""
    report = is_holomorphic_poisson(pi)
    if not report.holomorphic_poisson:
        raise StructureError(
            f"cotangent algebroid needs a holomorphic Poisson bivector: "
            f"{report.as_dict()}")
    chart = pi.chart
    n = chart.n
    anchor = [sharp(pi, Form.frame(chart, i)).coefficients() for i in range(n)]

    def bracket_fn(i, j):
        value = koszul_bracket(pi, Form.frame(chart, i), Form.frame(chart, j))
        coeffs = value.coefficients()
        if any(not p.is_zero() for p in coeffs[n:]):
            raise StructureError("cotangent bracket left the (1,0) coframe")
        return coeffs[:n]

    return AlgebroidChart.from_frame_brackets(chart, n, anchor, bracket_fn)


def koszul_algebroid(pihat: Multivector) -> AlgebroidChart:
    """The cotangent algebroid of a real bivector on the full coordinate
    coframe: anchor pihat_sharp, bracket the Koszul bracket."""
    if pihat.degree != 2:
        raise DegreeError("koszul_algebroid needs a bivector")
    chart = pihat.chart
    m = chart.nvars
    anchor = [sharp(pihat, Form.frame(chart, i)).coefficients()
              for i in range(m)]

    def bracket_fn(i, j):
        value = koszul_bracket(pihat, Form.frame(chart, i),
                               Form.frame(chart, j))
        return value.coefficients()

    return AlgebroidChart.from_frame_brackets(chart, m, anchor, bracket_fn)


# ----------------------------------------------------------------------
# Lie algebras, Lie-Poisson duality, realification

class LieAlgebraData:
    """Finite-dimensional Lie algebra over GQ constants, with an optional
    complex-structure matrix j."""

    __slots__ = ("rank", "c", "j")

    def __init__(self, rank: int, c, j=None):
        self.rank = rank
        table = [[[GQ.of(v) for v in vec] for vec in row] for row in c]
        if len(table) != rank or any(len(row) != rank for row in table):
            raise ShapeError("structure constant table must be rank x rank")
        for i in range(rank):
            for j_ in range(rank):
                if len(table[i][j_]) != rank:
                    raise ShapeError("structure constant vector too short")
        for i in range(rank):
            if any(not v.is_zero() for v in table[i][i]):
                raise StructureError("c[i][i] must vanish")
            for j_ in range(rank):
                for k in range(rank):
                    if not (table[i][j_][k] + table[j_][i][k]).is_zero():
                        raise StructureError("structure constants not "
                                             "antisymmetric")
        self.c = table
        self.j = None
        if j is not None:
            jm = [[GQ.of(v) for v in row] for row in j]
            if len(jm) != rank or any(len(r) != rank for r in jm):
                raise ShapeError("j matrix must be rank x rank")
            self.j = jm

    @staticmethod
    def from_triples(rank: int, triples, j=None) -> "LieAlgebraData":
        """Build from 1-based [i, j, k, coeff] entries giving c_ij^k."""
        c = [[[GQ(0) for _ in range(rank)] for _ in range(rank)]
             for _ in range(rank)]
        for i, j_, k, coeff in triples:
            value = coeff if isinstance(coeff, GQ) else GQ.of(coeff)
            c[i - 1][j_ - 1][k - 1] = c[i - 1][j_ - 1][k - 1] + value
            c[j_ - 1][i - 1][k - 1] = c[j_ - 1][i - 1][k - 1] - value
        return LieAlgebraData(rank, c, j)

    def bracket(self, u, v):
        """Bilinear bracket of constant coefficient vectors."""
        out = [GQ(0)] * self.rank
        for i in range(self.rank):
            if u[i].is_zero():
                continue
            for j_ in range(self.rank):
                if v[j_].is_zero():
                    continue
                f = u[i] * v[j_]
                for k in range(self.rank):
                    ck = self.c[i][j_][k]
                    if not ck.is_zero():
                        out[k] = out[k] + f * ck
        return out

    def basis(self, i):
        out = [GQ(0)] * self.rank
        out[i] = GQ(1)
        return out

    def j_apply(self, u):
        if self.j is None:
            raise StructureError("no complex structure on this Lie algebra")
        return [sum((self.j[r][c] * u[c] for c in range(self.rank)),
                    GQ(0)) for r in range(self.rank)]

    def jacobi_ok(self) -> bool:
        for i in range(self.rank):
            for j_ in range(i + 1, self.rank):
                for k in range(j_ + 1, self.rank):
                    total = [GQ(0)] * self.rank
                    for u, v, w in ((i, j_, k), (j_, k, i), (k, i, j_)):
                        inner = self.c[u][v]
                        part = self.bracket(inner, self.basis(w))
                        total = [x + y for x, y in zip(total, part)]
                    if any(not v.is_zero() for v in total):
                        return False
        return True

    def j_is_complex_structure(self) -> bool:
        """j^2 = -1 and the bracket is C-linear for j."""
        if self.j is None:
            return False
        r = self.rank
        square = [[sum((self.j[a][t] * self.j[t][b] for t in range(r)), GQ(0))
                   for b in range(r)] for a in range(r)]
        for a in range(r):
            for b in range(r):
                want = GQ(-1) if a == b else GQ(0)
                if square[a][b] != want:
                    return False
        for a in range(r):
            for b in range(r):
                lhs = self.bracket(self.j_apply(self.basis(a)), self.basis(b))
                rhs = self.j_apply(self.c[a][b])
                if any(x != y for x, y in zip(lhs, rhs)):
                    return False
        return True


def lie_poisson(g: LieAlgebraData) -> Multivector:
    """Fiberwise-linear holomorphic Poisson structure on the dual chart:
    {z_i, z_j} = sum_k c_ij^k z_k."""
    if not g.jacobi_ok():
        raise StructureError("structure constants fail the Jacobi identity")
    chart = Chart.complex(g.rank)
    comps = {}
    for i in range(g.rank):
        for j in range(i + 1, g.rank):
            coeff = Poly.zero(chart)
            for k in range(g.rank):
                v = g.c[i][j][k]
                if not v.is_zero():
                    coeff = coeff + Poly.var(chart, k).scale(v)
            if not coeff.is_zero():
                comps[(i, j)] = coeff
    return Multivector(chart, 2, comps)


@dataclass(frozen=True)
class RealifiedLieAlgebra:
    algebroid: AlgebroidChart
    j: EndoOnAlgebroid


def realify_liealgebra(g: LieAlgebraData) -> RealifiedLieAlgebra:
    """Formal realification of a complex Lie algebra given by GQ constants:
    rank doubles, the basis becomes (e_1..e_r, je_1..je_r), the structure
    constants become real, and the doubled j matrix is returned with it."""
    if g.j is not None and not _is_scalar_i(g.j):
        raise StructureError(
            "realification expects the scalar complex structure; "
            "provide the complex presentation")
    if not g.jacobi_ok():
        raise StructureError("structure constants fail the Jacobi identity")
    r = g.rank
    chart = Chart.real(0)
    rank = 2 * r

    def real_vec(complex_vec):
        # a complex combination sum c_k e_k as a real section of the doubling
        out = [Poly.zero(chart)] * rank
        out = list(out)
        for k, v in enumerate(complex_vec):
            out[k] = Poly.const(chart, GQ(v.re))
            out[r + k] = Poly.const(chart, GQ(v.im))
        return out

    zero = [Poly.zero(chart)] * rank
    structure = [[list(zero) for _ in range(rank)] for _ in range(rank)]
    for a in range(r):
        for b in range(r):
            base = g.c[a][b]
            # [e_a, e_b]
            structure[a][b] = real_vec(base)
            # [e_a, je_b] = j [e_a, e_b]
            jbase = [GQ(0, 1) * v for v in base]
            structure[a][r + b] = real_vec(jbase)
            structure[r + a][b] = real_vec(jbase)
            # [je_a, je_b] = -[e_a, e_b]
            structure[r + a][r + b] = real_vec([-v for v in base])
    anchor = [[] for _ in range(rank)]
    algebroid = AlgebroidChart(chart, rank, anchor, structure)
    jm = [[Poly.zero(chart) for _ in range(rank)] for _ in range(rank)]
    for k in range(r):
        jm[r + k][k] = Poly.one(chart)
        jm[k][r + k] = Poly.const(chart, -1)
    return RealifiedLieAlgebra(algebroid, EndoOnAlgebroid(algebroid, jm))


def _is_scalar_i(jm) -> bool:
    r = len(jm)
    for a in range(r):
        for b in range(r):
            want = GQ(0, 1) if a == b else GQ(0)
            if GQ.of(jm[a][b]) != want:
                return False
    return True


def complex_presentation(g: LieAlgebraData) -> LieAlgebraData:
    """Recover a complex presentation from realified data with explicit j.

    When g carries no j (or the scalar one), it already is the complex
    presentation.  Otherwise j must square to -1 and the bracket must be
    C-linear; a complex basis is extracted greedily and the structure
    constants are rewritten over it.
    """
    if g.j is None or _is_scalar_i(g.j):
        return LieAlgebraData(g.rank, g.c)
    if not g.j_is_complex_structure():
        raise StructureError(
            "bracket is not C-linear for the given j (or j^2 != -1)")
    if g.rank % 2:
        raise StructureError("realified data must have even rank")
    r2 = g.rank // 2

    # greedy complex basis: columns are real coordinate vectors
    chosen = []
    span_rows: list = []

    def gq_rows(vectors):
        return [[vec[a] for vec in vectors] for a in range(g.rank)]

    for cand_idx in range(g.rank):
        cand = g.basis(cand_idx)
        trial = chosen + [cand, g.j_apply(cand)]
        if dense_rank(gq_rows(trial)) == len(trial):
            chosen = trial
        if len(chosen) == g.rank:
            break
    if len(chosen) != g.rank:
        raise StructureError("could not extract a complex basis")
    basis_vectors = chosen  # [v1, j v1, v2, j v2, ...]

    from .linalg import gq_mat_inverse
    change = gq_mat_inverse(gq_rows(basis_vectors))

    def in_complex_coords(real_vec):
        # coefficients over (v_a, j v_a) pairs -> complex coefficients
        coords = [sum((change[t][a] * real_vec[a] for a in range(g.rank)),
                      GQ(0)) for t in range(g.rank)]
        out = []
        for a in range(r2):
            alpha = coords[2 * a]
            beta = coords[2 * a + 1]
            out.append(alpha + GQ(0, 1) * beta)
        return out

    c = [[[GQ(0)] * r2 for _ in range(r2)] for _ in range(r2)]
    for a in range(r2):
        for b in range(r2):
            va = basis_vectors[2 * a]
            vb = basis_vectors[2 * b]
            c[a][b] = in_complex_coords(g.bracket(va, vb))
    return LieAlgebraData(r2, c)


@dataclass(frozen=True)
class RealPartsReport:
    factor_re: bool
    factor_im: bool

    @property
    def all_ok(self) -> bool:
        return self.factor_re and self.factor_im

    def as_dict(self):
        return {"factor_re": self.factor_re, "factor_im": self.factor_im,
                "realparts": self.all_ok}


def realparts_liealgebra_check(g: LieAlgebraData) -> RealPartsReport:
    """Verify the quarter-factor identities relating the real and imaginary
    parts of the Lie-Poisson structure to the realified bracket:
    {l'_V, l'_W}_Re = l'_{[V,W]/4} and {l'_V, l'_W}_Im = l'_{-[V,W]_j/4},
    for all pairs of doubled basis vectors."""
    gc = complex_presentation(g)
    pi = lie_poisson(gc)
    pair = decompose(pi)
    real_chart = pair.pi_R.chart
    r = gc.rank

    def lprime(section):
        # e_a -> x_a ; je_a -> -y_a on the transported dual chart
        out = Poly.zero(real_chart)
        for a in range(r):
            if not section[a].is_zero():
                out = out + Poly.var(real_chart, a).scale(section[a])
            if not section[r + a].is_zero():
                out = out - Poly.var(real_chart, r + a).scale(section[r + a])
        return out

    realified = realify_liealgebra(gc)
    doubled = realified.algebroid

    def constant_section(vals):
        return [GQ.of(p.terms.get((), GQ(0))) if hasattr(p, "terms") else p
                for p in vals]

    ok_re = True
    ok_im = True
    for s in range(2 * r):
        for t in range(2 * r):
            es = doubled.frame_section(s)
            et = doubled.frame_section(t)
            bracket = constant_section(doubled.bracket(es, et))
            jbracket = constant_section(
                realified.j.apply(doubled.bracket(es, et)))
            fs = lprime(constant_section(es))
            ft = lprime(constant_section(et))
            lhs_re = poisson_bracket(pair.pi_R, fs, ft)
            rhs_re = lprime([v * QUARTER for v in bracket])
            if lhs_re != rhs_re:
                ok_re = False
            lhs_im = poisson_bracket(pair.pi_I, fs, ft)
            rhs_im = lprime([v * QUARTER * GQ(-1) for v in jbracket])
            if lhs_im != rhs_im:
                ok_im = False
        if not (ok_re or ok_im):
            break
    return RealPartsReport(ok_re, ok_im)


# ----------------------------------------------------------------------
# representations and matched pairs

class RepData:
    """A flat-connection datum: gamma[i][j] is the coefficient vector of
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

    def apply(self, u, s):
        """nabla_u s for sections u of the acting and s of the module
        algebroid; tensorial in u, Leibniz in s."""
        u = self.acting.coerce_section(u)
        s = self.module.coerce_section(s)
        out = self.module.zero_section()
        for j in range(self.module.rank):
            if not s[j].is_zero():
                out[j] = out[j] + self.acting.anchor_apply(u, s[j])
        for i in range(self.acting.rank):
            if u[i].is_zero():
                continue
            for j in range(self.module.rank):
                if s[j].is_zero():
                    continue
                factor = u[i] * s[j]
                if factor.is_zero():
                    continue
                for k, ck in enumerate(self.gamma[i][j]):
                    if not ck.is_zero():
                        out[k] = out[k] + factor * ck
        return out


@dataclass(frozen=True)
class RepReport:
    leibniz: bool
    flat: bool

    @property
    def all_ok(self) -> bool:
        return self.leibniz and self.flat


def check_representation(rep: RepData) -> RepReport:
    """Flatness nabla_[ei,ej] = [nabla_ei, nabla_ej] and the Leibniz rule,
    exactly on frames (with every chart variable as the test function)."""
    a, b = rep.acting, rep.module
    flat = True
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            ei, ej = a.frame_section(i), a.frame_section(j)
            for m in range(b.rank):
                em = b.frame_section(m)
                lhs = rep.apply(a.structure[i][j], em)
                rhs = [x - y for x, y in zip(
                    rep.apply(ei, rep.apply(ej, em)),
                    rep.apply(ej, rep.apply(ei, em)))]
                if any(x != y for x, y in zip(lhs, rhs)):
                    flat = False
                    break
            if not flat:
                break
        if not flat:
            break

    leibniz = True
    chart = a.chart
    for var in range(chart.nvars):
        f = Poly.var(chart, var)
        for i in range(a.rank):
            ei = a.frame_section(i)
            for m in range(b.rank):
                em = b.frame_section(m)
                scaled = [f * p for p in em]
                lhs = rep.apply(ei, scaled)
                base = rep.apply(ei, em)
                rhs = [f * p for p in base]
                rhs[m] = rhs[m] + a.anchor_apply(ei, f)
                if any(x != y for x, y in zip(lhs, rhs)):
                    leibniz = False
                    break
            if not leibniz:
                break
        if not leibniz:
            break
    return RepReport(leibniz, flat)


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


class MatchedPairTensors:
    """The F/S/T obstruction tensors evaluated on frames."""

    __slots__ = ("F", "S", "T")

    def __init__(self, F, S, T):
        self.F = F
        self.S = S
        self.T = T

    @property
    def all_zero(self) -> bool:
        return not self.F and not self.S and not self.T


def matched_pair_F(mp: MatchedPairData, x, y) -> Multivector:
    """F(X;Y) = [a(X), b(Y)] + a(nabla_Y X) - b(nabla_X Y)."""
    ax = mp.A.anchor_field(x)
    by = mp.B.anchor_field(y)
    return (schouten(ax, by)
            + mp.A.anchor_field(mp.nablaBA.apply(y, x))
            - mp.B.anchor_field(mp.nablaAB.apply(x, y)))


def matched_pair_S(mp: MatchedPairData, x, y1, y2):
    """S(X;Y1,Y2) = [nabla_X Y1, Y2] + [Y1, nabla_X Y2] - nabla_X [Y1,Y2]
    + nabla_{nabla_{Y2} X} Y1 - nabla_{nabla_{Y1} X} Y2 (a B-section)."""
    b = mp.B
    t1 = b.bracket(mp.nablaAB.apply(x, y1), y2)
    t2 = b.bracket(y1, mp.nablaAB.apply(x, y2))
    t3 = mp.nablaAB.apply(x, b.bracket(y1, y2))
    t4 = mp.nablaAB.apply(mp.nablaBA.apply(y2, x), y1)
    t5 = mp.nablaAB.apply(mp.nablaBA.apply(y1, x), y2)
    return [a + bb - c + d - e for a, bb, c, d, e in zip(t1, t2, t3, t4, t5)]


def matched_pair_tensors(mp: MatchedPairData) -> MatchedPairTensors:
    """Evaluate F, S, T on all frame combinations; a matched pair is
    exactly the case F = S = T = 0."""
    rep_ab = check_representation(mp.nablaAB)
    rep_ba = check_representation(mp.nablaBA)
    if not (rep_ab.all_ok and rep_ba.all_ok):
        raise StructureError("matched-pair data: representations are not flat")
    F = {}
    for i in range(mp.A.rank):
        for j in range(mp.B.rank):
            value = matched_pair_F(mp, mp.A.frame_section(i),
                                   mp.B.frame_section(j))
            if not value.is_zero():
                F[(i, j)] = value
    return MatchedPairTensors(F, _s_tensor(mp), _s_tensor(mp.swapped()))


def _s_tensor(mp: MatchedPairData) -> dict:
    """The nonzero values of S on frames, keyed (i, j1, j2) with j1 < j2;
    on the swapped pair these are the values of T."""
    S = {}
    for i in range(mp.A.rank):
        for j1 in range(mp.B.rank):
            for j2 in range(j1 + 1, mp.B.rank):
                value = matched_pair_S(mp, mp.A.frame_section(i),
                                       mp.B.frame_section(j1),
                                       mp.B.frame_section(j2))
                if not mp.B.section_is_zero(value):
                    S[(i, j1, j2)] = value
    return S


def bowtie(mp: MatchedPairData) -> AlgebroidChart:
    """The direct-sum algebroid of a matched pair: anchor a(X) + b(Y) and
    bracket ([X1,X2] + nabla_{Y1}X2 - nabla_{Y2}X1) + ([Y1,Y2]
    + nabla_{X1}Y2 - nabla_{X2}Y1)."""
    tensors = matched_pair_tensors(mp)
    if not tensors.all_zero:
        raise StructureError("not a matched pair: F/S/T do not vanish")
    ra, rb = mp.A.rank, mp.B.rank
    chart = mp.A.chart
    anchor = []
    for i in range(ra):
        anchor.append(mp.A.anchor_field(mp.A.frame_section(i)).coefficients())
    for j in range(rb):
        anchor.append(mp.B.anchor_field(mp.B.frame_section(j)).coefficients())

    def bracket_fn(s, t):
        if s < ra and t < ra:
            a_part = mp.A.structure[s][t]
            b_part = mp.B.zero_section()
        elif s >= ra and t >= ra:
            a_part = mp.A.zero_section()
            b_part = mp.B.structure[s - ra][t - ra]
        else:
            x = mp.A.frame_section(s)
            y = mp.B.frame_section(t - ra)
            a_part = [-p for p in mp.nablaBA.apply(y, x)]
            b_part = mp.nablaAB.apply(x, y)
        return list(a_part) + list(b_part)

    return AlgebroidChart.from_frame_brackets(chart, ra + rb, anchor,
                                              bracket_fn)


# ----------------------------------------------------------------------
# the canonical matched pair of a holomorphic Poisson structure

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
    return AlgebroidChart(chart, n, anchor, structure)


def canonical_matched_pair(pi: Multivector) -> MatchedPairData:
    """(T^{0,1}X, (T^{1,0}X)*_pi): the antiholomorphic tangent algebroid
    acting on the cotangent algebroid by the Lie derivative and the
    cotangent algebroid acting back through pr^{0,1} of the bracket with
    the anchor image."""
    chart = pi.chart
    n = chart.n
    a = antiholomorphic_tangent(chart)
    b = cotangent_algebroid(pi)

    gamma_ab = []
    for i in range(n):
        row = []
        xbar = Multivector.frame(chart, n + i)
        for j in range(n):
            value = lie_derivative(xbar, Form.frame(chart, j))
            coeffs = value.coefficients()
            if any(not p.is_zero() for p in coeffs[n:]):
                raise StructureError("Lie-derivative action left the "
                                     "(1,0) coframe")
            row.append(coeffs[:n])
        gamma_ab.append(row)
    nabla_ab = RepData(a, b, gamma_ab)

    gamma_ba = []
    for j in range(n):
        row = []
        rho_j = b.anchor_field(b.frame_section(j))
        for i in range(n):
            value = schouten(rho_j, Multivector.frame(chart, n + i))
            coeffs = value.coefficients()
            row.append(coeffs[n:])
        gamma_ba.append(row)
    nabla_ba = RepData(b, a, gamma_ba)

    return MatchedPairData(a, b, nabla_ab, nabla_ba)


@dataclass(frozen=True)
class YaoReport:
    anchors: bool
    vector_vector: bool
    form_form: bool
    mixed: bool

    @property
    def all_ok(self) -> bool:
        return self.anchors and self.vector_vector and self.form_form and self.mixed

    def as_dict(self):
        return {"anchors": self.anchors, "vector_vector": self.vector_vector,
                "form_form": self.form_form, "mixed": self.mixed,
                "yao_isomorphism": self.all_ok}


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
    pairs."""
    n = pi.chart.n
    mp = canonical_matched_pair(pi)
    d = bowtie(mp)
    anchors_ok = True
    for s in range(2 * n):
        section = d.frame_section(s)
        if d.anchor_field(section) != yao_phi(pi, section).vec:
            anchors_ok = False
            break

    results = {"vv": True, "ff": True, "mx": True}
    for s in range(2 * n):
        for t in range(s + 1, 2 * n):
            lhs = courant_bracket(yao_phi(pi, d.frame_section(s)),
                                  yao_phi(pi, d.frame_section(t)))
            rhs = yao_phi(pi, d.structure[s][t])
            ok = (lhs.vec == rhs.vec and lhs.form == rhs.form)
            if s < n and t < n:
                results["vv"] = results["vv"] and ok
            elif s >= n and t >= n:
                results["ff"] = results["ff"] and ok
            else:
                results["mx"] = results["mx"] and ok
    return YaoReport(anchors_ok, results["vv"], results["ff"], results["mx"])
