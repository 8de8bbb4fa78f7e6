"""Holomorphic Poisson verification and structure theory.

Covers the real/imaginary decomposition of a (2,0) bivector, the induced
Poisson and Koszul brackets, Poisson-Nijenhuis compatibility against an
almost complex structure, the generalized complex endomorphism with its
Dirac structure, the antisymmetrized Courant bracket, inversion of
constant symplectic forms and pointwise foliation ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ChartError, DegreeError, ShapeError, StructureError
from .exactalg import GQ, Chart, Poly, _accumulate
from .linalg import (
    column_space_equal,
    dense_rank,
    gq_mat_inverse,
    poly_mat_eq,
    poly_mat_eval,
    poly_mat_mul,
    poly_mat_scale,
    poly_mat_sub,
    poly_mat_transpose,
    poly_mat_vec,
    poly_zero_matrix,
)
from .multivec import (
    Form,
    Multivector,
    convert_alternating,
    differential,
    exterior_d,
    lie_derivative,
    merge_indices,
    pairing,
    schouten,
    sharp,
    sharp_matrix,
)

HALF = Fraction(1, 2)


# ----------------------------------------------------------------------
# endomorphism fields

class EndoField:
    """A (1,1)-tensor over the coordinate tangent frame.

    matrix[r][c] is the coefficient of frame vector r in the image of frame
    vector c.
    """

    __slots__ = ("chart", "matrix")

    def __init__(self, chart: Chart, matrix):
        m = chart.nvars
        if len(matrix) != m or any(len(row) != m for row in matrix):
            raise ShapeError(
                f"endomorphism matrix must be {m}x{m} on {chart}")
        rows = []
        for row in matrix:
            new_row = []
            for entry in row:
                if (type(entry) is not Poly
                        and isinstance(entry, (int, GQ, Fraction))):
                    entry = Poly.const(chart, entry)
                if entry.chart != chart:
                    raise ChartError("matrix entry on wrong chart")
                new_row.append(entry)
            rows.append(new_row)
        self.chart = chart
        self.matrix = rows

    def apply_vec(self, x: Multivector) -> Multivector:
        if x.degree != 1 or x.chart != self.chart:
            raise ShapeError("EndoField acts on degree-1 fields of its chart")
        return Multivector.from_components(
            self.chart, poly_mat_vec(self.matrix, x.coefficients()))

    def apply_form(self, xi: Form) -> Form:
        """The transpose action N* on 1-forms: <N* xi, V> = <xi, N V>."""
        if xi.degree != 1 or xi.chart != self.chart:
            raise ShapeError("EndoField acts on degree-1 forms of its chart")
        return Form.from_components(
            self.chart,
            poly_mat_vec(poly_mat_transpose(self.matrix), xi.coefficients()))


def standard_j(chart: Chart) -> EndoField:
    """The standard almost complex structure.

    On real(n): J dx_k = dy_k, J dy_k = -dx_k (as actions on the frame).
    On complex(n): multiplication by i on the z-block and by -i on the
    zb-block of the complexified frame.
    """
    n = chart.n
    rows = poly_zero_matrix(chart, 2 * n, 2 * n)
    if chart.is_complex():
        for k in range(n):
            rows[k][k] = Poly.const(chart, GQ(0, 1))
            rows[n + k][n + k] = Poly.const(chart, GQ(0, -1))
    else:
        for k in range(n):
            rows[n + k][k] = Poly.one(chart)
            rows[k][n + k] = Poly.const(chart, -1)
    return EndoField(chart, rows)


# ----------------------------------------------------------------------
# reports and small containers

@dataclass(frozen=True)
class HoloPoissonReport:
    dbar_zero: bool
    schouten_zero: bool

    @property
    def holomorphic_poisson(self) -> bool:
        return self.dbar_zero and self.schouten_zero

    def as_dict(self):
        return {"dbar_zero": self.dbar_zero,
                "schouten_zero": self.schouten_zero,
                "holomorphic_poisson": self.holomorphic_poisson}


@dataclass(frozen=True)
class PNReport:
    schouten_zero: bool
    sharp_intertwine: bool
    koszul_compat: bool
    torsion_zero: bool

    @property
    def all_ok(self) -> bool:
        return (self.schouten_zero and self.sharp_intertwine
                and self.koszul_compat and self.torsion_zero)

    def as_dict(self):
        return {"schouten_zero": self.schouten_zero,
                "sharp_intertwine": self.sharp_intertwine,
                "koszul_compat": self.koszul_compat,
                "torsion_zero": self.torsion_zero,
                "poisson_nijenhuis": self.all_ok}


@dataclass(frozen=True)
class FoliationReport:
    rank_R: int
    rank_I: int
    images_equal: bool

    def as_dict(self):
        return {"rank_R": self.rank_R, "rank_I": self.rank_I,
                "images_equal": self.images_equal}


class PoissonPair:
    """Real and imaginary parts of a (2,0) bivector, on the real chart."""

    __slots__ = ("pi_R", "pi_I")

    def __init__(self, pi_R: Multivector, pi_I: Multivector):
        self.pi_R = pi_R
        self.pi_I = pi_I


class GCSection:
    """A section X + xi of TX + T*X."""

    __slots__ = ("vec", "form")

    def __init__(self, vec: Multivector, form: Form):
        if vec.chart != form.chart:
            raise ChartError("vector and form parts on different charts")
        if vec.degree != 1 or form.degree != 1:
            raise DegreeError("GCSection needs degree-1 parts")
        self.vec = vec
        self.form = form


# ----------------------------------------------------------------------
# basic verification

def _require_20(pi: Multivector):
    if not pi.chart.is_complex():
        raise ChartError("expected a bivector on a complex chart")
    if pi.degree != 2:
        raise DegreeError("expected a bivector")
    bid = pi.bidegree()
    if bid not in ((2, 0), None) and not pi.is_zero():
        raise DegreeError(f"expected bidegree (2,0), found {bid}")
    n = pi.chart.n
    if any(k >= n for idx in pi.comps for k in idx):
        raise DegreeError("expected bidegree (2,0): antiholomorphic frame slot")


def is_holomorphic_poisson(pi: Multivector) -> HoloPoissonReport:
    """dbar pi = 0 (coefficients free of zb) and [pi, pi] = 0, exactly."""
    _require_20(pi)
    dbar_zero = all(coeff.is_holomorphic() for coeff in pi.comps.values())
    schouten_zero = schouten(pi, pi).is_zero()
    return HoloPoissonReport(dbar_zero, schouten_zero)


def multivector_conj(P: Multivector) -> Multivector:
    """Conjugate multivector: swap z/zb frame slots, conjugate coefficients."""
    if not P.chart.is_complex():
        raise ChartError("conjugation requires a complex chart")
    n = P.chart.n
    comps = {}
    for idx, coeff in P.comps.items():
        # the holomorphic run of idx becomes antiholomorphic and vice versa;
        # merging the two swapped runs back into order gives the sign
        swapped, sign = merge_indices(tuple(k + n for k in idx if k < n),
                                      tuple(k - n for k in idx if k >= n))
        poly = coeff.conj()
        _accumulate(comps, swapped, poly if sign > 0 else -poly)
    return Multivector(P.chart, P.degree, comps)


def decompose(pi: Multivector) -> PoissonPair:
    """Split pi into real and imaginary parts on the real chart:
    pi_R = (pi + conj pi)/2 and pi_I = (pi - conj pi)/2i."""
    _require_20(pi)
    real_chart = Chart.real(pi.chart.n)
    conj_pi = multivector_conj(pi)
    pi_r = (pi + conj_pi).scale(GQ(HALF))
    pi_i = (pi - conj_pi).scale(GQ(0, -HALF))  # 1/(2i) = -i/2
    return PoissonPair(convert_alternating(pi_r, real_chart),
                       convert_alternating(pi_i, real_chart))


# ----------------------------------------------------------------------
# brackets

def poisson_bracket(pihat: Multivector, f: Poly, g: Poly) -> Poly:
    """{f, g} = pihat(df, dg)."""
    if pihat.degree != 2:
        raise DegreeError("poisson_bracket needs a bivector")
    if f.chart != pihat.chart or g.chart != pihat.chart:
        raise ChartError("chart mismatch")
    return pairing(differential(g), sharp(pihat, differential(f)))


def koszul_bracket(pihat: Multivector, alpha: Form, beta: Form) -> Form:
    """[alpha, beta]_pihat = L_{pihat# alpha} beta - L_{pihat# beta} alpha
    - d(pihat(alpha, beta))."""
    if pihat.degree != 2:
        raise DegreeError("koszul_bracket needs a bivector")
    if alpha.degree != 1 or beta.degree != 1:
        raise DegreeError("koszul_bracket needs 1-forms")
    if alpha.chart != pihat.chart or beta.chart != pihat.chart:
        raise ChartError("chart mismatch")
    sa = sharp(pihat, alpha)
    sb = sharp(pihat, beta)
    return (lie_derivative(sa, beta) - lie_derivative(sb, alpha)
            - exterior_d(Form(pihat.chart, 0, {(): pairing(beta, sa)})))


# ----------------------------------------------------------------------
# Nijenhuis torsion and Poisson-Nijenhuis compatibility

def nijenhuis_torsion_apply(n_field: EndoField, v: Multivector,
                            w: Multivector) -> Multivector:
    """Torsion evaluated on two vector fields:
    [NV, NW] - N([NV, W] + [V, NW] - N [V, W])."""
    nv = n_field.apply_vec(v)
    nw = n_field.apply_vec(w)
    inner = (schouten(nv, w) + schouten(v, nw)
             - n_field.apply_vec(schouten(v, w)))
    return schouten(nv, nw) - n_field.apply_vec(inner)


def nijenhuis_torsion(n_field: EndoField):
    """Torsion tensor on all frame pairs: dict (a, b) -> degree-1 field,
    for a < b.  Antisymmetric by construction."""
    chart = n_field.chart
    m = chart.nvars
    out = {}
    for a in range(m):
        for b in range(a + 1, m):
            value = nijenhuis_torsion_apply(
                n_field, Multivector.frame(chart, a),
                Multivector.frame(chart, b))
            if not value.is_zero():
                out[(a, b)] = value
    return out


def torsion_is_zero(torsion) -> bool:
    return all(v.is_zero() for v in torsion.values())


def bivector_from_matrix(chart: Chart, mat) -> Multivector:
    """Bivector with pi(e^a, e^b) = mat[a][b]; mat must be antisymmetric."""
    comps = {}
    m = chart.nvars
    for a in range(m):
        for b in range(a + 1, m):
            if not mat[a][b].is_zero():
                comps[(a, b)] = mat[a][b]
    return Multivector(chart, 2, comps)


def pn_check(pi_i: Multivector, n_field: EndoField,
             schouten_zero=None) -> PNReport:
    """Poisson-Nijenhuis check of (pi_I, N) on a real chart.

    Checks [pi_I, pi_I] = 0 (unless the caller passes that verdict as
    schouten_zero, see pn_check_complex), N pi# = pi# N* as an exact
    matrix identity, the Koszul compatibility on all coordinate coframe
    pairs (sufficient by tensoriality), and vanishing of the Nijenhuis
    torsion of N.
    """
    if pi_i.chart.is_complex():
        raise ChartError("pn_check runs on the real chart")
    if pi_i.degree != 2:
        raise DegreeError("pn_check needs a bivector")
    if n_field.chart != pi_i.chart:
        raise ChartError("chart mismatch")
    chart = pi_i.chart
    m = chart.nvars
    if schouten_zero is None:
        schouten_zero = schouten(pi_i, pi_i).is_zero()

    msharp = sharp_matrix(pi_i)
    lhs = poly_mat_mul(n_field.matrix, msharp)
    rhs = poly_mat_mul(msharp, poly_mat_transpose(n_field.matrix))
    sharp_intertwine = poly_mat_eq(lhs, rhs)

    torsion_zero = torsion_is_zero(nijenhuis_torsion(n_field))

    # pi_N with pi_N# = pi# N*, i.e. component matrix N Pi (Pi, with
    # Pi[a][b] = pi(e^a, e^b), is the transpose of the sharp matrix),
    # antisymmetrized so the check stays defined when the intertwine
    # identity fails.
    npi = poly_mat_mul(n_field.matrix, poly_mat_transpose(msharp))
    anti = poly_mat_scale(poly_mat_sub(npi, poly_mat_transpose(npi)),
                          GQ(HALF))
    pi_n = bivector_from_matrix(chart, anti)

    koszul_compat = True
    coframe = [Form.frame(chart, k) for k in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            alpha, beta = coframe[a], coframe[b]
            lhs_form = koszul_bracket(pi_n, alpha, beta)
            rhs_form = (koszul_bracket(pi_i, n_field.apply_form(alpha), beta)
                        + koszul_bracket(pi_i, alpha, n_field.apply_form(beta))
                        - n_field.apply_form(koszul_bracket(pi_i, alpha, beta)))
            if lhs_form != rhs_form:
                koszul_compat = False
                break
        if not koszul_compat:
            break
    return PNReport(schouten_zero, sharp_intertwine, koszul_compat,
                    torsion_zero)


def pn_check_complex(pi: Multivector) -> PNReport:
    """pn_check of (pi_I, J) for a (2,0) bivector pi on a complex chart.

    With holomorphic coefficients, [pi_I, pi_I] = 0 is decided by
    [pi, pi] = 0 on the complex chart, which is much cheaper: [pi, conj pi]
    vanishes, so [pi_R, pi_R] = -[pi_I, pi_I] and Re [pi, pi] is a nonzero
    multiple of [pi_I, pi_I]; and the (3,0) field [pi, pi] is determined
    by its real part.  Otherwise the bracket is taken on the real chart.
    """
    pair = decompose(pi)
    schouten_zero = None
    if all(coeff.is_holomorphic() for coeff in pi.comps.values()):
        schouten_zero = schouten(pi, pi).is_zero()
    return pn_check(pair.pi_I, standard_j(pair.pi_I.chart),
                    schouten_zero=schouten_zero)


# ----------------------------------------------------------------------
# generalized complex structure

def gc_endomorphism(pi: Multivector):
    """Block matrix [[J, 4 pi_I#], [0, -J*]] over the real chart frame of
    TX + T*X.

    The factor 4 makes the -i eigenbundle the Dirac structure that phi
    maps the bowtie algebroid onto, the sections (X01 + pi# xi10, xi10).
    The frame conversion d/dz = (d/dx - i d/dy)/2 puts a factor 1/4 into
    pi_R and pi_I (criterion 1: omega_R^-1 = 4 pi_R), and for a (1,0)-form
    pi# xi = 2i pi_I# xi.  With J = i on T^{1,0} and -i on T^{0,1}, the
    top row J X + 4 pi_I# xi = -i X then holds for X = X01 + pi# xi.  The
    unscaled block [[J, pi_I#], [0, -J*]] squares to -1 as well, but its
    -i eigenbundle is not phi's image.
    """
    report = is_holomorphic_poisson(pi)
    if not report.holomorphic_poisson:
        raise StructureError(
            f"gc_endomorphism needs a holomorphic Poisson bivector: {report}")
    n = pi.chart.n
    real_chart = Chart.real(n)
    pair = decompose(pi)
    msharp = poly_mat_scale(sharp_matrix(pair.pi_I), GQ(4))
    j = standard_j(real_chart).matrix
    minus_jt = poly_mat_scale(poly_mat_transpose(j), GQ(-1))
    m = 2 * n
    zero = Poly.zero(real_chart)
    rows = []
    for r in range(m):
        rows.append(list(j[r]) + list(msharp[r]))
    for r in range(m):
        rows.append([zero] * m + list(minus_jt[r]))
    return rows


def gc_eigensection_check(pi: Multivector, section: GCSection) -> bool:
    """The section, transported to the real chart, is a -i eigenvector of
    gc_endomorphism(pi): it lies in the Dirac structure of J_pi."""
    real_chart = Chart.real(pi.chart.n)
    coeffs = (convert_alternating(section.vec, real_chart).coefficients()
              + convert_alternating(section.form, real_chart).coefficients())
    image = poly_mat_vec(gc_endomorphism(pi), coeffs)
    return image == [c.scale(GQ(0, -1)) for c in coeffs]


def gc_eigenspace_dimension(pi: Multivector, point) -> int:
    """Dimension of the -i eigenspace of gc_endomorphism(pi) at a point."""
    matrix = gc_endomorphism(pi)
    values = poly_mat_eval(matrix, point)
    m = len(values)
    shifted = [[values[r][c] + (GQ(0, 1) if r == c else GQ(0))
                for c in range(m)] for r in range(m)]
    return m - dense_rank(shifted)


# ----------------------------------------------------------------------
# Courant bracket

def courant_bracket(e1: GCSection, e2: GCSection) -> GCSection:
    """Antisymmetrized Courant bracket on TX + T*X:
    [[X+xi, Y+eta]] = [X,Y] + L_X eta - L_Y xi + d(xi(Y) - eta(X))/2."""
    if e1.vec.chart != e2.vec.chart:
        raise ChartError("chart mismatch")
    chart = e1.vec.chart
    x, xi = e1.vec, e1.form
    y, eta = e2.vec, e2.form
    vec = schouten(x, y)
    mixed = pairing(xi, y) - pairing(eta, x)
    form = (lie_derivative(x, eta) - lie_derivative(y, xi)
            + exterior_d(Form(chart, 0, {(): mixed.scale(GQ(HALF))})))
    return GCSection(vec, form)


# ----------------------------------------------------------------------
# symplectic inversion and foliations

def symplectic_inverse(omega: Form) -> Multivector:
    """Invert a constant-coefficient symplectic 2-form.

    Returns the bivector pi with omega_flat . pi_sharp = identity, i.e.
    pi's component matrix is the inverse of omega's.
    """
    if omega.degree != 2:
        raise DegreeError("symplectic_inverse needs a 2-form")
    chart = omega.chart
    if chart.is_complex():
        # a holomorphic symplectic form pairs the z-block with itself
        if omega.bidegree() not in ((2, 0), None) or any(
                k >= chart.n for idx in omega.comps for k in idx):
            raise DegreeError(
                "on a complex chart symplectic_inverse needs a (2,0)-form")
        m = chart.n
    else:
        m = chart.nvars
    mat = [[GQ(0)] * m for _ in range(m)]
    for (a, b), coeff in omega.comps.items():
        if coeff.degree() > 0:
            raise StructureError(
                "symplectic_inverse requires constant coefficients "
                "(Darboux-normalized input)")
        value = coeff.terms.get((0,) * chart.nvars, GQ(0))
        mat[a][b] = value
        mat[b][a] = -value
    inverse = gq_mat_inverse(mat)
    comps = {}
    for a in range(m):
        for b in range(a + 1, m):
            if not inverse[a][b].is_zero():
                comps[(a, b)] = Poly.const(chart, inverse[a][b])
    return Multivector(chart, 2, comps)


def foliation_rank(pi: Multivector, point) -> FoliationReport:
    """Evaluate pi_R#, pi_I# at a rational point of the real chart and
    compare ranks and column spaces exactly."""
    _require_20(pi)
    n = pi.chart.n
    point = [GQ.of(v) for v in point]
    if len(point) != 2 * n:
        raise ChartError(f"point needs {2 * n} real coordinates")
    pair = decompose(pi)
    mat_r = poly_mat_eval(sharp_matrix(pair.pi_R), point)
    mat_i = poly_mat_eval(sharp_matrix(pair.pi_I), point)
    rank_r = dense_rank(mat_r)
    rank_i = dense_rank(mat_i)
    return FoliationReport(rank_r, rank_i, column_space_equal(mat_r, mat_i))
