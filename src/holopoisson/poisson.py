"""Holomorphic Poisson verification and structure theory.

Covers the real/imaginary decomposition of a (2,0) bivector,
Poisson-Nijenhuis compatibility against an almost complex structure, the
antisymmetrized Courant bracket and pointwise foliation ranks.  The parts
are taken on the real chart (decompose, for the decompose command and the
foliation ranks) or, with no chart conversion, on the bivector's own
complex chart (complex_parts), where pn_check_complex and the realparts
check read them.  The generalized complex endomorphism J_pi with its -i
eigenbundle, the symplectic inverse and the Poisson bracket of two
functions are test references (tests/oracles.py): no command computes
them.

A chart endomorphism, such as standard_j, is its square Poly matrix over
the coordinate tangent frame.  Its Nijenhuis torsion and the Koszul
compatibility of pn_check are the one Nijenhuis deformation of the
algebroid layer (algebroid.tangent_algebroid, algebroid.koszul_algebroid),
which takes the matrix itself and which pn_check imports when it is
called, since algebroid imports this module.
"""

from __future__ import annotations

from .errors import ChartError, DegreeError, Record
from .exactalg import GQ, Chart, Poly, _poly
from .linalg import (
    column_space_equal,
    dense_rank,
    poly_mat_eval,
    poly_mat_mul,
    poly_mat_scale,
    poly_mat_sub,
    poly_mat_transpose,
    poly_zero_matrix,
)
from .multivec import (
    Form,
    Multivector,
    _alternating,
    convert_alternating,
    differential,
    exterior_d,
    interior,
    pairing,
    schouten,
    sharp_matrix,
)

HALF = GQ(1) / 2


# ----------------------------------------------------------------------
# endomorphisms of the tangent frame

def standard_j(chart: Chart):
    """The standard almost complex structure of a chart, as the square Poly
    matrix over the coordinate tangent frame whose column c is the image
    of frame vector c.  On a real chart J d/dx_k = d/dy_k and
    J d/dy_k = -d/dx_k.  On a complex chart the frames are its eigenvectors,
    J d/dz_k = i d/dz_k and J d/dzb_k = -i d/dzb_k (d/dz_k is
    (d/dx_k - i d/dy_k)/2), so the matrix is diag(i, ..., i, -i, ..., -i)."""
    n = chart.n
    rows = poly_zero_matrix(chart, 2 * n, 2 * n)
    if chart.is_complex():
        for k in range(n):
            rows[k][k] = Poly.const(chart, GQ(0, 1))
            rows[n + k][n + k] = Poly.const(chart, GQ(0, -1))
        return rows
    for k in range(n):
        rows[n + k][k] = Poly.one(chart)
        rows[k][n + k] = Poly.const(chart, -1)
    return rows


# ----------------------------------------------------------------------
# reports and small containers

class HoloPoissonReport(Record):
    __slots__ = ("dbar_zero", "schouten_zero")
    VERDICT = "holomorphic_poisson"


class PNReport(Record):
    __slots__ = ("schouten_zero", "sharp_intertwine", "koszul_compat",
                 "torsion_zero")
    VERDICT = "poisson_nijenhuis"


class FoliationReport(Record):
    __slots__ = ("rank_R", "rank_I", "images_equal")


class PoissonPair(Record):
    """Real and imaginary parts of a (2,0) bivector, on the real chart
    (decompose) or on the bivector's own complex chart (complex_parts)."""

    __slots__ = ("pi_R", "pi_I")


class GCSection:
    """A section X + xi of TX + T*X; d xi is taken once, when the Courant
    bracket first needs it."""

    __slots__ = ("vec", "form", "_d_form")

    def __init__(self, vec: Multivector, form: Form):
        if vec.chart != form.chart:
            raise ChartError("vector and form parts on different charts")
        if vec.degree != 1 or form.degree != 1:
            raise DegreeError("GCSection needs degree-1 parts")
        self.vec = vec
        self.form = form
        self._d_form = None

    def d_form(self) -> Form:
        """d xi, computed on the first call."""
        if self._d_form is None:
            self._d_form = exterior_d(self.form)
        return self._d_form


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


def decompose(pi: Multivector) -> PoissonPair:
    """Split pi into real and imaginary parts on the real chart:
    pi_R = (pi + conj pi)/2 and pi_I = (pi - conj pi)/2i.

    pi is converted to the real chart once, to P.  There the coordinates
    and frames are real, so conj pi converts to P-bar, P with conjugated
    coefficients, and pi_R = (P + P-bar)/2, pi_I = (P - P-bar)/2i."""
    _require_20(pi)
    p = convert_alternating(pi, Chart.real(pi.chart.n))
    p_bar = _alternating(Multivector, p.chart, p.degree, {
        idx: _poly(p.chart, {exps: c.conj() for exps, c in poly.terms.items()})
        for idx, poly in p.comps.items()})
    return PoissonPair((p + p_bar).scale(HALF),
                       (p - p_bar).scale(GQ(0, -1) / 2))  # 1/(2i) = -i/2


def complex_parts(pi: Multivector) -> PoissonPair:
    """pi_R = (pi + conj pi)/2 and pi_I = (pi - conj pi)/2i on pi's own
    complex chart, with no chart conversion.  conj pi has the conjugate
    coefficients (Poly.conj, which also swaps z and zb) on the frames moved
    from d/dz to d/dzb: component (a, b) goes to (a + n, b + n), still
    increasing, so each part is pi's components and their images."""
    _require_20(pi)
    chart = pi.chart
    n = chart.n
    minus_half_i, half_i = GQ(0, -1) / 2, GQ(0, 1) / 2  # 1/(2i) = -i/2
    re, im = {}, {}
    for (a, b), coeff in pi.comps.items():
        bar = coeff.conj()
        re[(a, b)] = coeff.scale(HALF)
        re[(a + n, b + n)] = bar.scale(HALF)
        im[(a, b)] = coeff.scale(minus_half_i)
        im[(a + n, b + n)] = bar.scale(half_i)
    return PoissonPair(_alternating(Multivector, chart, 2, re),
                       _alternating(Multivector, chart, 2, im))


# ----------------------------------------------------------------------
# Poisson-Nijenhuis compatibility

def pn_check(pi_i: Multivector, n_matrix) -> PNReport:
    """Poisson-Nijenhuis check of (pi_I, N) on a real chart, for N a square
    Poly matrix over the coordinate tangent frame (column c the image of
    frame vector c): the verdicts of _pn_verdicts.  A complex chart's pair
    (pi_I, J) is pn_check_complex's."""
    if pi_i.chart.is_complex():
        raise ChartError("pn_check runs on the real chart")
    return _pn_verdicts(pi_i, n_matrix)


def pn_check_complex(pi: Multivector) -> PNReport:
    """pn_check of (pi_I, J) for a (2,0) bivector pi, checked on pi's own
    complex chart: pi_I from complex_parts and J = diag(i, -i) from
    standard_j.  Each verdict is an identity between tensors, which a
    change of coordinates with constant Jacobian, z = x + iy, carries to
    the same identity on the real chart, so the report is the real-chart
    pn_check of decompose(pi).pi_I and the real J."""
    return _pn_verdicts(complex_parts(pi).pi_I, standard_j(pi.chart))


def _pn_verdicts(pi_i: Multivector, n_matrix) -> PNReport:
    """The Poisson-Nijenhuis verdicts of (pi_I, N) on pi_I's chart, real
    or complex, for N a square Poly matrix over its coordinate tangent
    frame.

    Checks [pi_I, pi_I] = 0, N pi# = pi# N* as an exact matrix identity,
    the Koszul compatibility and vanishing of the Nijenhuis torsion of N.
    The last two are one Nijenhuis deformation in the algebroid layer: the
    torsion is that of N on the tangent algebroid, and the compatibility
    says that the Koszul algebroid of pi_N is the deformation of the
    Koszul algebroid of pi_I by N* (the matrix N^T on the coframe).  Its
    coframe brackets are d(pi_N^{ab}), so the check compares them with the
    deformed brackets on all coframe pairs, which suffices by tensoriality.
    """
    # algebroid imports this module at load time, so not the other way
    from .algebroid import (
        _deformation,
        koszul_algebroid,
        nijenhuis_torsion_algebroid,
        tangent_algebroid,
    )

    if pi_i.degree != 2:
        raise DegreeError("pn_check needs a bivector")
    # the torsion first: it refuses a matrix of the wrong size
    torsion_zero = not nijenhuis_torsion_algebroid(
        tangent_algebroid(pi_i.chart), n_matrix)
    schouten_zero = schouten(pi_i, pi_i).is_zero()

    msharp = sharp_matrix(pi_i)
    sharp_intertwine = (poly_mat_mul(n_matrix, msharp)
                        == poly_mat_mul(msharp, poly_mat_transpose(n_matrix)))

    # the component matrix of pi_N, with pi_N# = pi# N*: N Pi (Pi, with
    # Pi[a][b] = pi(e^a, e^b), is the transpose of the sharp matrix),
    # antisymmetrized so the check stays defined when the intertwine
    # identity fails.
    npi = poly_mat_mul(n_matrix, poly_mat_transpose(msharp))
    pi_n = poly_mat_scale(poly_mat_sub(npi, poly_mat_transpose(npi)), HALF)
    del npi

    koszul = koszul_algebroid(pi_i)
    deformed = _deformation(koszul, poly_mat_transpose(n_matrix))
    koszul_compat = all(differential(pi_n[a][b]).coefficients() == value
                        for (a, b), value in deformed.items())
    return PNReport(schouten_zero, sharp_intertwine, koszul_compat,
                    torsion_zero)


# ----------------------------------------------------------------------
# Courant bracket

def courant_bracket(e1: GCSection, e2: GCSection) -> GCSection:
    """Antisymmetrized Courant bracket on TX + T*X:
    [[X+xi, Y+eta]] = [X,Y] + L_X eta - L_Y xi + d(xi(Y) - eta(X))/2.
    By the Cartan formula L_X eta = i_X d eta + d(eta(X)) the form part is
    i_X d eta - i_Y d xi + d(eta(X) - xi(Y))/2, which reads each
    section's d xi (GCSection.d_form) and takes one d of a function."""
    if e1.vec.chart != e2.vec.chart:
        raise ChartError("chart mismatch")
    chart = e1.vec.chart
    x, xi = e1.vec, e1.form
    y, eta = e2.vec, e2.form
    vec = schouten(x, y)
    mixed = pairing(eta, x) - pairing(xi, y)
    form = (interior(x, e2.d_form()) - interior(y, e1.d_form())
            + exterior_d(Form(chart, 0, {(): mixed.scale(HALF)})))
    return GCSection(vec, form)


# ----------------------------------------------------------------------
# foliations

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
