"""Slow, independent oracle implementations used by the test suite.

These deliberately take different routes from the library code:

* BiCochain is a section of Lambda^k A* (x) Lambda^l B* of a matched
  pair, by its components on pairs of increasing frame index sets; the
  library assembles its matrices by position and has no cochain type.
  The (q, p) cell of the canonical pair (T^{0,1}X, (T*X)_pi) is
  Omega^{0,q}(X, Lambda^p T^{1,0}X): a BiCochain keyed (dzb-indices,
  d/dz-indices).  dbar_mixed (the Dolbeault operator on coefficients) and
  d_pi (the degree-raising operator of holomorphic Poisson cohomology) act
  on these BiCochains by their own formulas, reading the chart and pi but
  not the pair's anchors, brackets or connections, so that they check the
  tables (applied to a BiCochain by partial_A and partial_B below) rather
  than share code with them.  No command reached the three, so they left
  the library.
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
* partial_A, partial_B and total_differential apply the library's
  per-cell coboundary tables (cohomology._cell_table) to a BiCochain,
  one monomial image at a time.  The library assembles its matrices from
  the same tables by position and has no other use for them, so they
  live here: the tests check them against coboundary_reference, the
  direct-sum oracle, dbar_mixed and d_pi, and through them the tables.
* cell_matrix_reference and total_matrix_oracle build a block's cell and
  total matrices one basis vector at a time through the reference
  coboundary, instead of reading the operator tables and assembling.
* double_complex_betti is betti's report on the double complex, whatever
  route betti takes for the pair: every block of cohomology._blocks_for
  ranked by cohomology._block_report.  The reduced route is checked
  against it where the dense oracle is out of reach.
* markowitz_rank_reference is the library's sparse rank before it took
  its pivots from column-count buckets: every step scans all remaining
  nonzeros for the least Markowitz cost (r - 1)(c - 1), frozen here as a
  second route for the property test of the bucket search.
* FractionGQ is the Gaussian rational as a pair of Fractions: the scalar
  the library used before its integer-triple GQ, frozen here, with
  format_fraction_gq, as the reference for the property tests.
* tangent_images_reference and cotangent_images_reference are the
  hand-typed tables of the frame changes between the complex and real
  charts (d/dz_k = (d/dx_k - i d/dy_k)/2, dz_k = dx_k + i dy_k and their
  inverses) that the library used before it derived them from the one
  coordinate change, frozen here as the reference for that derivation.
* decompose_reference is the library's decompose before it converted pi
  to the real chart once: conj pi is formed on the complex chart by
  multivector_conj, which left the library with it, and both parts are
  converted.
* multivector_conj_reference and _permutation_sign are the library's
  conjugation before it took its sign from merge_indices, frozen here as
  the reference for the property test of that sign.
* check_representation_reference and s_tensor_reference are the
  library's flatness/Leibniz check and frame S loop before they read the
  frame tables of the covariant derivatives: every nabla is recomputed
  where it is used, and S goes through matched_pair_S on frame sections.
  matched_pair_S, S(X;Y1,Y2) on arbitrary sections, is also the reference
  for the tensoriality tests of S and T.  The library's check keeps only
  flatness; the Leibniz half, which cannot fail, lives on here (with its
  RepReport record) as the subject of the property that shows why.
  matched_pair_F, F(X;Y) on arbitrary sections, is likewise the reference
  for the library's frame F table and for the tensoriality tests of F.
* canonical_matched_pair_reference is the canonical matched pair as the
  library computed it before it used zero connections on the holomorphic
  frame: the Lie derivative (Cartan formula) for T^{0,1} acting on the
  coframe, and pr^{0,1} of a Schouten bracket for the action back.
* lie_derivative (the Cartan formula on forms, the Schouten bracket on
  multivectors) and courant_bracket_reference, the Courant bracket
  through two Lie derivatives, are the library's before its Courant
  bracket came to read each section's d xi once (i_X d eta - i_Y d xi
  + d(eta(X) - xi(Y))/2); no command takes a Lie derivative now.
* koszul_bracket is the koszul command's route, the Koszul algebroid's
  Leibniz-extended bracket on the forms' coefficient lists, for the tests
  of the bracket's identities; the library has no Koszul bracket of forms
  apart from the algebroid's.
* koszul_bracket_reference, pn_check_reference,
  realparts_liealgebra_check_reference and yao_isomorphism_check_reference
  are the library's Koszul bracket (two Lie derivatives by the Cartan
  formula and d(pi(alpha, beta))) and its three structural checks before
  they read frame tables: every Koszul bracket, Poisson bracket, bowtie
  bracket and yao_phi image is recomputed where it is used, for every
  pair (ordered pairs in realparts).  pn_check_reference calls
  koszul_bracket_reference, so it shares no Koszul code with the library,
  and builds pi_N as a bivector with bivector_from_matrix, which left the
  library when pn_check came to keep pi_N as a matrix.
* EndoFieldReference, nijenhuis_torsion_apply_reference and
  nijenhuis_torsion_reference are the library's chart endomorphism type
  and Nijenhuis torsion before both went through the algebroid layer
  (tangent_algebroid and the frame-level Nijenhuis deformation): the
  torsion [NV, NW] - N([NV, W] + [V, NW] - N [V, W]) is taken through
  Schouten brackets of vector fields, and pn_check_reference reads its
  torsion verdict from it.
* deformation_reference is the library's Nijenhuis deformation before it
  read the frame data: every deformed bracket [N e_i, e_j] + [e_i, N e_j]
  - N[e_i, e_j] and torsion value [N e_i, N e_j] - N[e_i, e_j]_N is taken
  through the algebroid's Leibniz-extended bracket, the definition.

Fixtures shared by several test modules: frame_bivector, sl2, heisenberg,
sl2_pi, unequal_rank_pairs (matched pairs with rank A != rank B),
darboux_symplectic_parts (the Darboux pi on C^2n with the real
and imaginary parts of its inverse form), real_part, imaginary_part and
quarter_factor_identities (the six quarter-factor bracket identities).

Fixtures and references that no command needs, moved out of the library:

* holomorphic_tangent_algebroid (T^{1,0}C^n) and linear_action_algebroid
  (g acting linearly on C^n): with a Lie algebra, which the library
  presents as an algebroid over a point, the holomorphic algebroids
  other than T*X of acceptance criterion 12;
* recompose, pi_R + i pi_I back on the complex chart, the inverse that
  checks decompose;
* realified_cotangent, the underlying real algebroid of the cotangent
  algebroid, and conjugate_by_signs, which changes the signs of frame
  sections: acceptance criterion 9 and tests/test_algebroid.py compare
  them with the Koszul algebroids of 4 pi_R and 4 pi_I;
* convert_chart, the ring isomorphism between the real and complex charts
  of a dimension (Poly.substitute of exactalg's one coordinate change),
  and is_conj_fixed, the reality test through it;
* poisson_bracket {f, g} = pi(df, dg) and symplectic_inverse, the
  bivector of a constant symplectic form: the factor identities of
  criteria 2 and 1;
* gc_endomorphism, the generalized complex endomorphism J_pi with its
  4 pi_I# block, and gc_eigensection_check and gc_eigenspace_dimension,
  its -i eigenbundle: criterion 7's Dirac statement;
* deform_by, the algebroid deformed by an endomorphism of vanishing
  torsion: criterion 9 and the deformation tests.
"""

from fractions import Fraction
from itertools import combinations
from operator import add

from holopoisson import cohomology
from holopoisson.algebroid import (
    AlgebroidChart,
    MatchedPairData,
    _deformation,
    _torsion,
    RealPartsReport,
    RepData,
    YaoReport,
    antiholomorphic_tangent,
    bowtie,
    canonical_matched_pair,
    complex_presentation,
    cotangent_algebroid,
    koszul_algebroid,
    lie_algebra,
    lie_poisson,
    realify_liealgebra,
    yao_phi,
)
from holopoisson.errors import (
    ChartError,
    DegreeError,
    Record,
    ShapeError,
    StructureError,
    TruncationError,
)
from holopoisson.exactalg import (
    GQ,
    Chart,
    Poly,
    _accumulate,
    _coordinate_images,
    is_scalar,
)
from holopoisson.linalg import (
    SparseMatrix,
    dense_rank,
    gq_mat_inverse,
    poly_identity,
    poly_mat_eval,
    poly_mat_mul,
    poly_mat_scale,
    poly_mat_sub,
    poly_mat_transpose,
)
from holopoisson.multivec import (
    Form,
    Multivector,
    convert_alternating,
    differential,
    exterior_d,
    insert_index,
    interior,
    merge_indices,
    pairing,
    schouten,
    sharp,
    sharp_matrix,
)
from holopoisson.poisson import (
    PNReport,
    courant_bracket,
    decompose,
    is_holomorphic_poisson,
    standard_j,
)

# the references' own scalars, shared with no library route they check
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def sgn(x: int) -> int:
    return -1 if x % 2 else 1


def poly_mat_vec(a, v):
    """The product a v of a Poly matrix and a Poly list, as the one column
    of the matrix product."""
    return [row[0] for row in poly_mat_mul(a, [[x] for x in v])]


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


def courant_bracket_reference(e1, e2):
    """The vector and form parts of the antisymmetrized Courant bracket
    [[X+xi, Y+eta]] = [X,Y] + L_X eta - L_Y xi + d(xi(Y) - eta(X))/2,
    with both Lie derivatives taken by lie_derivative."""
    x, xi = e1.vec, e1.form
    y, eta = e2.vec, e2.form
    mixed = pairing(xi, y) - pairing(eta, x)
    form = (lie_derivative(x, eta) - lie_derivative(y, xi)
            + exterior_d(Form(x.chart, 0, {(): mixed.scale(GQ(HALF))})))
    return schouten(x, y), form


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
            return Multivector(chart, 0, {(): out})
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
# cochains of the double complex and the canonical-pair operators

class BiCochain:
    """Element of Gamma(Lambda^k A* (x) Lambda^l B*) of a matched pair."""

    __slots__ = ("mp", "k", "l", "comps")

    def __init__(self, mp: MatchedPairData, k: int, l: int, comps=None):
        if k < 0 or l < 0:
            raise DegreeError("negative bidegree")
        chart = mp.A.chart
        clean = {}
        if comps:
            for key, poly in comps.items():
                I, J = tuple(key[0]), tuple(key[1])
                if len(I) != k or len(J) != l:
                    raise DegreeError("component does not match bidegree")
                for t, bound in ((I, mp.A.rank), (J, mp.B.rank)):
                    if list(t) != sorted(set(t)):
                        raise DegreeError(f"index tuple {t} not increasing")
                    if any(not 0 <= v < bound for v in t):
                        raise DegreeError("frame index out of range")
                if isinstance(poly, (int, GQ)):
                    poly = Poly.const(chart, poly)
                if poly.chart != chart:
                    raise ChartError("component on wrong chart")
                if not poly.is_zero():
                    clean[(I, J)] = poly
        self.mp = mp
        self.k = k
        self.l = l
        self.comps = clean

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, BiCochain):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (self.k, self.l) == (other.k, other.l) and self.comps == other.comps

    def __add__(self, other):
        if (self.k, self.l) != (other.k, other.l):
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeError("cannot add different bidegrees")
        comps = dict(self.comps)
        for key, poly in other.comps.items():
            _accumulate(comps, key, poly)
        return BiCochain(self.mp, self.k, self.l, comps)

    def __neg__(self):
        return BiCochain(self.mp, self.k, self.l,
                         {key: -p for key, p in self.comps.items()})


def dbar_mixed(c: BiCochain) -> BiCochain:
    """The Dolbeault column operator on a cochain of the canonical pair:
    dbar acts on the coefficients, and each dzb_b it produces joins the
    A-indices (the d/dz slots of the B-indices are a holomorphic frame)."""
    chart = c.mp.A.chart
    n = chart.n
    comps: dict = {}
    for (I, J), coeff in c.comps.items():
        for b in range(n):
            dcoeff = coeff.diff(n + b)
            if dcoeff.is_zero():
                continue
            merged = insert_index(b, I)
            if merged is None:
                continue
            new_I, sign = merged
            _accumulate(comps, (new_I, J), dcoeff if sign > 0 else -dcoeff)
    return BiCochain(c.mp, c.k + 1, c.l, comps)


def d_pi(c: BiCochain, pi: Multivector) -> BiCochain:
    """Polyvector-degree-raising differential of holomorphic Poisson
    cohomology on a cochain of the canonical pair of pi: on a decomposable
    cell omega (x) P it is
    omega (x) [pi, P] + sum_i (i_{pi#(dz^i)} d omega) (x) (e_i ^ P)."""
    report = is_holomorphic_poisson(pi)
    if not report.all_ok:
        raise StructureError("d_pi needs a holomorphic Poisson bivector")
    chart = pi.chart
    if c.mp.A.chart != chart:
        raise ChartError("chart mismatch")
    n = chart.n
    hamiltonian = [sharp(pi, Form.frame(chart, i)) for i in range(n)]
    comps = {}
    for (I, J), f in c.comps.items():
        frame_vec = Multivector(chart, len(J), {J: Poly.one(chart)})
        bracket = schouten(pi, frame_vec)
        for idx, coeff in bracket.comps.items():
            if any(v >= n for v in idx):
                raise StructureError("d_pi left the holomorphic polyvectors")
            _accumulate(comps, (I, idx), f * coeff)
        for i in range(n):
            deriv = hamiltonian[i].apply_to(f)
            if deriv.is_zero():
                continue
            merged = insert_index(i, J)
            if merged is None:
                continue
            new_J, sign = merged
            _accumulate(comps, (I, new_J), deriv if sign > 0 else -deriv)
    return BiCochain(c.mp, c.k, c.l + 1, comps)


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
# the library's coboundary tables applied to a cochain

def _image(entries, exps) -> dict:
    """The coboundary of the monomial x^exps on the source frame pair whose
    table entries are given, as {(I', J', exponents): coefficient}."""
    out: dict = {}
    for (I, J), terms in entries:
        for shift, v, c in terms:
            e = 1 if v is None else exps[v]
            if e:
                _accumulate(out, (I, J, tuple(map(add, exps, shift))),
                            c if e == 1 else c * e)
    return out


def _apply(cochain: BiCochain, direction: str) -> BiCochain:
    """partial_A (direction 'A') or partial_B ('B') of a cochain, through
    the library's table of its cell."""
    mp = cochain.mp
    k, l = cochain.k, cochain.l
    table = cohomology._cell_table(
        cohomology._direction_data(mp, direction), (k, l), direction)
    terms: dict = {}
    for key, poly in cochain.comps.items():
        entries = table.get(key, ())
        for exps, coeff in poly.terms.items():
            for image_key, value in _image(entries, exps).items():
                _accumulate(terms, image_key, coeff * value)
    comps: dict = {}
    for (I, J, exps), value in terms.items():
        comps.setdefault((I, J), {})[exps] = value
    chart = mp.A.chart
    target = (k + 1, l) if direction == "A" else (k, l + 1)
    return BiCochain(mp, *target,
                     {key: Poly(chart, t) for key, t in comps.items()})


def partial_A(cochain: BiCochain) -> BiCochain:
    """The A-direction coboundary of the matched-pair double complex."""
    return _apply(cochain, "A")


def partial_B(cochain: BiCochain) -> BiCochain:
    """The B-direction coboundary: partial_A of the swapped pair, on the
    components with their index tuples exchanged."""
    return _apply(cochain, "B")


def total_differential(cochain: BiCochain):
    """partial_A + (-1)^k partial_B, as the pair of output cells."""
    da = partial_A(cochain)
    db = partial_B(cochain)
    if cochain.k % 2:
        db = -db
    return da, db


# ----------------------------------------------------------------------
# sparse rank by the full Markowitz scan

def markowitz_rank_reference(matrix: SparseMatrix) -> int:
    """Rank of a sparse GQ matrix by Gaussian elimination over GQ.

    Rows are dicts ``col -> value`` with a ``col -> rows`` index.  Each
    step pivots on the entry with the smallest Markowitz cost
    ``(r - 1)(c - 1)`` (r, c: nonzeros in its row and column), ties broken
    by the smaller (row, col), and updates only the rows with a nonzero in
    the pivot column.
    """
    rows: dict = {}
    cols: dict = {}
    # rows are only ever deleted, so the dict keeps ascending row order
    for i, j in sorted(matrix.entries):
        rows.setdefault(i, {})[j] = matrix.entries[(i, j)]
        cols.setdefault(j, set()).add(i)
    rank = 0
    while rows:
        best = pr = pc = None
        for i, row in rows.items():
            r1 = len(row) - 1
            for j in row:
                cost = r1 * (len(cols[j]) - 1)
                if (best is None or cost < best
                        or cost == best and i == pr and j < pc):
                    best, pr, pc = cost, i, j
            if best == 0:
                break  # later rows lose the tie on the row index
        pivot_row = rows.pop(pr)
        neg_inv = GQ(-1) / pivot_row.pop(pc)
        below = cols.pop(pc)
        below.discard(pr)
        for j in pivot_row:
            cols[j].discard(pr)
        for i in below:
            row = rows[i]
            factor = row.pop(pc) * neg_inv
            for j, value in pivot_row.items():
                old = row.get(j)
                if old is None:
                    row[j] = factor * value
                    cols[j].add(i)
                else:
                    new = old + factor * value
                    if new.is_zero():
                        del row[j]
                        cols[j].discard(i)
                    else:
                        row[j] = new
            if not row:
                del rows[i]
        rank += 1
    return rank


# ----------------------------------------------------------------------
# matrices of a truncation block, basis vector by basis vector

def _cell_keys(cell):
    """The basis of a cohomology._Cell as (I, J, exponents) triples, in its
    order: frame pairs outer, monomials inner."""
    return [(I, J, exps) for I, J in cell.pairs for exps in cell.monos]


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
    goal = block.basis.get(target)
    rows = {key: pos for pos, key in
            enumerate(_cell_keys(goal) if goal is not None else [])}
    entries = {}
    for col, key in enumerate(_cell_keys(block.basis[cell])):
        image = partial(_basis_cochain(block, cell, key))
        for (I, J), poly in image.comps.items():
            for exps, coeff in poly.terms.items():
                if (I, J, exps) not in rows:
                    raise TruncationError(
                        "differential escapes the truncated basis; "
                        "choose a compatible truncation")
                entries[(rows[(I, J, exps)], col)] = coeff
    return SparseMatrix(len(rows), len(block.basis[cell]), entries)


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
        for col, key in enumerate(_cell_keys(block.basis[(k, l)])):
            cochain = _basis_cochain(block, (k, l), key)
            db = partial_B_reference(cochain)
            for image in (partial_A_reference(cochain), -db if k % 2 else db):
                if image.is_zero():
                    continue
                target = (image.k, image.l)
                items = _cell_keys(block.basis[target])
                for (I2, J2), poly in image.comps.items():
                    for exps2, coeff in poly.terms.items():
                        row = items.index((I2, J2, exps2))
                        entries[(row_offset[target] + row,
                                 col_base + col)] = coeff
    return (nrows, ncols), entries


def double_complex_betti(mp, truncation, method="sparse"):
    """betti's report ranked on the double complex, on a pair and mode
    that betti would take to the reduced route too."""
    reports = [cohomology._block_report(block, method)
               for block in cohomology._blocks_for(mp, truncation)]
    label = ("exact_weight_graded" if truncation.mode == "weight"
             else "filtered_approximation")
    return cohomology.BettiReport(truncation.mode, truncation.bound, method,
                                  label, tuple(reports))


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
# decompose, as it was before it converted pi once

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


def decompose_reference(pi: Multivector):
    """(pi_R, pi_I) by the defining formulas on the complex chart,
    pi_R = (pi + conj pi)/2 and pi_I = (pi - conj pi)/2i, each part then
    converted to the real chart."""
    real = Chart.real(pi.chart.n)
    conj_pi = multivector_conj(pi)
    pi_r = (pi + conj_pi).scale(GQ(HALF))
    pi_i = (pi - conj_pi).scale(GQ(0, -HALF))  # 1/(2i) = -i/2
    return (convert_alternating(pi_r, real),
            convert_alternating(pi_i, real))


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

def holomorphic_tangent_algebroid(chart: Chart) -> AlgebroidChart:
    """T^{1,0} of a complex chart: frame d/dz_k, commuting."""
    n = chart.n
    anchor = poly_identity(chart, chart.nvars)[:n]
    zero = [Poly.zero(chart) for _ in range(n)]
    structure = [[list(zero) for _ in range(n)] for _ in range(n)]
    return AlgebroidChart(chart, n, anchor, structure)


def linear_action_algebroid(g, matrices) -> AlgebroidChart:
    """The action algebroid g x C^n of a linear representation of a Lie
    algebra g (an algebroid over a point), given by the matrices M_i of
    the basis e_i of g: anchor
    X_{M_i} = -sum_a (M_i z)_a d/dz_a and constant structure functions
    c_ij^k.  The sign makes e -> X_M a bracket morphism, as
    [V_M, V_N] = -V_[M,N] for the linear field V_M = sum_a (M z)_a d/dz_a."""
    n = len(matrices[0])
    chart = Chart.complex(n)
    anchor = []
    for m in matrices:
        row = [Poly.zero(chart) for _ in range(chart.nvars)]
        for a in range(n):
            for b in range(n):
                if m[a][b]:
                    row[a] = row[a] - Poly.var(chart, b).scale(GQ.of(m[a][b]))
        anchor.append(row)
    structure = [[[Poly.const(chart, p.evaluate(())) for p in vec]
                  for vec in row] for row in g.structure]
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
            out[k] = real_part(scaled[k])
            out[n + k] = imaginary_part(scaled[k])
        return out

    return AlgebroidChart.from_frame_brackets(real, 2 * n, anchor, bracket_fn)


def conjugate_by_signs(a, signs):
    """The algebroid a in the frame (signs[s] e_s)."""
    anchor = [[p.scale(signs[s]) for p in a.anchor[s]] for s in range(a.rank)]
    structure = [[[a.structure[s][t][r].scale(signs[s] * signs[t] * signs[r])
                   for r in range(a.rank)] for t in range(a.rank)]
                 for s in range(a.rank)]
    return AlgebroidChart(a.chart, a.rank, anchor, structure)


# ----------------------------------------------------------------------
# fixtures shared by several test modules

def frame_bivector(chart, a, b, coeff=None):
    """coeff (1 if None) times the frame bivector e_a ^ e_b."""
    one = Poly.one(chart) if coeff is None else coeff
    return Multivector(chart, 2, {(a, b): one})


def sl2():
    return lie_algebra(3, [(1, 2, 2, GQ(2)), (1, 3, 3, GQ(-2)),
                           (2, 3, 1, GQ(1))])


def heisenberg():
    return lie_algebra(3, [(1, 2, 3, GQ(1))])


def sl2_pi():
    return lie_poisson(sl2())


def unequal_rank_pairs():
    """Matched pairs with rank A != rank B, each also swapped: the corpus
    pairs all have rank A = rank B, where a mix-up of the two ranks (or of
    k and l) goes unseen.  "line": T^{0,1}C^2 with a rank-1 B anchored at
    z2 d/dz1, zero bracket and zero connections.  "borel": sl2 = b + n_-
    with zero anchors, A = span(h, e), B = span(f), acting on each other
    through the sl2 bracket."""
    c1, c2 = Chart.complex(1), Chart.complex(2)
    a = antiholomorphic_tangent(c2)
    b = AlgebroidChart(c2, 1, [[Poly.var(c2, 1), 0, 0, 0]], [[[0]]])
    line = MatchedPairData(a, b, RepData(a, b, [[[0]], [[0]]]),
                           RepData(b, a, [[[0, 0], [0, 0]]]))
    a = AlgebroidChart(c1, 2, [[0, 0], [0, 0]],
                       [[[0, 0], [0, 2]], [[0, -2], [0, 0]]])
    b = AlgebroidChart(c1, 1, [[0, 0]], [[[0]]])
    # nabla_h f = -2 f, nabla_e f = 0; nabla_f h = 0, nabla_f e = -h
    borel = MatchedPairData(a, b, RepData(a, b, [[[-2]], [[0]]]),
                            RepData(b, a, [[[0, 0], [-1, 0]]]))
    return [("line", line), ("line swapped", line.swapped()),
            ("borel", borel), ("borel swapped", borel.swapped())]


def darboux_symplectic_parts(n):
    """decompose of the Darboux pi = -sum_k d/dz_k ^ d/dz_{n+k} on C^2n,
    with the real and imaginary parts omega_R, omega_I of its inverse
    form sum_k dz_k ^ dz_{n+k}, on the real chart."""
    chart = Chart.complex(2 * n)
    real = Chart.real(2 * n)
    pi = Multivector(chart, 2, {(k, n + k): Poly.const(chart, -1)
                                for k in range(n)})
    dx = [Form.frame(real, k) for k in range(4 * n)]
    omega_r = Form.zero(real, 2)
    omega_i = Form.zero(real, 2)
    for k in range(n):
        xp, xq = k, n + k
        yp, yq = 2 * n + k, 3 * n + k
        omega_r = omega_r + dx[xp].wedge(dx[xq]) - dx[yp].wedge(dx[yq])
        omega_i = omega_i + dx[xp].wedge(dx[yq]) + dx[yp].wedge(dx[xq])
    return decompose(pi), omega_r, omega_i


def real_part(poly: Poly) -> Poly:
    """Re p = (p + conj p)/2 of a complex-chart Poly, on the real chart."""
    half = GQ(Fraction(1, 2))
    return convert_chart((poly + poly.conj()).scale(half),
                         Chart.real(poly.chart.n))


def imaginary_part(poly: Poly) -> Poly:
    """Im p = (p - conj p)/2i of a complex-chart Poly, on the real chart."""
    return convert_chart((poly - poly.conj()).scale(GQ(0, Fraction(-1, 2))),
                         Chart.real(poly.chart.n))


def quarter_factor_identities(pi: Multivector, f: Poly, g: Poly):
    """The six quarter-factor identities for holomorphic f, g, in order:
    {Re f, Re g}_R = Re{f, g}/4, {Re f, Re g}_I = Im{f, g}/4,
    {Im f, Im g}_R = -Re{f, g}/4, {Im f, Im g}_I = -Im{f, g}/4,
    {Re f, Im g}_R = Im{f, g}/4 and {Re f, Im g}_I = -Re{f, g}/4, for
    the brackets of pi_R and pi_I."""
    pair = decompose(pi)
    re_f, im_f = real_part(f), imaginary_part(f)
    re_g, im_g = real_part(g), imaginary_part(g)
    brack = poisson_bracket(pi, f, g)
    re_b, im_b = real_part(brack), imaginary_part(brack)
    quarter = GQ(Fraction(1, 4))
    return [
        poisson_bracket(pair.pi_R, re_f, re_g) == re_b.scale(quarter),
        poisson_bracket(pair.pi_I, re_f, re_g) == im_b.scale(quarter),
        poisson_bracket(pair.pi_R, im_f, im_g) == re_b.scale(-quarter),
        poisson_bracket(pair.pi_I, im_f, im_g) == im_b.scale(-quarter),
        poisson_bracket(pair.pi_R, re_f, im_g) == im_b.scale(quarter),
        poisson_bracket(pair.pi_I, re_f, im_g) == re_b.scale(-quarter),
    ]


# ----------------------------------------------------------------------
# library definitions that no command reaches, moved here

def convert_chart(f: Poly, target: Chart) -> Poly:
    """Ring isomorphism between real(n) and complex(n) polynomial charts
    (see _coordinate_images).  Converting to the chart already underfoot is
    the identity.
    """
    if f.chart.n != target.n:
        raise ChartError(
            f"dimension mismatch: {f.chart} cannot convert to {target}")
    if f.chart == target:
        return f
    return f.substitute(_coordinate_images(f.chart, target), target)


def is_conj_fixed(f: Poly) -> bool:
    """Reality test: f equals the conjugate of its complex-chart image."""
    if f.chart.is_complex():
        return f.conj() == f
    g = convert_chart(f, Chart.complex(f.chart.n))
    return g.conj() == g


def poisson_bracket(pihat: Multivector, f: Poly, g: Poly) -> Poly:
    """{f, g} = pihat(df, dg)."""
    if pihat.degree != 2:
        raise DegreeError("poisson_bracket needs a bivector")
    if f.chart != pihat.chart or g.chart != pihat.chart:
        raise ChartError("chart mismatch")
    return pairing(differential(g), sharp(pihat, differential(f)))


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
    if not report.all_ok:
        raise StructureError(
            f"gc_endomorphism needs a holomorphic Poisson bivector: {report}")
    n = pi.chart.n
    real_chart = Chart.real(n)
    pair = decompose(pi)
    msharp = poly_mat_scale(sharp_matrix(pair.pi_I), GQ(4))
    j = standard_j(real_chart)
    minus_jt = poly_mat_scale(poly_mat_transpose(j), GQ(-1))
    m = 2 * n
    zero = Poly.zero(real_chart)
    rows = []
    for r in range(m):
        rows.append(list(j[r]) + list(msharp[r]))
    for r in range(m):
        rows.append([zero] * m + list(minus_jt[r]))
    return rows


def gc_eigensection_check(pi: Multivector, section) -> bool:
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


def deform_by(a: AlgebroidChart, n) -> AlgebroidChart:
    """Deformed algebroid (rho o N, [., .]_N) for an endomorphism N, its
    square Poly matrix; requires vanishing torsion."""
    brackets = _deformation(a, n)
    if _torsion(a, n, brackets):
        raise StructureError("nonzero Nijenhuis torsion: deformation "
                             "does not yield a Lie algebroid")
    anchor = [a.anchor_field(image).coefficients()
              for image in poly_mat_transpose(n)]
    return AlgebroidChart.from_frame_brackets(
        a.chart, a.rank, anchor, lambda i, j: brackets[(i, j)])


# ----------------------------------------------------------------------
# frame changes between the complex and real charts (hand-typed tables)

def tangent_images_reference(source: Chart, target: Chart):
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


def cotangent_images_reference(source: Chart, target: Chart):
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


# ----------------------------------------------------------------------
# representation checks before the frame tables

class RepReport(Record):
    __slots__ = ("leibniz", "flat")


def check_representation_reference(rep) -> RepReport:
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


def matched_pair_F(mp, x, y) -> Multivector:
    """F(X;Y) = [a(X), b(Y)] + a(nabla_Y X) - b(nabla_X Y)."""
    ax = mp.A.anchor_field(x)
    by = mp.B.anchor_field(y)
    return (schouten(ax, by)
            + mp.A.anchor_field(mp.nablaBA.apply(y, x))
            - mp.B.anchor_field(mp.nablaAB.apply(x, y)))


def matched_pair_S(mp, x, y1, y2):
    """S(X;Y1,Y2) = [nabla_X Y1, Y2] + [Y1, nabla_X Y2] - nabla_X [Y1,Y2]
    + nabla_{nabla_{Y2} X} Y1 - nabla_{nabla_{Y1} X} Y2 (a B-section)."""
    b = mp.B
    t1 = b.bracket(mp.nablaAB.apply(x, y1), y2)
    t2 = b.bracket(y1, mp.nablaAB.apply(x, y2))
    t3 = mp.nablaAB.apply(x, b.bracket(y1, y2))
    t4 = mp.nablaAB.apply(mp.nablaBA.apply(y2, x), y1)
    t5 = mp.nablaAB.apply(mp.nablaBA.apply(y1, x), y2)
    return [a + bb - c + d - e for a, bb, c, d, e in zip(t1, t2, t3, t4, t5)]


def s_tensor_reference(mp) -> dict:
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


# ----------------------------------------------------------------------
# the canonical matched pair, computed from the Lie derivative and the
# Schouten bracket

def canonical_matched_pair_reference(pi: Multivector) -> MatchedPairData:
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


# ----------------------------------------------------------------------
# structural checks before the frame tables

def koszul_bracket(pihat: Multivector, alpha: Form, beta: Form) -> Form:
    """The koszul command's route: the Leibniz-extended bracket of the
    Koszul algebroid of pihat on the coefficient lists of the forms."""
    value = koszul_algebroid(pihat).bracket(alpha.coefficients(),
                                            beta.coefficients())
    return Form.from_components(pihat.chart, value)


def koszul_bracket_reference(pihat: Multivector, alpha: Form,
                             beta: Form) -> Form:
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


def bivector_from_matrix(chart: Chart, mat) -> Multivector:
    """Bivector with pi(e^a, e^b) = mat[a][b]; mat must be antisymmetric."""
    comps = {}
    m = chart.nvars
    for a in range(m):
        for b in range(a + 1, m):
            if not mat[a][b].is_zero():
                comps[(a, b)] = mat[a][b]
    return Multivector(chart, 2, comps)


def deformation_reference(a: AlgebroidChart, n):
    """The deformed brackets and the nonzero torsion values of an
    endomorphism n (its square Poly matrix) on the frame pairs (i < j) of
    a, both dicts keyed (i, j), through the generic bracket."""
    images = [poly_mat_vec(n, a.frame_section(i)) for i in range(a.rank)]
    brackets = {}
    torsion = {}
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            ei, ej = a.frame_section(i), a.frame_section(j)
            deformed = [x + y - z for x, y, z in zip(
                a.bracket(images[i], ej), a.bracket(ei, images[j]),
                poly_mat_vec(n, a.structure[i][j]))]
            brackets[(i, j)] = deformed
            value = [x - y for x, y in zip(a.bracket(images[i], images[j]),
                                           poly_mat_vec(n, deformed))]
            if not a.section_is_zero(value):
                torsion[(i, j)] = value
    return brackets, torsion


class EndoFieldReference:
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
                if type(entry) is not Poly and is_scalar(entry):
                    entry = Poly.const(chart, entry)
                if entry.chart != chart:
                    raise ChartError("matrix entry on wrong chart")
                new_row.append(entry)
            rows.append(new_row)
        self.chart = chart
        self.matrix = rows

    def apply_vec(self, x: Multivector) -> Multivector:
        if x.degree != 1 or x.chart != self.chart:
            raise ShapeError("EndoFieldReference acts on degree-1 fields of its chart")
        return Multivector.from_components(
            self.chart, poly_mat_vec(self.matrix, x.coefficients()))

    def apply_form(self, xi: Form) -> Form:
        """The transpose action N* on 1-forms: <N* xi, V> = <xi, N V>."""
        if xi.degree != 1 or xi.chart != self.chart:
            raise ShapeError("EndoFieldReference acts on degree-1 forms of its chart")
        return Form.from_components(
            self.chart,
            poly_mat_vec(poly_mat_transpose(self.matrix), xi.coefficients()))


def nijenhuis_torsion_apply_reference(n_field: EndoFieldReference,
                                      v: Multivector,
                                      w: Multivector) -> Multivector:
    """Torsion evaluated on two vector fields:
    [NV, NW] - N([NV, W] + [V, NW] - N [V, W])."""
    nv = n_field.apply_vec(v)
    nw = n_field.apply_vec(w)
    inner = (schouten(nv, w) + schouten(v, nw)
             - n_field.apply_vec(schouten(v, w)))
    return schouten(nv, nw) - n_field.apply_vec(inner)


def nijenhuis_torsion_reference(n_field: EndoFieldReference):
    """Torsion tensor on all frame pairs: dict (a, b) -> degree-1 field,
    for a < b, nonzero values only.  Antisymmetric by construction."""
    chart = n_field.chart
    m = chart.nvars
    out = {}
    for a in range(m):
        for b in range(a + 1, m):
            value = nijenhuis_torsion_apply_reference(
                n_field, Multivector.frame(chart, a),
                Multivector.frame(chart, b))
            if not value.is_zero():
                out[(a, b)] = value
    return out


def pn_check_reference(pi_i: Multivector, n_matrix,
                       schouten_zero=None) -> PNReport:
    """Poisson-Nijenhuis check of (pi_I, N) on a real chart, N a square
    matrix over the coordinate tangent frame.

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
    chart = pi_i.chart
    n_field = EndoFieldReference(chart, n_matrix)
    m = chart.nvars
    if schouten_zero is None:
        schouten_zero = schouten(pi_i, pi_i).is_zero()

    msharp = sharp_matrix(pi_i)
    lhs = poly_mat_mul(n_field.matrix, msharp)
    rhs = poly_mat_mul(msharp, poly_mat_transpose(n_field.matrix))
    sharp_intertwine = lhs == rhs

    torsion_zero = not nijenhuis_torsion_reference(n_field)

    # pi_N with pi_N# = pi# N*, i.e. component matrix N Pi (Pi, with
    # Pi[a][b] = pi(e^a, e^b), is the transpose of the sharp matrix),
    # antisymmetrized so the check stays defined when the intertwine
    # identity fails.
    npi = poly_mat_mul(n_field.matrix, poly_mat_transpose(msharp))
    anti = poly_mat_scale(poly_mat_sub(npi, poly_mat_transpose(npi)),
                          GQ(HALF))
    pi_n = bivector_from_matrix(chart, anti)

    bracket = koszul_bracket_reference
    koszul_compat = True
    coframe = [Form.frame(chart, k) for k in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            alpha, beta = coframe[a], coframe[b]
            lhs_form = bracket(pi_n, alpha, beta)
            rhs_form = (bracket(pi_i, n_field.apply_form(alpha), beta)
                        + bracket(pi_i, alpha, n_field.apply_form(beta))
                        - n_field.apply_form(bracket(pi_i, alpha, beta)))
            if lhs_form != rhs_form:
                koszul_compat = False
                break
        if not koszul_compat:
            break
    return PNReport(schouten_zero, sharp_intertwine, koszul_compat,
                    torsion_zero)


def realparts_liealgebra_check_reference(g) -> RealPartsReport:
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
        return [p.terms.get((), GQ(0)) for p in vals]

    ok_re = True
    ok_im = True
    for s in range(2 * r):
        for t in range(2 * r):
            es = doubled.frame_section(s)
            et = doubled.frame_section(t)
            bracket = constant_section(doubled.bracket(es, et))
            jbracket = constant_section(
                poly_mat_vec(realified.j, doubled.bracket(es, et)))
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


def yao_isomorphism_check_reference(pi: Multivector) -> YaoReport:
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
