import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopoisson.errors import ChartError, DegreeError, SingularError, StructureError
from holopoisson.exactalg import GQ, Chart, Poly, convert_chart
from holopoisson.linalg import (
    poly_mat_eq,
    poly_mat_mul,
    poly_mat_squares_to_minus_identity,
    poly_mat_transpose,
)
from holopoisson.multivec import (
    Form,
    Multivector,
    convert_alternating,
    differential,
    schouten,
    sharp,
    sharp_matrix,
)
from holopoisson.poisson import (
    EndoField,
    GCSection,
    courant_bracket,
    decompose,
    foliation_rank,
    gc_eigensection_check,
    gc_eigenspace_dimension,
    gc_endomorphism,
    is_holomorphic_poisson,
    koszul_bracket,
    multivector_conj,
    nijenhuis_torsion,
    nijenhuis_torsion_apply,
    pn_check,
    pn_check_complex,
    poisson_bracket,
    standard_j,
    symplectic_inverse,
)

from oracles import (
    multivector_conj_reference,
    rand_form,
    rand_multivector,
    rand_poly,
    recompose,
)

C2 = Chart.complex(2)
R2 = Chart.real(2)
QUARTER = GQ(Fraction(1, 4))


def frame_bivector(chart, a, b, coeff=None):
    one = Poly.one(chart) if coeff is None else coeff
    return Multivector(chart, 2, {(a, b): one})


def rand_bivector_20(rng, chart, holomorphic, deg=2):
    """Random (2,0) bivector: frame indices in the z-block only."""
    n = chart.n
    comps = {}
    from itertools import combinations
    for idx in combinations(range(n), 2):
        if rng.random() < 0.8:
            comps[idx] = rand_poly(rng, chart, deg=deg,
                                   holomorphic=holomorphic)
    return Multivector(chart, 2, comps)


# ----------------------------------------------------------------------
# is_holomorphic_poisson

def test_is_holomorphic_poisson_examples():
    pi = frame_bivector(C2, 0, 1)
    rep = is_holomorphic_poisson(pi)
    assert rep.dbar_zero and rep.schouten_zero
    bad = frame_bivector(C2, 0, 1, Poly.var(C2, 2))
    rep = is_holomorphic_poisson(bad)
    assert not rep.dbar_zero and rep.schouten_zero
    c3 = Chart.complex(3)
    pi3 = (frame_bivector(c3, 0, 1, Poly.var(c3, 0))
           + frame_bivector(c3, 1, 2, Poly.var(c3, 1)))
    rep = is_holomorphic_poisson(pi3)
    assert rep.dbar_zero
    from oracles import schouten_oracle
    assert rep.schouten_zero == schouten_oracle(pi3, pi3).is_zero()


def test_is_holomorphic_poisson_rejects_wrong_bidegree():
    with pytest.raises(DegreeError):
        is_holomorphic_poisson(Multivector.frame(C2, 0))
    with pytest.raises(DegreeError):
        is_holomorphic_poisson(frame_bivector(C2, 0, 2))


# ----------------------------------------------------------------------
# decompose

def test_decompose_darboux_values():
    pi = frame_bivector(C2, 0, 1, Poly.const(C2, -1))
    pair = decompose(pi)
    ex = [Multivector.frame(R2, k) for k in range(4)]
    want_r = (ex[0].wedge(ex[1]) - ex[2].wedge(ex[3])).scale(-QUARTER)
    want_i = (ex[0].wedge(ex[3]) + ex[2].wedge(ex[1])).scale(QUARTER)
    assert pair.pi_R == want_r
    assert pair.pi_I == want_i


def test_decompose_zero():
    pair = decompose(Multivector.zero(C2, 2))
    assert pair.pi_R.is_zero() and pair.pi_I.is_zero()


def test_decompose_of_i_pi_swaps_parts():
    rng = random.Random(5)
    pi = rand_bivector_20(rng, C2, holomorphic=True)
    pair = decompose(pi)
    pair_i = decompose(pi.scale(GQ.i()))
    assert pair_i.pi_R == -pair.pi_I
    assert pair_i.pi_I == pair.pi_R


def test_decompose_outputs_conj_fixed_and_recompose():
    rng = random.Random(7)
    for _ in range(10):
        pi = rand_bivector_20(rng, C2, holomorphic=rng.random() < 0.5)
        pair = decompose(pi)
        for part in (pair.pi_R, pair.pi_I):
            back = convert_alternating(part, C2)
            assert multivector_conj(back) == back
        # pi_R + i pi_I = pi plus its conjugate's contribution:
        # the (2,0) part of the recomposition is pi itself
        total = recompose(pair)
        n = C2.n
        part20 = Multivector(C2, 2, {idx: c for idx, c in total.comps.items()
                                     if all(k < n for k in idx)})
        assert part20 == pi


@st.composite
def complex_multivectors(draw):
    """A multivector of any degree on C^1..C^3 whose components, with
    Gaussian-integer coefficients in z and zb, have every bidegree."""
    from itertools import combinations
    chart = Chart.complex(draw(st.integers(1, 3)))
    degree = draw(st.integers(0, chart.nvars))
    frames = list(combinations(range(chart.nvars), degree))
    chosen = draw(st.lists(st.sampled_from(frames), max_size=5, unique=True))
    small = st.integers(-3, 3)
    exps = st.tuples(*[st.integers(0, 2)] * chart.nvars)
    comps = {}
    for idx in chosen:
        terms = draw(st.dictionaries(exps, st.tuples(small, small),
                                     min_size=1, max_size=3))
        comps[idx] = Poly(chart, {e: GQ(re, im)
                                  for e, (re, im) in terms.items()})
    return Multivector(chart, degree, comps)


@settings(max_examples=200, deadline=None)
@given(complex_multivectors())
def test_multivector_conj_matches_reference(P):
    """The merge_indices sign equals the permutation sign of the frozen
    reference, and conjugation is an involution."""
    conj = multivector_conj(P)
    assert conj == multivector_conj_reference(P)
    assert multivector_conj(conj) == P


def test_decompose_jacobi_parts_when_holomorphic():
    rng = random.Random(11)
    c3 = Chart.complex(3)
    # linear sl2-type Poisson structure: parts must each satisfy Jacobi
    z1, z2, z3 = (Poly.var(c3, k) for k in range(3))
    pi = (frame_bivector(c3, 0, 1, z2.scale(2))
          + frame_bivector(c3, 0, 2, z3.scale(-2))
          + frame_bivector(c3, 1, 2, z1))
    assert is_holomorphic_poisson(pi).holomorphic_poisson
    pair = decompose(pi)
    assert schouten(pair.pi_R, pair.pi_R).is_zero()
    assert schouten(pair.pi_I, pair.pi_I).is_zero()


# ----------------------------------------------------------------------
# poisson bracket

def test_poisson_bracket_examples():
    pi = frame_bivector(C2, 0, 1, Poly.const(C2, -1))
    z1, z2 = Poly.var(C2, 0), Poly.var(C2, 1)
    assert poisson_bracket(pi, z1, z2) == Poly.const(C2, -1)
    rng = random.Random(13)
    for _ in range(10):
        f = rand_poly(rng, C2)
        assert poisson_bracket(pi, f, f).is_zero()


def test_poisson_bracket_cor24_quarter_identities():
    rng = random.Random(17)
    for _ in range(15):
        pi = rand_bivector_20(rng, C2, holomorphic=True)
        pair = decompose(pi)
        f = rand_poly(rng, C2, deg=3, holomorphic=True)
        g = rand_poly(rng, C2, deg=3, holomorphic=True)
        brack = poisson_bracket(pi, f, g)
        re_f = convert_chart((f + f.conj()).scale(GQ(Fraction(1, 2))), R2)
        im_f = convert_chart((f - f.conj()).scale(GQ(0, Fraction(-1, 2))), R2)
        re_g = convert_chart((g + g.conj()).scale(GQ(Fraction(1, 2))), R2)
        im_g = convert_chart((g - g.conj()).scale(GQ(0, Fraction(-1, 2))), R2)
        re_b = convert_chart((brack + brack.conj()).scale(GQ(Fraction(1, 2))), R2)
        im_b = convert_chart((brack - brack.conj()).scale(GQ(0, Fraction(-1, 2))), R2)
        assert poisson_bracket(pair.pi_R, re_f, re_g) == re_b.scale(QUARTER)
        assert poisson_bracket(pair.pi_I, re_f, re_g) == im_b.scale(QUARTER)
        assert poisson_bracket(pair.pi_R, im_f, im_g) == re_b.scale(-QUARTER)
        assert poisson_bracket(pair.pi_I, im_f, im_g) == im_b.scale(-QUARTER)
        assert poisson_bracket(pair.pi_R, re_f, im_g) == im_b.scale(QUARTER)
        assert poisson_bracket(pair.pi_I, re_f, im_g) == re_b.scale(-QUARTER)


# ----------------------------------------------------------------------
# koszul bracket

def test_koszul_exact_forms_give_bracket_differential():
    rng = random.Random(19)
    pi = frame_bivector(C2, 0, 1)
    for _ in range(10):
        f = rand_poly(rng, C2)
        g = rand_poly(rng, C2)
        lhs = koszul_bracket(pi, differential(f), differential(g))
        assert lhs == differential(poisson_bracket(pi, f, g))


def test_koszul_antisymmetry():
    rng = random.Random(23)
    for _ in range(10):
        pi = rand_multivector(rng, C2, 2)
        alpha = rand_form(rng, C2, 1)
        assert koszul_bracket(pi, alpha, alpha).is_zero()


def test_koszul_z3_example():
    c3 = Chart.complex(3)
    pi = frame_bivector(c3, 0, 1, Poly.var(c3, 2))
    value = koszul_bracket(pi, Form.frame(c3, 0), Form.frame(c3, 1))
    assert value == Form.frame(c3, 2)


# ----------------------------------------------------------------------
# Nijenhuis torsion

def test_torsion_identity_and_standard_j():
    eye = EndoField(R2, [[Poly.const(R2, 1 if i == j else 0)
                          for j in range(4)] for i in range(4)])
    assert nijenhuis_torsion(eye) == {}
    assert nijenhuis_torsion(standard_j(R2)) == {}


def test_torsion_shear_matches_direct_evaluation():
    x1, x2 = Poly.var(R2, 0), Poly.var(R2, 1)
    rows = [[Poly.const(R2, 1 if i == j else 0) for j in range(4)]
            for i in range(4)]
    rows[1][0] = x1  # coupled coordinate-dependent shears
    rows[0][1] = x2
    shear = EndoField(R2, rows)
    torsion = nijenhuis_torsion(shear)
    assert set(torsion) == {(0, 1)}
    assert torsion[(0, 1)] == (Multivector.frame(R2, 0).scale(x1)
                               - Multivector.frame(R2, 1).scale(x2))
    for (a, b), value in torsion.items():
        direct = nijenhuis_torsion_apply(shear, Multivector.frame(R2, a),
                                         Multivector.frame(R2, b))
        assert value == direct


def test_torsion_is_tensorial():
    rng = random.Random(29)
    shear = EndoField(R2, [[rand_poly(rng, R2, deg=1) for _ in range(4)]
                           for _ in range(4)])
    f = rand_poly(rng, R2, deg=2)
    v = rand_multivector(rng, R2, 1)
    w = rand_multivector(rng, R2, 1)
    lhs = nijenhuis_torsion_apply(shear, v.scale(f), w)
    assert lhs == nijenhuis_torsion_apply(shear, v, w).scale(f)
    lhs = nijenhuis_torsion_apply(shear, v, w.scale(f))
    assert lhs == nijenhuis_torsion_apply(shear, v, w).scale(f)


def test_torsion_antisymmetry():
    rng = random.Random(31)
    endo = EndoField(R2, [[rand_poly(rng, R2, deg=1) for _ in range(4)]
                          for _ in range(4)])
    v = rand_multivector(rng, R2, 1)
    w = rand_multivector(rng, R2, 1)
    assert nijenhuis_torsion_apply(endo, v, w) == -nijenhuis_torsion_apply(endo, w, v)


# ----------------------------------------------------------------------
# pn_check and the PNGC equivalence

def test_pn_check_examples():
    pair = decompose(frame_bivector(C2, 0, 1))
    rep = pn_check(pair.pi_I, standard_j(R2))
    assert rep.all_ok
    rep = pn_check(Multivector.zero(R2, 2), standard_j(R2))
    assert rep.all_ok
    bad_pair = decompose(frame_bivector(C2, 0, 1, Poly.var(C2, 2)))
    rep = pn_check(bad_pair.pi_I, standard_j(R2))
    assert not rep.all_ok


def test_pn_check_rejects_non_poisson_pi_i():
    # z1 d1^d2 + z2 d1^d3 on C^3 is holomorphic but [pi, pi] != 0; the
    # compatibility verdicts alone do not see it
    c3 = Chart.complex(3)
    pi = Multivector(c3, 2, {(0, 1): Poly.var(c3, 0),
                             (0, 2): Poly.var(c3, 1)})
    assert not is_holomorphic_poisson(pi).schouten_zero
    rep = pn_check_complex(pi)
    assert rep.sharp_intertwine and rep.koszul_compat and rep.torsion_zero
    assert not rep.schouten_zero and not rep.all_ok
    # the real-chart bracket of pi_I gives the same verdicts
    pair = decompose(pi)
    assert pn_check(pair.pi_I, standard_j(pair.pi_I.chart)) == rep


def test_pn_check_complex_schouten_matches_real_chart():
    rng = random.Random(53)
    c3 = Chart.complex(3)
    for holomorphic in (True, True, False):
        pi = rand_bivector_20(rng, c3, holomorphic=holomorphic, deg=1)
        pi_i = decompose(pi).pi_I
        assert (pn_check_complex(pi).schouten_zero
                == schouten(pi_i, pi_i).is_zero())


def test_pn_check_requires_real_chart():
    with pytest.raises(ChartError):
        pn_check(frame_bivector(C2, 0, 1), standard_j(C2))


def test_pngc_equivalence_small_sample():
    # the full >= 200 case suite runs in the acceptance module
    rng = random.Random(37)
    j = standard_j(R2)
    jt = poly_mat_transpose(j.matrix)
    for trial in range(40):
        pi = rand_bivector_20(rng, C2, holomorphic=rng.random() < 0.5,
                              deg=2)
        rep = is_holomorphic_poisson(pi)
        pair = decompose(pi)
        pn = pn_check(pair.pi_I, j)
        sharp_rel = poly_mat_eq(sharp_matrix(pair.pi_R),
                                poly_mat_mul(sharp_matrix(pair.pi_I), jt))
        assert sharp_rel  # automatic for (2,0) input (Lemma content)
        assert rep.holomorphic_poisson == (pn.all_ok and sharp_rel)


def test_lemma_membership_sharp_relation():
    # pi in Lambda^2 T^{1,0} iff pi_R# = pi_I# o J*
    rng = random.Random(41)
    j = standard_j(R2)
    jt = poly_mat_transpose(j.matrix)
    from itertools import combinations
    for trial in range(25):
        comps = {}
        for idx in combinations(range(4), 2):
            if rng.random() < 0.6:
                comps[idx] = rand_poly(rng, C2, deg=1)
        pi = Multivector(C2, 2, comps)
        is_20 = all(k < 2 for idx in pi.comps for k in idx)
        conj_pi = multivector_conj(pi)
        half = GQ(Fraction(1, 2))
        pi_r = convert_alternating((pi + conj_pi).scale(half), R2)
        pi_i = convert_alternating((pi - conj_pi).scale(GQ(0, Fraction(-1, 2))), R2)
        rel = poly_mat_eq(sharp_matrix(pi_r),
                          poly_mat_mul(sharp_matrix(pi_i), jt))
        assert rel == is_20


# ----------------------------------------------------------------------
# generalized complex structure

def test_gc_block_structure_and_square():
    pi = Multivector.zero(C2, 2)
    mat = gc_endomorphism(pi)
    j = standard_j(R2).matrix
    for r in range(4):
        for c in range(4):
            assert mat[r][c] == j[r][c]
            assert mat[r][4 + c].is_zero()
            assert mat[4 + r][c].is_zero()
    assert poly_mat_squares_to_minus_identity(mat)
    # the top-right block is 4 pi_I#
    pi = frame_bivector(C2, 0, 1)
    mat = gc_endomorphism(pi)
    four_sharp = sharp_matrix(decompose(pi).pi_I.scale(GQ(4)))
    assert [row[4:] for row in mat[:4]] == four_sharp
    assert poly_mat_squares_to_minus_identity(mat)


def test_gc_rejects_non_poisson():
    with pytest.raises(StructureError):
        gc_endomorphism(frame_bivector(C2, 0, 1, Poly.var(C2, 2)))


def test_gc_eigen_sections():
    rng = random.Random(43)
    for pi in (Multivector.zero(C2, 2), frame_bivector(C2, 0, 1),
               frame_bivector(C2, 0, 1, Poly.var(C2, 0))):
        if not is_holomorphic_poisson(pi).holomorphic_poisson:
            continue
        # (X01, 0) is always a -i eigenvector
        x01 = Multivector(C2, 1, {(2,): rand_poly(rng, C2),
                                  (3,): rand_poly(rng, C2)})
        sec = GCSection(x01, Form.zero(C2, 1))
        assert gc_eigensection_check(pi, sec)
        # (pi# xi10, xi10) likewise
        xi = Form(C2, 1, {(0,): rand_poly(rng, C2), (1,): rand_poly(rng, C2)})
        sec = GCSection(sharp(pi, xi), xi)
        assert gc_eigensection_check(pi, sec)
        # a (1,0) vector field alone is not in the eigenbundle
        bad = GCSection(Multivector.frame(C2, 0), Form.zero(C2, 1))
        assert not gc_eigensection_check(pi, bad)


def test_gc_eigenspace_dimension_generic_point():
    pi = frame_bivector(C2, 0, 1)
    assert gc_eigenspace_dimension(pi, [0, 0, 0, 0]) == 4
    linear = frame_bivector(C2, 0, 1, Poly.var(C2, 0))
    assert gc_eigenspace_dimension(linear, [1, 0, 0, 0]) == 4


# ----------------------------------------------------------------------
# Courant bracket

def test_courant_examples():
    e1 = GCSection(Multivector.frame(C2, 0), Form.zero(C2, 1))
    e2 = GCSection(Multivector.frame(C2, 1), Form.zero(C2, 1))
    out = courant_bracket(e1, e2)
    assert out.vec.is_zero() and out.form.is_zero()
    eta = GCSection(Multivector.zero(C2, 1),
                    Form(C2, 1, {(1,): Poly.var(C2, 0)}))
    out = courant_bracket(e1, eta)
    assert out.vec.is_zero()
    assert out.form == Form.frame(C2, 1)


def test_courant_antisymmetry():
    rng = random.Random(47)
    for _ in range(15):
        e = GCSection(rand_multivector(rng, C2, 1), rand_form(rng, C2, 1))
        out = courant_bracket(e, e)
        assert out.vec.is_zero() and out.form.is_zero()
        f = GCSection(rand_multivector(rng, C2, 1), rand_form(rng, C2, 1))
        ef = courant_bracket(e, f)
        fe = courant_bracket(f, e)
        assert ef.vec == -fe.vec and ef.form == -fe.form


def test_courant_reproduces_koszul_on_hamiltonian_pairs():
    rng = random.Random(53)
    pi = frame_bivector(C2, 0, 1)
    for _ in range(10):
        f = rand_poly(rng, C2, holomorphic=True)
        g = rand_poly(rng, C2, holomorphic=True)
        alpha, beta = differential(f), differential(g)
        e1 = GCSection(sharp(pi, alpha), alpha)
        e2 = GCSection(sharp(pi, beta), beta)
        out = courant_bracket(e1, e2)
        assert out.form == koszul_bracket(pi, alpha, beta)


def test_courant_closes_on_dirac_sections():
    rng = random.Random(59)
    for pi in (frame_bivector(C2, 0, 1),
               frame_bivector(C2, 0, 1, Poly.var(C2, 0))):
        for _ in range(8):
            def dirac_section():
                x01 = Multivector(C2, 1, {(2,): rand_poly(rng, C2),
                                          (3,): rand_poly(rng, C2)})
                xi = Form(C2, 1, {(0,): rand_poly(rng, C2),
                                  (1,): rand_poly(rng, C2)})
                return GCSection(x01 + sharp(pi, xi), xi)
            out = courant_bracket(dirac_section(), dirac_section())
            assert gc_eigensection_check(pi, out)


# ----------------------------------------------------------------------
# symplectic inversion

def test_symplectic_inverse_darboux():
    om = Form(C2, 2, {(0, 1): Poly.one(C2)})
    assert symplectic_inverse(om) == frame_bivector(C2, 0, 1,
                                                    Poly.const(C2, -1))


def test_symplectic_inverse_factor_identities():
    # Darboux normal forms: omega_R^{-1} = 4 pi_R, omega_I^{-1} = -4 pi_I
    for n in (1, 2):
        chart = Chart.complex(2 * n)
        real = Chart.real(2 * n)
        pi = Multivector(chart, 2, {(k, n + k): Poly.const(chart, -1)
                                    for k in range(n)})
        pair = decompose(pi)
        dx = [Form.frame(real, k) for k in range(4 * n)]
        omega_r = Form.zero(real, 2)
        omega_i = Form.zero(real, 2)
        for k in range(n):
            xp, xq = k, n + k
            yp, yq = 2 * n + k, 3 * n + k
            omega_r = omega_r + dx[xp].wedge(dx[xq]) - dx[yp].wedge(dx[yq])
            omega_i = omega_i + dx[xp].wedge(dx[yq]) + dx[yp].wedge(dx[xq])
        assert symplectic_inverse(omega_r) == pair.pi_R.scale(GQ(4))
        assert symplectic_inverse(omega_i) == pair.pi_I.scale(GQ(-4))


def test_symplectic_inverse_flat_sharp_identity():
    rng = random.Random(61)
    for _ in range(10):
        comps = {}
        from itertools import combinations
        for idx in combinations(range(4), 2):
            comps[idx] = Poly.const(R2, GQ(rng.randint(-3, 3),
                                           rng.randint(-2, 2)))
        om = Form(R2, 2, comps)
        try:
            pi = symplectic_inverse(om)
        except SingularError:
            continue
        # omega_flat(pi_sharp(xi)) = xi for all coframe elements
        for k in range(4):
            xi = Form.frame(R2, k)
            v = sharp(pi, xi)
            from holopoisson.multivec import interior
            back = interior(v, om)
            assert back == xi


def test_symplectic_inverse_rejects_degenerate_and_nonconstant():
    with pytest.raises(SingularError):
        symplectic_inverse(Form.zero(R2, 2))
    with pytest.raises(StructureError):
        symplectic_inverse(Form(R2, 2, {(0, 1): Poly.var(R2, 0)}))


# ----------------------------------------------------------------------
# foliation ranks

def test_foliation_rank_examples():
    pi = frame_bivector(C2, 0, 1)
    rep = foliation_rank(pi, [0, 0, 0, 0])
    assert rep.rank_R == rep.rank_I == 4 and rep.images_equal
    rep = foliation_rank(Multivector.zero(C2, 2), [0, 0, 0, 0])
    assert rep.rank_R == rep.rank_I == 0 and rep.images_equal
    linear = frame_bivector(C2, 0, 1, Poly.var(C2, 0))
    rep = foliation_rank(linear, [0, 0, 0, 0])
    assert rep.rank_R == rep.rank_I == 0
    rep = foliation_rank(linear, [1, GQ("1/2"), 0, 2])
    assert rep.rank_R == rep.rank_I == 4 and rep.images_equal


def test_foliation_rank_random_points_images_coincide():
    rng = random.Random(67)
    c3 = Chart.complex(3)
    z1, z2, z3 = (Poly.var(c3, k) for k in range(3))
    pi = (frame_bivector(c3, 0, 1, z2.scale(2))
          + frame_bivector(c3, 0, 2, z3.scale(-2))
          + frame_bivector(c3, 1, 2, z1))
    for _ in range(8):
        point = [GQ(rng.randint(-2, 2), 0) for _ in range(6)]
        rep = foliation_rank(pi, point)
        assert rep.rank_R == rep.rank_I
        assert rep.images_equal


def test_foliation_rank_dimension_check():
    with pytest.raises(ChartError):
        foliation_rank(frame_bivector(C2, 0, 1), [0, 0])
