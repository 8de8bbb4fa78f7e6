import random

import pytest

from holopoisson.algebroid import (
    AlgebroidChart,
    EndoOnAlgebroid,
    LieAlgebraData,
    MatchedPairData,
    RepData,
    antiholomorphic_tangent,
    bowtie,
    canonical_matched_pair,
    check_representation,
    complex_presentation,
    cotangent_algebroid,
    deform_by,
    koszul_algebroid,
    lie_poisson,
    matched_pair_F,
    matched_pair_S,
    matched_pair_tensors,
    nijenhuis_torsion_algebroid,
    realify_liealgebra,
    realparts_liealgebra_check,
    verify_algebroid,
    yao_isomorphism_check,
)
from holopoisson.errors import StructureError
from holopoisson.exactalg import GQ, Chart, Poly
from holopoisson.linalg import (
    poly_mat_squares_to_minus_identity,
    poly_mat_transpose,
)
from holopoisson.multivec import Form, Multivector
from holopoisson.poisson import (
    decompose,
    is_holomorphic_poisson,
    koszul_bracket,
    poisson_bracket,
    standard_j,
)

from oracles import (
    conjugate_by_signs,
    lie_algebra_algebroid,
    rand_poly,
    realified_cotangent,
    tangent_algebroid,
)

C2 = Chart.complex(2)
C3 = Chart.complex(3)
R2 = Chart.real(2)


def sl2():
    return LieAlgebraData.from_triples(
        3, [(1, 2, 2, GQ(2)), (1, 3, 3, GQ(-2)), (2, 3, 1, GQ(1))])


def heisenberg():
    return LieAlgebraData.from_triples(3, [(1, 2, 3, GQ(1))])


def sl2_pi():
    return lie_poisson(sl2())


def frame_bivector(chart, a, b, coeff=None):
    one = Poly.one(chart) if coeff is None else coeff
    return Multivector(chart, 2, {(a, b): one})


# ----------------------------------------------------------------------
# verification

def test_tangent_algebroid_verifies():
    rep = verify_algebroid(tangent_algebroid(C2))
    assert rep.jacobi and rep.anchor_morphism


def test_sl2_constants_verify():
    rep = verify_algebroid(lie_algebra_algebroid(sl2()))
    assert rep.jacobi and rep.anchor_morphism


def test_perturbed_sl2_fails_jacobi():
    bad = LieAlgebraData.from_triples(
        3, [(1, 2, 2, GQ(2)), (1, 3, 3, GQ(-2)), (2, 3, 1, GQ(1)),
            (1, 2, 1, GQ(1))])
    assert not bad.jacobi_ok()
    rep = verify_algebroid(lie_algebra_algebroid(bad))
    assert not rep.jacobi and rep.anchor_morphism


def test_anchor_morphism_failure_detected():
    # identity anchor but sl2 brackets on a 3-of-4 frame: not a morphism
    chart = R2
    anchor = [[Poly.const(chart, 1 if i == j else 0) for j in range(4)]
              for i in range(3)]
    g = sl2()
    structure = [[[Poly.const(chart, v) for v in vec] for vec in row]
                 for row in g.c]
    a = AlgebroidChart(chart, 3, anchor, structure)
    rep = verify_algebroid(a)
    assert not rep.anchor_morphism


# ----------------------------------------------------------------------
# torsion / deformation

def test_torsion_identity_endo():
    t = tangent_algebroid(C2)
    eye = EndoOnAlgebroid(t, [[Poly.const(C2, 1 if i == j else 0)
                               for j in range(4)] for i in range(4)])
    assert nijenhuis_torsion_algebroid(t, eye) == {}
    assert deform_by(t, eye) == t


def test_realified_j_torsion_vanishes():
    for g in (sl2(), heisenberg()):
        real = realify_liealgebra(g)
        assert nijenhuis_torsion_algebroid(real.algebroid, real.j) == {}
        assert poly_mat_squares_to_minus_identity(real.j.matrix)


def test_torsion_nonzero_on_random_endo():
    rng = random.Random(71)
    t = tangent_algebroid(R2)
    found = False
    for _ in range(10):
        endo = EndoOnAlgebroid(t, [[rand_poly(rng, R2, deg=1)
                                    for _ in range(4)] for _ in range(4)])
        torsion = nijenhuis_torsion_algebroid(t, endo)
        # cross-check each entry against the defining expression
        for (i, j), value in torsion.items():
            ei, ej = t.frame_section(i), t.frame_section(j)
            nei, nej = endo.apply(ei), endo.apply(ej)
            inner = [a + b - c for a, b, c in zip(
                t.bracket(nei, ej), t.bracket(ei, nej),
                endo.apply(t.bracket(ei, ej)))]
            direct = [a - b for a, b in zip(t.bracket(nei, nej),
                                            endo.apply(inner))]
            assert value == direct
        if torsion:
            found = True
            with pytest.raises(StructureError):
                deform_by(t, endo)
    assert found


def test_deform_by_j_on_clinear_algebra_is_j_bracket():
    real = realify_liealgebra(sl2())
    deformed = deform_by(real.algebroid, real.j)
    for a in range(6):
        for b in range(6):
            want = real.j.apply(real.algebroid.structure[a][b])
            assert deformed.structure[a][b] == want
    assert verify_algebroid(deformed).all_ok


def test_deform_by_standard_j_on_tangent():
    t = tangent_algebroid(R2)
    j = EndoOnAlgebroid(t, standard_j(R2).matrix)
    deformed = deform_by(t, j)
    # anchor becomes J itself; brackets of the flat frame stay zero
    for i in range(4):
        row = deformed.anchor[i]
        want = standard_j(R2).apply_vec(Multivector.frame(R2, i)).coefficients()
        assert row == want
    assert all(deformed.section_is_zero(deformed.structure[i][j])
               for i in range(4) for j in range(4))
    assert verify_algebroid(deformed).all_ok


def test_double_deformation_negates():
    # with j^2 = -1 and C-linearity, deforming twice negates bracket/anchor
    real = realify_liealgebra(sl2())
    once = deform_by(real.algebroid, EndoOnAlgebroid(real.algebroid,
                                                     real.j.matrix))
    j_on_once = EndoOnAlgebroid(once, real.j.matrix)
    assert nijenhuis_torsion_algebroid(once, j_on_once) == {}
    twice = deform_by(once, j_on_once)
    for a in range(6):
        for b in range(6):
            want = [-p for p in real.algebroid.structure[a][b]]
            assert twice.structure[a][b] == want


# ----------------------------------------------------------------------
# cotangent algebroid

def test_cotangent_algebroid_zero_pi():
    b = cotangent_algebroid(Multivector.zero(C2, 2))
    assert all(p.is_zero() for row in b.anchor for p in row)
    assert all(b.section_is_zero(b.structure[i][j])
               for i in range(2) for j in range(2))


def test_cotangent_algebroid_constant_pi():
    pi = frame_bivector(C2, 0, 1)
    b = cotangent_algebroid(pi)
    assert verify_algebroid(b).all_ok
    assert all(b.section_is_zero(b.structure[i][j])
               for i in range(2) for j in range(2))
    # anchor = pi sharp on the coframe
    from holopoisson.multivec import sharp
    for i in range(2):
        assert b.anchor_field(b.frame_section(i)) == sharp(pi, Form.frame(C2, i))
    # frame brackets match the Koszul bracket (d-part equals full d here)
    for i in range(2):
        for j in range(2):
            kb = koszul_bracket(pi, Form.frame(C2, i), Form.frame(C2, j))
            assert Form(C2, 1, {(k,): p for k, p in
                                enumerate(b.structure[i][j])
                                if not p.is_zero()}) == kb


def test_cotangent_algebroid_sl2_reproduces_constants():
    b = cotangent_algebroid(sl2_pi())
    g = sl2()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert b.structure[i][j][k] == Poly.const(C3, g.c[i][j][k])
    assert verify_algebroid(b).all_ok


def test_cotangent_rejects_non_poisson():
    with pytest.raises(StructureError):
        cotangent_algebroid(frame_bivector(C2, 0, 1, Poly.var(C2, 2)))


# ----------------------------------------------------------------------
# Lie-Poisson duality

def test_lie_poisson_abelian_and_examples():
    abelian = LieAlgebraData.from_triples(2, [])
    assert lie_poisson(abelian).is_zero()
    pi = sl2_pi()
    assert is_holomorphic_poisson(pi).holomorphic_poisson
    z = [Poly.var(C3, k) for k in range(3)]
    assert poisson_bracket(pi, z[0], z[1]) == z[1].scale(2)
    assert poisson_bracket(pi, z[0], z[2]) == z[2].scale(-2)
    assert poisson_bracket(pi, z[1], z[2]) == z[0]
    heis_pi = lie_poisson(heisenberg())
    assert heis_pi == frame_bivector(C3, 0, 1, Poly.var(C3, 2))


def test_lie_poisson_structure_constants_roundtrip():
    rng = random.Random(73)
    g = sl2()
    pi = lie_poisson(g)
    z = [Poly.var(C3, k) for k in range(3)]
    for i in range(3):
        for j in range(3):
            want = Poly.zero(C3)
            for k in range(3):
                want = want + z[k].scale(g.c[i][j][k])
            assert poisson_bracket(pi, z[i], z[j]) == want


def test_lie_poisson_rejects_non_jacobi():
    bad = LieAlgebraData.from_triples(
        3, [(1, 2, 2, GQ(2)), (1, 3, 3, GQ(-2)), (2, 3, 1, GQ(1)),
            (1, 2, 1, GQ(1))])
    with pytest.raises(StructureError):
        lie_poisson(bad)


def test_cotangent_of_lie_poisson_is_lie_poisson_duality():
    # duality round-trip: structure functions of the cotangent
    # algebroid of the linear Poisson structure are the Lie constants
    g = heisenberg()
    b = cotangent_algebroid(lie_poisson(g))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert b.structure[i][j][k] == Poly.const(C3, g.c[i][j][k])


# ----------------------------------------------------------------------
# realification and the quarter-factor identities

def test_realify_abelian():
    g = LieAlgebraData.from_triples(1, [])
    real = realify_liealgebra(g)
    assert real.algebroid.rank == 2
    assert all(real.algebroid.section_is_zero(real.algebroid.structure[i][j])
               for i in range(2) for j in range(2))


def test_realify_sl2_jacobi_and_recovery():
    real = realify_liealgebra(sl2())
    assert verify_algebroid(real.algebroid).all_ok


def test_realparts_identities():
    assert realparts_liealgebra_check(sl2()).all_ok
    assert realparts_liealgebra_check(heisenberg()).all_ok
    assert realparts_liealgebra_check(LieAlgebraData.from_triples(2, [])).all_ok


def test_realparts_rejects_non_clinear_j():
    # so(3): the bracket is NOT C-linear for the "rotation" j in the
    # (e1, e2) plane, so the explicit-j precondition must reject it
    so3 = LieAlgebraData.from_triples(
        3, [(1, 2, 3, GQ(1)), (2, 3, 1, GQ(1)), (3, 1, 2, GQ(1))],
        j=None)
    jm = [[GQ(0), GQ(-1), GQ(0)], [GQ(1), GQ(0), GQ(0)],
          [GQ(0), GQ(0), GQ(0)]]
    with_j = LieAlgebraData(3, so3.c, jm)
    with pytest.raises(StructureError):
        realparts_liealgebra_check(with_j)


def test_complex_presentation_roundtrip_through_realified_data():
    g = sl2()
    real = realify_liealgebra(g)
    # rebuild LieAlgebraData from the realified algebroid constants
    chart = real.algebroid.chart
    c = [[[real.algebroid.structure[i][j][k].terms.get((), GQ(0))
           for k in range(6)] for j in range(6)] for i in range(6)]
    jm = [[real.j.matrix[r][s].terms.get((), GQ(0)) for s in range(6)]
          for r in range(6)]
    doubled = LieAlgebraData(6, c, jm)
    gc = complex_presentation(doubled)
    assert gc.rank == 3
    # same Lie-Poisson brackets up to the extracted basis: verify Jacobi
    # and that realparts still pass through the extraction path
    assert gc.jacobi_ok()
    assert realparts_liealgebra_check(doubled).all_ok


# ----------------------------------------------------------------------
# representations

def test_zero_connection_on_abelian_pair():
    chart = Chart.real(0)
    abelian = lie_algebra_algebroid(LieAlgebraData.from_triples(2, []))
    gamma = [[abelian.zero_section() for _ in range(2)] for _ in range(2)]
    rep = RepData(abelian, abelian, gamma)
    out = check_representation(rep)
    assert out.leibniz and out.flat


def test_canonical_reps_are_flat():
    pi = frame_bivector(C2, 0, 1)
    mp = canonical_matched_pair(pi)
    assert check_representation(mp.nablaAB).all_ok
    assert check_representation(mp.nablaBA).all_ok


def test_perturbed_gamma_breaks_flatness():
    pi = sl2_pi()
    mp = canonical_matched_pair(pi)
    gamma = [[list(vec) for vec in row] for row in mp.nablaBA.gamma]
    gamma[0][1][2] = gamma[0][1][2] + Poly.var(C3, 0)
    rep = RepData(mp.B, mp.A, gamma)
    out = check_representation(rep)
    assert not out.flat


# ----------------------------------------------------------------------
# matched pairs

def test_canonical_matched_pair_tensors_vanish():
    for pi in (Multivector.zero(C2, 2), frame_bivector(C2, 0, 1),
               sl2_pi(),
               frame_bivector(C2, 0, 1, Poly.var(C2, 0) * Poly.var(C2, 0))):
        mp = canonical_matched_pair(pi)
        assert matched_pair_tensors(mp).all_zero


def test_perturbed_nabla_gives_nonzero_tensor():
    pi = frame_bivector(C2, 0, 1)
    mp = canonical_matched_pair(pi)
    gamma = [[list(vec) for vec in row] for row in mp.nablaAB.gamma]
    gamma[0][0][1] = gamma[0][0][1] + Poly.one(C2)
    perturbed = MatchedPairData(mp.A, mp.B,
                                RepData(mp.A, mp.B, gamma), mp.nablaBA)
    tensors = matched_pair_tensors(perturbed)
    assert not tensors.all_zero
    with pytest.raises(StructureError):
        bowtie(perturbed)


def test_tensoriality_with_correction_terms():
    rng = random.Random(79)
    pi = sl2_pi()
    mp = canonical_matched_pair(pi)
    chart = C3
    f = rand_poly(rng, chart, deg=2)
    for _ in range(6):
        x = [rand_poly(rng, chart, deg=1) for _ in range(3)]
        y = [rand_poly(rng, chart, deg=1) for _ in range(3)]
        y2 = [rand_poly(rng, chart, deg=1) for _ in range(3)]
        fx = [f * p for p in x]
        fy = [f * p for p in y]
        # F is f-linear in both slots
        assert matched_pair_F(mp, fx, y) == matched_pair_F(mp, x, y).scale(f)
        assert matched_pair_F(mp, x, fy) == matched_pair_F(mp, x, y).scale(f)
        # S(fX; Y1, Y2) = f S(X; Y1, Y2)
        lhs = matched_pair_S(mp, fx, y, y2)
        rhs = [f * p for p in matched_pair_S(mp, x, y, y2)]
        assert lhs == rhs
        # S(X; fY1, Y2) = f S(X;Y1,Y2) + F(X;Y2)(f) Y1
        lhs = matched_pair_S(mp, x, fy, y2)
        correction = matched_pair_F(mp, x, y2).apply_to(f)
        rhs = [f * p + correction * q
               for p, q in zip(matched_pair_S(mp, x, y, y2), y)]
        assert lhs == rhs
        # T(Y; X1, X2) is S(Y; X1, X2) of the swapped pair
        swapped = mp.swapped()
        # T(fY; X1, X2) = f T(...)
        lhs = matched_pair_S(swapped, fy, x, x)
        assert all(p.is_zero() for p in lhs)  # antisymmetry in last slots
        x2 = [rand_poly(rng, chart, deg=1) for _ in range(3)]
        lhs = matched_pair_S(swapped, fy, x, x2)
        rhs = [f * p for p in matched_pair_S(swapped, y, x, x2)]
        assert lhs == rhs
        # T(Y; fX1, X2) = f T(Y;X1,X2) - F(X2;Y)(f) X1
        lhs = matched_pair_S(swapped, y, fx, x2)
        correction = matched_pair_F(mp, x2, y).apply_to(f)
        rhs = [f * p - correction * q
               for p, q in zip(matched_pair_S(swapped, y, x, x2), x)]
        assert lhs == rhs


def test_bowtie_structure_and_roundtrip():
    pi = sl2_pi()
    mp = canonical_matched_pair(pi)
    d = bowtie(mp)
    assert verify_algebroid(d).all_ok
    ra = mp.A.rank
    # pure A-frames bracket inside A with zero B-component, and mirrored
    for i in range(ra):
        for j in range(ra):
            got = d.structure[i][j]
            assert got[:ra] == mp.A.structure[i][j]
            assert all(p.is_zero() for p in got[ra:])
    rb = mp.B.rank
    for i in range(rb):
        for j in range(rb):
            got = d.structure[ra + i][ra + j]
            assert got[ra:] == mp.B.structure[i][j]
            assert all(p.is_zero() for p in got[:ra])


def test_bowtie_t01_t10_is_complexified_tangent():
    # Example: (T01, T10) with the projection actions; the direct sum is
    # the complexified tangent algebroid (flat frame, identity-type anchor)
    a = antiholomorphic_tangent(C2)
    anchor_b = []
    for k in range(2):
        row = [Poly.zero(C2) for _ in range(4)]
        row[k] = Poly.one(C2)
        anchor_b.append(row)
    zero = [Poly.zero(C2) for _ in range(2)]
    b = AlgebroidChart(C2, 2, anchor_b, [[list(zero)] * 2, [list(zero)] * 2])
    gamma0 = [[b.zero_section() for _ in range(2)] for _ in range(2)]
    mp = MatchedPairData(a, b, RepData(a, b, gamma0),
                         RepData(b, a, [[a.zero_section()] * 2] * 2))
    assert matched_pair_tensors(mp).all_zero
    d = bowtie(mp)
    assert verify_algebroid(d).all_ok
    # flat brackets and the anchor hits the whole complexified frame
    assert all(d.section_is_zero(d.structure[i][j])
               for i in range(4) for j in range(4))
    anchors = [d.anchor_field(d.frame_section(s)) for s in range(4)]
    want = [Multivector.frame(C2, 2), Multivector.frame(C2, 3),
            Multivector.frame(C2, 0), Multivector.frame(C2, 1)]
    assert anchors == want


# ----------------------------------------------------------------------
# Theorem: bowtie vs Courant through phi

def test_yao_isomorphism_corpus():
    cases = [Multivector.zero(C2, 2), frame_bivector(C2, 0, 1), sl2_pi(),
             frame_bivector(C2, 0, 1, Poly.var(C2, 0) * Poly.var(C2, 0))]
    pi3 = frame_bivector(C3, 0, 1, Poly.var(C3, 2))
    assert is_holomorphic_poisson(pi3).holomorphic_poisson
    cases.append(pi3)
    for pi in cases:
        rep = yao_isomorphism_check(pi)
        assert rep.all_ok


def test_yao_rejects_non_poisson():
    with pytest.raises(StructureError):
        yao_isomorphism_check(frame_bivector(C2, 0, 1, Poly.var(C2, 2)))


# ----------------------------------------------------------------------
# underlying real algebroid of the cotangent algebroid (factor 4)

@pytest.mark.parametrize("which", ["constant", "linear"])
def test_underlying_real_cotangent_is_four_pi_r(which):
    if which == "constant":
        pi = frame_bivector(C2, 0, 1, Poly.const(C2, -1))
    else:
        pi = sl2_pi()
    n = pi.chart.n
    real = Chart.real(n)
    a_r = realified_cotangent(pi)
    pair = decompose(pi)
    target = koszul_algebroid(pair.pi_R.scale(GQ(4)))
    # transport: u_k -> +dx_k slot k ; w_k = i dz_k -> -dy_k slot n+k
    signs = [GQ(1)] * n + [GQ(-1)] * n
    assert conjugate_by_signs(a_r, signs) == target


@pytest.mark.parametrize("which", ["constant", "linear"])
def test_imaginary_part_deformation_is_four_pi_i(which):
    # deforming the underlying real algebroid by its fiber structure j
    # gives the cotangent algebroid of 4 pi_I, here under the unsigned
    # frame identification dz_k -> dx_k, i dz_k -> dy_k
    if which == "constant":
        pi = frame_bivector(C2, 0, 1, Poly.const(C2, -1))
    else:
        pi = sl2_pi()
    n = pi.chart.n
    real = Chart.real(n)
    a_r = realified_cotangent(pi)
    jt = poly_mat_transpose(standard_j(real).matrix)
    a_i = deform_by(a_r, EndoOnAlgebroid(a_r, jt))
    pair = decompose(pi)
    signs = [GQ(1)] * n + [GQ(-1)] * n
    assert conjugate_by_signs(a_i, signs) == koszul_algebroid(
        pair.pi_I.scale(GQ(4)))
