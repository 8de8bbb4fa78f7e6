import random
import re
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holopoisson.algebroid import (
    AlgebroidChart,
    LieAlgebra,
    MatchedPairData,
    RepData,
    _deformation,
    _f_tensor,
    _realify,
    _s_tensor,
    antiholomorphic_tangent,
    bowtie,
    canonical_matched_pair,
    check_representation,
    complex_presentation,
    cotangent_algebroid,
    holomorphic_matched_pair,
    koszul_algebroid,
    lie_algebra,
    lie_poisson,
    matched_pair_tensors,
    nijenhuis_torsion_algebroid,
    realify_liealgebra,
    realparts_liealgebra_check,
    tangent_algebroid,
    verify_algebroid,
    yao_isomorphism_check,
)
from holopoisson.cli import _doc_chart_pi, _load, corpus, corpus_path
from holopoisson.errors import ChartError, ShapeError, StructureError
from holopoisson.exactalg import GQ, Chart, Poly
from holopoisson.linalg import (
    poly_mat_squares_to_minus_identity,
    poly_mat_transpose,
)
from holopoisson.multivec import (
    Form,
    Multivector,
    contract,
    differential,
    exterior_d,
    schouten,
)
from holopoisson.poisson import (
    decompose,
    is_holomorphic_poisson,
    standard_j,
)

from oracles import (
    EndoFieldReference,
    canonical_matched_pair_reference,
    check_representation_reference,
    conjugate_by_signs,
    deform_by,
    deformation_reference,
    frame_bivector,
    heisenberg,
    koszul_bracket_reference,
    matched_pair_F,
    matched_pair_S,
    nijenhuis_torsion_reference,
    poly_mat_vec,
    poisson_bracket,
    rand_multivector,
    rand_poly,
    realified_cotangent,
    realparts_liealgebra_check_reference,
    s_tensor_reference,
    sl2,
    sl2_pi,
    unequal_rank_pairs,
    yao_isomorphism_check_reference,
)

C2 = Chart.complex(2)
C3 = Chart.complex(3)
R2 = Chart.real(2)


def constant(p):
    """The value of a constant structure function over a point."""
    return p.evaluate(())


# ----------------------------------------------------------------------
# verification

def test_tangent_algebroid_verifies():
    rep = verify_algebroid(tangent_algebroid(C2))
    assert rep.jacobi and rep.anchor_morphism


def test_sl2_constants_verify():
    rep = verify_algebroid(sl2())
    assert rep.jacobi and rep.anchor_morphism


def test_perturbed_sl2_fails_jacobi():
    bad = lie_algebra(
        3, [(1, 2, 2, GQ(2)), (1, 3, 3, GQ(-2)), (2, 3, 1, GQ(1)),
            (1, 2, 1, GQ(1))])
    rep = verify_algebroid(bad)
    assert not rep.jacobi and rep.anchor_morphism


def test_bracket_coerces_at_the_public_entry_only(monkeypatch):
    """bracket coerces and checks its arguments; the checks built on it
    pass sections that are coerced already and do not go through it."""
    g = sl2()
    e1, e2 = g.frame_section(0), g.frame_section(1)
    assert g.bracket([1, 0, 0], [0, GQ(1), 0]) == g.bracket(e1, e2)
    with pytest.raises(ChartError):
        g.bracket([Poly.one(C2), 0, 0], e2)
    a = tangent_algebroid(C2)
    with pytest.raises(ChartError):
        a.bracket(a.frame_section(0), [Poly.one(R2)] + [0] * (a.rank - 1))

    def refuse(self, u, v):
        raise AssertionError("an internal caller re-coerced its sections")

    monkeypatch.setattr(AlgebroidChart, "bracket", refuse)
    assert verify_algebroid(g).all_ok
    assert verify_algebroid(a).all_ok
    real = realify_liealgebra(g)
    assert complex_presentation(real).structure == g.structure
    assert not nijenhuis_torsion_algebroid(real.algebroid, real.j)


def test_anchor_morphism_failure_detected():
    # identity anchor but sl2 brackets on a 3-of-4 frame: not a morphism
    chart = R2
    anchor = [[Poly.const(chart, 1 if i == j else 0) for j in range(4)]
              for i in range(3)]
    g = sl2()
    structure = [[[Poly.const(chart, constant(p)) for p in vec]
                  for vec in row] for row in g.structure]
    a = AlgebroidChart(chart, 3, anchor, structure)
    rep = verify_algebroid(a)
    assert not rep.anchor_morphism


# ----------------------------------------------------------------------
# torsion / deformation

def test_torsion_identity_endo():
    t = tangent_algebroid(C2)
    eye = [[Poly.const(C2, 1 if i == j else 0) for j in range(4)]
           for i in range(4)]
    assert nijenhuis_torsion_algebroid(t, eye) == {}
    assert deform_by(t, eye) == t


def test_endomorphism_matrix_is_checked():
    """An endomorphism is its square Poly matrix on the algebroid's chart:
    another size, a scalar entry or an entry on another chart is
    refused before any bracket is taken."""
    t = tangent_algebroid(R2)
    eye = [[Poly.const(R2, int(i == j)) for j in range(4)] for i in range(4)]
    with pytest.raises(ShapeError, match="rank x rank"):
        nijenhuis_torsion_algebroid(t, eye[:3])
    for entry in (GQ(1), Poly.one(C2)):
        bad = [row[:] for row in eye]
        bad[0][0] = entry
        with pytest.raises(ChartError, match="on the algebroid's chart"):
            nijenhuis_torsion_algebroid(t, bad)


def test_realified_j_torsion_vanishes():
    for g in (sl2(), heisenberg()):
        real = realify_liealgebra(g)
        assert nijenhuis_torsion_algebroid(real.algebroid, real.j) == {}
        assert poly_mat_squares_to_minus_identity(real.j)


def test_torsion_nonzero_on_random_endo():
    rng = random.Random(71)
    t = tangent_algebroid(R2)
    found = False
    for _ in range(10):
        endo = [[rand_poly(rng, R2, deg=1) for _ in range(4)]
                for _ in range(4)]
        torsion = nijenhuis_torsion_algebroid(t, endo)
        # cross-check each entry against the defining expression
        for (i, j), value in torsion.items():
            ei, ej = t.frame_section(i), t.frame_section(j)
            nei, nej = poly_mat_vec(endo, ei), poly_mat_vec(endo, ej)
            inner = [a + b - c for a, b, c in zip(
                t.bracket(nei, ej), t.bracket(ei, nej),
                poly_mat_vec(endo, t.bracket(ei, ej)))]
            direct = [a - b for a, b in zip(t.bracket(nei, nej),
                                            poly_mat_vec(endo, inner))]
            assert value == direct
        if torsion:
            found = True
            with pytest.raises(StructureError):
                deform_by(t, endo)
    assert found


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(["koszul-real", "koszul-complex", "realified",
                        "tangent"]))
def test_deformation_matches_generic_bracket(rng, family):
    """The deformed brackets that _deformation builds from the frame data,
    and the torsion from them, equal their definition through the generic
    bracket: on Koszul algebroids of random bivectors on R^2 and C^2 with
    a random polynomial N, whose anchor differentiates N; on realified
    Lie algebras with a random constant N; and on the tangent algebroid,
    whose torsion is also the Schouten-bracket torsion of the reference."""
    if family == "realified":
        a = realify_liealgebra(rng.choice([sl2(), heisenberg()])).algebroid
        matrix = [[Poly.const(a.chart, rng.randint(-2, 2))
                   for _ in range(a.rank)] for _ in range(a.rank)]
    else:
        chart = C2 if family == "koszul-complex" else R2
        a = (tangent_algebroid(chart) if family == "tangent"
             else koszul_algebroid(rand_multivector(rng, chart, 2, deg=1)))
        matrix = [[rand_poly(rng, chart, deg=1, terms=2)
                   for _ in range(a.rank)] for _ in range(a.rank)]
    n = matrix
    brackets, torsion = deformation_reference(a, n)
    assert _deformation(a, n) == brackets
    assert nijenhuis_torsion_algebroid(a, n) == torsion
    if family == "tangent":
        chart = a.chart
        assert nijenhuis_torsion_reference(
            EndoFieldReference(chart, matrix)) == {
                key: Multivector.from_components(chart, value)
                for key, value in torsion.items()}


def test_deform_by_j_on_clinear_algebra_is_j_bracket():
    real = realify_liealgebra(sl2())
    deformed = deform_by(real.algebroid, real.j)
    for a in range(6):
        for b in range(6):
            want = poly_mat_vec(real.j, real.algebroid.structure[a][b])
            assert deformed.structure[a][b] == want
    assert verify_algebroid(deformed).all_ok


def test_deform_by_standard_j_on_tangent():
    t = tangent_algebroid(R2)
    jm = standard_j(R2)
    deformed = deform_by(t, jm)
    # anchor becomes J itself (row i is J e_i, column i of the matrix);
    # brackets of the flat frame stay zero
    for i in range(4):
        assert deformed.anchor[i] == [row[i] for row in jm]
    assert all(deformed.section_is_zero(deformed.structure[i][j])
               for i in range(4) for j in range(4))
    assert verify_algebroid(deformed).all_ok


def test_double_deformation_negates():
    # with j^2 = -1 and C-linearity, deforming twice negates bracket/anchor
    real = realify_liealgebra(sl2())
    once = deform_by(real.algebroid, real.j)
    j_on_once = real.j
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
            kb = koszul_bracket_reference(pi, Form.frame(C2, i),
                                          Form.frame(C2, j))
            assert Form(C2, 1, {(k,): p for k, p in
                                enumerate(b.structure[i][j])
                                if not p.is_zero()}) == kb


def test_cotangent_algebroid_sl2_reproduces_constants():
    b = cotangent_algebroid(sl2_pi())
    g = sl2()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert b.structure[i][j][k] == Poly.const(
                    C3, constant(g.structure[i][j][k]))
    assert verify_algebroid(b).all_ok


def test_cotangent_rejects_non_poisson():
    with pytest.raises(StructureError):
        cotangent_algebroid(frame_bivector(C2, 0, 1, Poly.var(C2, 2)))


# ----------------------------------------------------------------------
# Lie-Poisson duality

def test_lie_poisson_abelian_and_examples():
    abelian = lie_algebra(2, [])
    assert lie_poisson(abelian).is_zero()
    pi = sl2_pi()
    assert is_holomorphic_poisson(pi).all_ok
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
                want = want + z[k].scale(constant(g.structure[i][j][k]))
            assert poisson_bracket(pi, z[i], z[j]) == want


def test_lie_poisson_rejects_non_jacobi():
    bad = lie_algebra(
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
                assert b.structure[i][j][k] == Poly.const(
                    C3, constant(g.structure[i][j][k]))


# ----------------------------------------------------------------------
# realification and the quarter-factor identities

def test_realify_abelian():
    real = realify_liealgebra(lie_algebra(1, []))
    assert real.algebroid.rank == 2
    assert all(real.algebroid.section_is_zero(real.algebroid.structure[i][j])
               for i in range(2) for j in range(2))


def test_realify_sl2_jacobi_and_recovery():
    real = realify_liealgebra(sl2())
    assert verify_algebroid(real.algebroid).all_ok


def test_realparts_identities():
    for g in (sl2(), heisenberg(), lie_algebra(2, [])):
        assert realparts_liealgebra_check(LieAlgebra(g, None)).all_ok


def test_realparts_rejects_non_clinear_j():
    # so(3): the bracket is NOT C-linear for the "rotation" j in the
    # (e1, e2) plane, so the explicit-j precondition must reject it
    so3 = lie_algebra(
        3, [(1, 2, 3, GQ(1)), (2, 3, 1, GQ(1)), (3, 1, 2, GQ(1))])
    jm = [[GQ(0), GQ(-1), GQ(0)], [GQ(1), GQ(0), GQ(0)],
          [GQ(0), GQ(0), GQ(0)]]
    with_j = LieAlgebra(so3, [[Poly.const(so3.chart, v) for v in row]
                              for row in jm])
    with pytest.raises(StructureError):
        realparts_liealgebra_check(with_j)


def test_complex_presentation_roundtrip_through_realified_data():
    real = realify_liealgebra(sl2())
    gc = complex_presentation(real)
    assert gc.rank == 3
    # realparts passes through the extraction path
    assert verify_algebroid(gc).jacobi
    assert realparts_liealgebra_check(real).all_ok


def test_realparts_checks_jacobi_once(monkeypatch):
    """realparts-check checks the Jacobi identity of its complex
    presentation once, with or without an explicit j; the public
    lie_poisson and realify_liealgebra keep their own checks."""
    from holopoisson import algebroid

    calls = []
    original = algebroid.verify_algebroid

    def counting(a):
        calls.append(a.rank)
        return original(a)

    monkeypatch.setattr(algebroid, "verify_algebroid", counting)
    real = realify_liealgebra(sl2())
    assert calls == [3]
    for g in (LieAlgebra(sl2(), None), real):
        calls.clear()
        assert realparts_liealgebra_check(g).all_ok
        assert calls == [3]
    bad = lie_algebra(3, [(1, 2, 1, GQ(1)), (2, 3, 2, GQ(1))])
    assert not original(bad).jacobi
    for entry in (lie_poisson, realify_liealgebra,
                  lambda a: realparts_liealgebra_check(LieAlgebra(a, None))):
        calls.clear()
        with pytest.raises(StructureError,
                           match="fail the Jacobi identity"):
            entry(bad)
        assert calls == [3]


LIE_BASES = {"sl2": (3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)]),
              "heisenberg": (3, [(1, 2, 3, 1)]),
              "affine": (2, [(1, 2, 2, 1)]),
              "abelian": (1, [])}


@st.composite
def jacobi_constants(draw):
    """A direct sum of one or two small Lie algebras, its brackets scaled
    by a nonzero Gaussian integer and its basis changed by a random
    unimodular integer matrix: the Jacobi identity holds by
    construction."""
    names = draw(st.lists(st.sampled_from(sorted(LIE_BASES)), min_size=1,
                          max_size=2))
    triples, rank = [], 0
    for name in names:
        size, base = LIE_BASES[name]
        triples += [(i + rank, j + rank, k + rank, v) for i, j, k, v in base]
        rank += size
    c = [[[constant(p) for p in vec] for vec in row]
         for row in lie_algebra(rank, triples).structure]
    scale = GQ(draw(st.integers(1, 3)), draw(st.integers(-2, 2)))
    # f_b = sum_a p[a][b] e_a; each step adds k f_a to f_b
    p = [[GQ(int(a == b)) for b in range(rank)] for a in range(rank)]
    q = [row[:] for row in p]  # the inverse of p
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        k = GQ(draw(st.integers(-2, 2)))
        if a == b:
            continue
        for row in p:
            row[b] = row[b] + k * row[a]
        q[a] = [x - k * y for x, y in zip(q[a], q[b])]
    new = [[[sum((q[t][k] * c[i][j][k] * p[i][a] * p[j][b]
                  for i in range(rank) for j in range(rank)
                  for k in range(rank)), GQ(0)) * scale
             for t in range(rank)] for b in range(rank)]
           for a in range(rank)]
    return AlgebroidChart(Chart.complex(0), rank, [[]] * rank, new)


@settings(max_examples=30, deadline=None)
@given(jacobi_constants())
def test_realparts_matches_reference(g):
    """realparts_liealgebra_check takes the pairs s < t once each, with
    tabled Hamiltonian fields; the reference takes every ordered pair
    through poisson_bracket."""
    assert verify_algebroid(g).jacobi
    report = realparts_liealgebra_check(LieAlgebra(g, None))
    assert report == realparts_liealgebra_check_reference(LieAlgebra(g, None))
    assert report.all_ok


@settings(max_examples=30, deadline=None)
@given(jacobi_constants())
def test_complex_presentation_inverts_realification(g):
    """The complex basis extracted from the realification is e_1..e_r
    again, with j e_a the second vector of each pair, so the structure
    constants come back exactly."""
    back = complex_presentation(realify_liealgebra(g))
    assert back.rank == g.rank
    assert back.structure == g.structure


# ----------------------------------------------------------------------
# representations

def test_zero_connection_on_abelian_pair():
    abelian = lie_algebra(2, [])
    gamma = [[abelian.zero_section() for _ in range(2)] for _ in range(2)]
    rep = RepData(abelian, abelian, gamma)
    assert check_representation(rep) is True


def test_canonical_reps_are_flat():
    pi = frame_bivector(C2, 0, 1)
    mp = canonical_matched_pair(pi)
    assert check_representation(mp.nablaAB) is True
    assert check_representation(mp.nablaBA) is True


def test_perturbed_gamma_breaks_flatness():
    pi = sl2_pi()
    mp = canonical_matched_pair(pi)
    gamma = [[list(vec) for vec in row] for row in mp.nablaBA.gamma]
    gamma[0][1][2] = gamma[0][1][2] + Poly.var(C3, 0)
    rep = RepData(mp.B, mp.A, gamma)
    assert check_representation(rep) is False


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


@lru_cache(maxsize=None)
def corpus_poisson_bivectors():
    """Every corpus bivector that is holomorphic Poisson (a Lie algebra
    through its Lie-Poisson structure)."""
    out = []
    for name in corpus():
        _, pi = _doc_chart_pi(_load(corpus_path(name)), name)
        if is_holomorphic_poisson(pi).all_ok:
            out.append((name, pi))
    return tuple(out)


@lru_cache(maxsize=None)
def corpus_matched_pairs():
    """The canonical matched pair of every corpus Poisson bivector."""
    return tuple((name, canonical_matched_pair(pi))
                 for name, pi in corpus_poisson_bivectors())


@lru_cache(maxsize=None)
def frame_table_pairs():
    """The corpus pairs, whose tables are zero, and the pairs beyond them:
    the unequal-rank pairs (rank A != rank B; "line" anchors B at
    z2 d/dz1, "borel" has nonzero structure constants and nonzero tables)
    and the diagonal action over the point chart (nonzero tables)."""
    return (corpus_matched_pairs() + tuple(unequal_rank_pairs())
            + (("diagonal action", diagonal_action_pair()),))


@st.composite
def random_connections(draw, pairs=corpus_matched_pairs):
    """A pair of pairs() (by default a corpus pair) whose two connections,
    and a connection of B on itself that starts from B's structure
    functions, get random Gaussian-integer polynomials added to a few
    entries.  With no entry changed the pair's connections are flat; a
    changed entry mostly breaks flatness and the vanishing of S and T."""
    name, mp = draw(st.sampled_from(pairs()))
    chart = mp.A.chart
    small = st.integers(-3, 3)
    exps = st.tuples(*[st.integers(0, 1)] * chart.nvars)

    def perturbed(acting, module, gamma):
        gamma = [[list(vec) for vec in row] for row in gamma]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, acting.rank - 1))
            j = draw(st.integers(0, module.rank - 1))
            k = draw(st.integers(0, module.rank - 1))
            re, im = draw(st.tuples(small, small))
            gamma[i][j][k] = gamma[i][j][k] + Poly.monomial(
                chart, draw(exps), GQ(re, im))
        return RepData(acting, module, gamma)

    pair = MatchedPairData(
        mp.A, mp.B, perturbed(mp.A, mp.B, mp.nablaAB.gamma),
        perturbed(mp.B, mp.A, mp.nablaBA.gamma))
    return name, pair, perturbed(mp.B, mp.B, mp.B.structure)


@settings(max_examples=60, deadline=None)
@given(random_connections(frame_table_pairs))
def test_frame_tables_match_reference(case):
    """check_representation and the S/T loop read frame tables of the
    covariant derivatives; the reference copies recompute every nabla
    where it is used.  Verdicts and the S/T values must agree, on the
    corpus pairs and on pairs whose tables start nonzero."""
    name, mp, self_action = case
    for rep in (mp.nablaAB, mp.nablaBA, self_action):
        assert check_representation(rep) == \
            check_representation_reference(rep).flat, name
    ab, ba = mp.nablaAB.gamma, mp.nablaBA.gamma
    assert _s_tensor(mp, ab, ba) == s_tensor_reference(mp), name
    swapped = mp.swapped()
    assert _s_tensor(swapped, ba, ab) == s_tensor_reference(swapped), name


@settings(max_examples=40, deadline=None)
@given(random_connections())
def test_f_table_matches_matched_pair_F(case):
    """F on frames, read from the frame tables and the tabled anchor
    fields, is matched_pair_F on frame sections, flat or not."""
    name, mp, _ = case
    want = {}
    for i in range(mp.A.rank):
        for j in range(mp.B.rank):
            value = matched_pair_F(mp, mp.A.frame_section(i),
                                   mp.B.frame_section(j))
            if not value.is_zero():
                want[(i, j)] = value
    ab, ba = mp.nablaAB.gamma, mp.nablaBA.gamma
    assert _f_tensor(mp, ab, ba) == want, name


def test_check_representation_builds_one_frame_table(monkeypatch):
    """The flatness check reads its one frame table, the connection data
    gamma, with no apply at all; reads nabla_[ei,ej] e_m from it, and
    applies nabla_{e_i} to each nonzero entry nabla_{e_j} e_m, j != i,
    once (through _apply, as the entries are already sections); a zero
    entry needs no apply (nabla_u 0 = 0).  The canonical pairs' tables are
    all zero, so they take no apply; the adjoint action of sl2 on itself
    has a zero entry only on the diagonal."""
    calls = []
    checked = []
    original = RepData._apply
    original_public = RepData.apply

    def counting(self, u, s):
        calls.append(1)
        return original(self, u, s)

    def counting_public(self, u, s):
        checked.append(1)
        return original_public(self, u, s)

    g = sl2()
    adjoint = RepData(g, g, g.structure)
    cases = [(adjoint, 3 * 2 * 2)]
    for pi in (sl2_pi(), frame_bivector(C2, 0, 1)):
        mp = canonical_matched_pair(pi)
        cases += [(rep, 0) for rep in (mp.nablaAB, mp.nablaBA)]
    monkeypatch.setattr(RepData, "_apply", counting)
    monkeypatch.setattr(RepData, "apply", counting_public)
    for rep, applies in cases:
        calls.clear()
        checked.clear()
        assert check_representation(rep)
        assert len(calls) == applies
        assert not checked


def revalidated(a: AlgebroidChart) -> AlgebroidChart:
    """a's data through the public, validating constructor."""
    return AlgebroidChart(a.chart, a.rank, a.anchor, a.structure)


def assert_canonical(obj):
    """A Multivector or Form equals its copy through the public
    constructor, component by component and term by term: no zero
    component, no zero coefficient, every index tuple increasing and in
    range, every exponent vector of the chart's length."""
    again = type(obj)(obj.chart, obj.degree, obj.comps)
    assert again.degree == obj.degree and again.comps == obj.comps
    for poly in obj.comps.values():
        assert Poly(poly.chart, poly.terms).terms == poly.terms


@settings(max_examples=40, deadline=None)
@given(random_connections())
def test_trusted_builds_equal_validated(case):
    """The algebroids, frame tables and exterior-calculus results that the
    library builds unchecked are what the validating constructors accept
    and give back: the cotangent, Koszul, bowtie, tangent and
    antiholomorphic tangent algebroids rebuild equal through
    AlgebroidChart(...); each frame-table entry, the connection data
    gamma[i][m], is apply on the two frames; schouten, contract,
    differential and exterior_d rebuild equal through their
    constructors."""
    name, mp, self_action = case
    pi = dict(corpus_poisson_bivectors())[name]
    pair = decompose(pi)
    built = [mp.A, mp.B, cotangent_algebroid(pi),
             koszul_algebroid(pair.pi_R), koszul_algebroid(pair.pi_I),
             tangent_algebroid(pi.chart), tangent_algebroid(pair.pi_I.chart)]
    try:
        built.append(bowtie(mp))
    except StructureError:
        pass  # a perturbed pair is mostly no matched pair
    for a in built:
        assert revalidated(a) == a, name
    for rep in (mp.nablaAB, mp.nablaBA, self_action):
        table = rep.gamma
        for i in range(rep.acting.rank):
            for m in range(rep.module.rank):
                assert table[i][m] == rep.apply(
                    rep.acting.frame_section(i),
                    rep.module.frame_section(m)), name
    fields = [a.anchor_field(a.frame_section(i))
              for a in (mp.A, mp.B) for i in range(a.rank)]
    assert_canonical(schouten(pi, pi))
    for x in fields[:4]:
        for y in fields[:4]:
            assert_canonical(schouten(x, y))
    entries = [p for rep in (mp.nablaAB, mp.nablaBA, self_action)
               for row in rep.gamma for vec in row for p in vec]
    entries += [p for p in pi.comps.values()]
    for f in entries:
        df = differential(f)
        assert_canonical(df)
        assert_canonical(contract(df, pi))
        assert_canonical(exterior_d(Form(pi.chart, 1, {(0,): f})))
    for row in mp.B.anchor:
        assert_canonical(exterior_d(Form.from_components(pi.chart, row)))


def test_corpus_bowties_equal_validated():
    """The bowtie of every corpus matched pair, built unchecked, rebuilds
    equal through AlgebroidChart(...)."""
    for name, mp in corpus_matched_pairs():
        d = bowtie(mp)
        assert revalidated(d) == d, name


@settings(max_examples=30, deadline=None)
@given(jacobi_constants())
def test_realified_algebra_equals_validated(g):
    """The realification is built unchecked; its algebroid rebuilds equal
    through AlgebroidChart(...)."""
    for a in (g, sl2(), heisenberg()):
        doubled = _realify(a).algebroid
        assert revalidated(doubled) == doubled


def test_algebroid_chart_refuses_bad_tables():
    """The public constructor keeps its checks and messages."""
    zero = [[0, 0], [0, 0]]
    skew = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]
    AlgebroidChart(C2, 2, [[0] * 4] * 2, skew)
    not_skew = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(StructureError,
                       match="structure functions not antisymmetric"):
        AlgebroidChart(C2, 2, [[0] * 4] * 2, not_skew)
    diagonal = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(StructureError, match=re.escape(
            "structure functions need c[i][i] = 0")):
        AlgebroidChart(C2, 2, [[0] * 4] * 2, diagonal)
    wrong = [[[0, 0], [Poly.one(C3), 0]], [[-Poly.one(C3), 0], [0, 0]]]
    with pytest.raises(ChartError, match="algebroid data on wrong chart"):
        AlgebroidChart(C2, 2, [[0] * 4] * 2, wrong)
    with pytest.raises(ChartError, match="algebroid data on wrong chart"):
        AlgebroidChart(C2, 2, [[Poly.one(C3), 0, 0, 0], [0] * 4],
                       [zero, zero])


def test_rep_data_refuses_wrong_shape_gamma():
    """RepData keeps its shape checks and messages."""
    g = sl2()
    with pytest.raises(ShapeError,
                       match="gamma needs one row per acting frame section"):
        RepData(g, g, g.structure[:2])
    with pytest.raises(ShapeError, match="gamma row has wrong module rank"):
        RepData(g, g, [row[:2] for row in g.structure])
    with pytest.raises(ShapeError, match="section has wrong rank"):
        RepData(g, g, [[vec[:2] for vec in row] for row in g.structure])


@settings(max_examples=40, deadline=None)
@given(random_connections())
def test_leibniz_holds_for_every_connection(case):
    """RepData.apply is the Leibniz extension of gamma, so the reference's
    Leibniz check holds for any gamma, flat or not; this is why
    check_representation tests flatness alone."""
    name, mp, self_action = case
    for rep in (mp.nablaAB, mp.nablaBA, self_action):
        assert check_representation_reference(rep).leibniz, name


def test_canonical_pair_equals_lie_derivative_reference():
    """Zero connections on the holomorphic frame are the tables the Lie
    derivative and the Schouten bracket give, on every corpus bivector and
    on 20 random ones from criterion 3's generator with holomorphic
    coefficients (on C^2 every holomorphic f d/dz1 ^ d/dz2 is Poisson)."""
    rng = random.Random(303)
    cases = list(corpus_poisson_bivectors())
    cases += [(f"random {t}", frame_bivector(
        C2, 0, 1, rand_poly(rng, C2, deg=2, holomorphic=True)))
        for t in range(20)]
    for name, pi in cases:
        mp = canonical_matched_pair(pi)
        ref = canonical_matched_pair_reference(pi)
        assert mp.A == ref.A and mp.B == ref.B, name
        assert mp.nablaAB.gamma == ref.nablaAB.gamma, name
        assert mp.nablaBA.gamma == ref.nablaBA.gamma, name


def test_holomorphic_matched_pair_needs_a_holomorphic_frame():
    with pytest.raises(ChartError):
        holomorphic_matched_pair(tangent_algebroid(R2))
    # the identity anchor of the complexified tangent has d/dzb entries
    with pytest.raises(StructureError):
        holomorphic_matched_pair(tangent_algebroid(C2))


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


def diagonal_action_pair():
    """Abelian A = <e1, e2> acting on abelian B = <f1, f2> over a point,
    e1 by diag(1, 2) and e2 by diag(3, -1), with B acting on A by zero:
    a matched pair whose bowtie brackets [e_i, f_j] are nonzero."""
    point = Chart.real(0)
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    a = AlgebroidChart(point, 2, [[], []], zero)
    b = AlgebroidChart(point, 2, [[], []], zero)
    weights = [[1, 2], [3, -1]]
    gamma_ab = [[[w[j] if k == j else 0 for k in range(2)] for j in range(2)]
                for w in weights]
    return MatchedPairData(a, b, RepData(a, b, gamma_ab),
                           RepData(b, a, zero))


def test_bowtie_applies_no_connection_beyond_matched_pair_tensors(
        monkeypatch):
    """bowtie reads its mixed brackets [e_i, f_j] = -nabla_{f_j} e_i
    + nabla_{e_i} f_j from the frame tables of its F/S/T check: it makes
    exactly the RepData.apply calls matched_pair_tensors makes, and the
    brackets agree with apply's."""
    calls = []
    original = RepData.apply

    def counting(self, u, s):
        calls.append((u, s))
        return original(self, u, s)

    for mp in (canonical_matched_pair(sl2_pi()), diagonal_action_pair()):
        monkeypatch.setattr(RepData, "apply", counting)
        calls.clear()
        matched_pair_tensors(mp)
        tensors_calls = len(calls)
        calls.clear()
        d = bowtie(mp)
        assert len(calls) == tensors_calls
        monkeypatch.setattr(RepData, "apply", original)
        assert verify_algebroid(d).all_ok
        ra = mp.A.rank
        for i in range(ra):
            x = mp.A.frame_section(i)
            for j in range(mp.B.rank):
                y = mp.B.frame_section(j)
                want = ([-p for p in mp.nablaBA.apply(y, x)]
                        + mp.nablaAB.apply(x, y))
                assert d.structure[i][ra + j] == want
                assert d.structure[ra + j][i] == [-p for p in want]
    # the diagonal action's mixed brackets are its weights
    d = bowtie(diagonal_action_pair())
    mixed = [[[str(p) for p in d.structure[i][2 + j]] for j in range(2)]
             for i in range(2)]
    assert mixed == [[["0", "0", "1", "0"], ["0", "0", "0", "2"]],
                     [["0", "0", "3", "0"], ["0", "0", "0", "-1"]]]


# ----------------------------------------------------------------------
# Theorem: bowtie vs Courant through phi

def test_yao_isomorphism_corpus():
    cases = [Multivector.zero(C2, 2), frame_bivector(C2, 0, 1), sl2_pi(),
             frame_bivector(C2, 0, 1, Poly.var(C2, 0) * Poly.var(C2, 0))]
    pi3 = frame_bivector(C3, 0, 1, Poly.var(C3, 2))
    assert is_holomorphic_poisson(pi3).all_ok
    cases.append(pi3)
    for pi in cases:
        rep = yao_isomorphism_check(pi)
        assert rep.all_ok


@st.composite
def holomorphic_poisson_bivectors(draw):
    """f d/dz1 ^ d/dz2 on C^2, or the Jacobian structure
    {z_i, z_j} = h eps_ijk dC/dz_k on C^3, with random holomorphic f, h
    and C: Poisson for every choice."""
    n = draw(st.integers(2, 3))
    chart = Chart.complex(n)

    def holomorphic(max_exp, max_terms):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * n),
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=1, max_size=max_terms))
        return Poly(chart, {e + (0,) * n: GQ(re, im)
                            for e, (re, im) in terms.items()})

    if n == 2:
        pi = frame_bivector(chart, 0, 1, holomorphic(2, 3))
    else:
        h, c = holomorphic(1, 2), holomorphic(2, 3)
        pi = Multivector(chart, 2, {(0, 1): h * c.diff(2),
                                    (0, 2): -(h * c.diff(1)),
                                    (1, 2): h * c.diff(0)})
    assume(not pi.is_zero())
    return pi


@settings(max_examples=25, deadline=None)
@given(holomorphic_poisson_bivectors())
def test_yao_matches_reference(pi):
    """yao_isomorphism_check takes yao_phi of each bowtie frame once; the
    reference recomputes both images for every pair."""
    assert is_holomorphic_poisson(pi).all_ok
    report = yao_isomorphism_check(pi)
    assert report == yao_isomorphism_check_reference(pi)
    assert report.all_ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_yao_takes_each_frame_image_once(monkeypatch, n):
    """yao_phi runs once per bowtie frame (2n) and once per bracket of a
    pair of frames (n(2n - 1))."""
    from holopoisson import algebroid

    calls = []
    original = algebroid.yao_phi

    def counting(pi, section):
        calls.append(1)
        return original(pi, section)

    monkeypatch.setattr(algebroid, "yao_phi", counting)
    chart = Chart.complex(n)
    pi = (Multivector.zero(chart, 2) if n == 1
          else frame_bivector(chart, 0, 1, Poly.var(chart, n - 1)))
    assert yao_isomorphism_check(pi).all_ok
    assert len(calls) == 2 * n + n * (2 * n - 1)


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
    jt = poly_mat_transpose(standard_j(real))
    a_i = deform_by(a_r, jt)
    pair = decompose(pi)
    signs = [GQ(1)] * n + [GQ(-1)] * n
    assert conjugate_by_signs(a_i, signs) == koszul_algebroid(
        pair.pi_I.scale(GQ(4)))
