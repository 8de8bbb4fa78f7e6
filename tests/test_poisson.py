import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopoisson.algebroid import (
    nijenhuis_torsion_algebroid,
    tangent_algebroid,
)
from holopoisson.errors import ChartError, DegreeError, SingularError, StructureError
from holopoisson.exactalg import GQ, Chart, Poly
from holopoisson.linalg import (
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
    GCSection,
    complex_parts,
    courant_bracket,
    decompose,
    foliation_rank,
    is_holomorphic_poisson,
    pn_check,
    standard_j,
)

from oracles import (
    EndoFieldReference,
    courant_bracket_reference,
    darboux_symplectic_parts,
    decompose_reference,
    foliation_rank_reference,
    frame_bivector,
    gc_eigensection_check,
    gc_eigenspace_dimension,
    gc_endomorphism,
    koszul_bracket,
    koszul_bracket_reference,
    multivector_conj,
    multivector_conj_reference,
    nijenhuis_torsion_apply_reference,
    nijenhuis_torsion_reference,
    pn_check_reference,
    poisson_bracket,
    quarter_factor_identities,
    rand_form,
    rand_multivector,
    rand_poly,
    recompose,
    symplectic_inverse,
)

C2 = Chart.complex(2)
R2 = Chart.real(2)
QUARTER = GQ(Fraction(1, 4))


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
        is_holomorphic_poisson(Multivector(C2, 1, {(0,): 1}))
    with pytest.raises(DegreeError):
        is_holomorphic_poisson(frame_bivector(C2, 0, 2))


# ----------------------------------------------------------------------
# decompose

def test_decompose_darboux_values():
    pi = frame_bivector(C2, 0, 1, Poly.const(C2, -1))
    pair = decompose(pi)
    ex = [Multivector(R2, 1, {(k,): 1}) for k in range(4)]
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


@st.composite
def bivectors_20(draw):
    """A (2,0) bivector on C^1..C^3 with Gaussian-integer coefficients in
    z and zb: holomorphic or not, Poisson or not."""
    from itertools import combinations
    chart = Chart.complex(draw(st.integers(1, 3)))
    frames = list(combinations(range(chart.n), 2))
    chosen = draw(st.lists(st.sampled_from(frames), max_size=3,
                           unique=True)) if frames else []
    small = st.integers(-3, 3)
    exps = st.tuples(*[st.integers(0, 2)] * chart.nvars)
    comps = {}
    for idx in chosen:
        terms = draw(st.dictionaries(exps, st.tuples(small, small),
                                     min_size=1, max_size=3))
        comps[idx] = Poly(chart, {e: GQ(re, im)
                                  for e, (re, im) in terms.items()})
    return Multivector(chart, 2, comps)


@settings(max_examples=100, deadline=None)
@given(bivectors_20())
def test_decompose_equals_reference(pi):
    """Converting pi once and conjugating coefficients on the real chart
    gives the parts of the defining formulas on the complex chart."""
    pair = decompose(pi)
    assert (pair.pi_R, pair.pi_I) == decompose_reference(pi)
    assert pair.pi_R.chart == pair.pi_I.chart == Chart.real(pi.chart.n)


def test_decompose_jacobi_parts_when_holomorphic():
    rng = random.Random(11)
    c3 = Chart.complex(3)
    # linear sl2-type Poisson structure: parts must each satisfy Jacobi
    z1, z2, z3 = (Poly.var(c3, k) for k in range(3))
    pi = (frame_bivector(c3, 0, 1, z2.scale(2))
          + frame_bivector(c3, 0, 2, z3.scale(-2))
          + frame_bivector(c3, 1, 2, z1))
    assert is_holomorphic_poisson(pi).all_ok
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
        f = rand_poly(rng, C2, deg=3, holomorphic=True)
        g = rand_poly(rng, C2, deg=3, holomorphic=True)
        assert quarter_factor_identities(pi, f, g) == [True] * 6


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
    value = koszul_bracket(pi, Form(c3, 1, {(0,): 1}), Form(c3, 1, {(1,): 1}))
    assert value == Form(c3, 1, {(2,): 1})


# ----------------------------------------------------------------------
# Nijenhuis torsion

def tangent_torsion(matrix):
    """The library's Nijenhuis torsion of a chart endomorphism: that of N
    on the tangent algebroid."""
    t = tangent_algebroid(matrix[0][0].chart)
    return nijenhuis_torsion_algebroid(t, matrix)


def test_torsion_identity_and_standard_j():
    eye = [[Poly.const(R2, 1 if i == j else 0) for j in range(4)]
           for i in range(4)]
    assert tangent_torsion(eye) == {}
    assert tangent_torsion(standard_j(R2)) == {}
    i = GQ(0, 1)
    assert standard_j(C2) == [
        [Poly.const(C2, (i if r < 2 else -i) if r == c else 0)
         for c in range(4)] for r in range(4)]
    assert tangent_torsion(standard_j(C2)) == {}


def test_standard_j_of_complex_chart_is_the_real_j():
    """Column c of standard_j on C^2 is J of the frame d/dz or d/dzb of
    slot c: the frame converted to R^2, mapped by the real standard_j and
    converted back."""
    jr = standard_j(R2)
    jc = standard_j(C2)
    for c in range(4):
        frame = convert_alternating(Multivector(C2, 1, {(c,): 1}), R2)
        image = poly_mat_mul(jr, [[p] for p in frame.coefficients()])
        back = convert_alternating(
            Multivector.from_components(R2, [row[0] for row in image]), C2)
        assert back.coefficients() == [row[c] for row in jc]


def test_torsion_shear_matches_direct_evaluation():
    x1, x2 = Poly.var(R2, 0), Poly.var(R2, 1)
    rows = [[Poly.const(R2, 1 if i == j else 0) for j in range(4)]
            for i in range(4)]
    rows[1][0] = x1  # coupled coordinate-dependent shears
    rows[0][1] = x2
    torsion = tangent_torsion(rows)
    assert set(torsion) == {(0, 1)}
    assert (Multivector.from_components(R2, torsion[(0, 1)])
            == (Multivector(R2, 1, {(0,): 1}).scale(x1)
                - Multivector(R2, 1, {(1,): 1}).scale(x2)))
    direct = nijenhuis_torsion_reference(EndoFieldReference(R2, rows))
    assert {key: Multivector.from_components(R2, value)
            for key, value in torsion.items()} == direct


def test_torsion_is_tensorial():
    rng = random.Random(29)
    shear = EndoFieldReference(R2, [[rand_poly(rng, R2, deg=1)
                                     for _ in range(4)] for _ in range(4)])
    f = rand_poly(rng, R2, deg=2)
    v = rand_multivector(rng, R2, 1)
    w = rand_multivector(rng, R2, 1)
    lhs = nijenhuis_torsion_apply_reference(shear, v.scale(f), w)
    assert lhs == nijenhuis_torsion_apply_reference(shear, v, w).scale(f)
    lhs = nijenhuis_torsion_apply_reference(shear, v, w.scale(f))
    assert lhs == nijenhuis_torsion_apply_reference(shear, v, w).scale(f)


def test_torsion_antisymmetry():
    rng = random.Random(31)
    endo = EndoFieldReference(R2, [[rand_poly(rng, R2, deg=1)
                                    for _ in range(4)] for _ in range(4)])
    v = rand_multivector(rng, R2, 1)
    w = rand_multivector(rng, R2, 1)
    assert (nijenhuis_torsion_apply_reference(endo, v, w)
            == -nijenhuis_torsion_apply_reference(endo, w, v))


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
    rep = pn_check(complex_parts(pi).pi_I, standard_j(c3))
    assert rep.sharp_intertwine and rep.koszul_compat and rep.torsion_zero
    assert not rep.schouten_zero and not rep.all_ok
    # the real-chart bracket of pi_I gives the same verdicts
    pair = decompose(pi)
    assert pn_check(pair.pi_I, standard_j(pair.pi_I.chart)) == rep


@st.composite
def bivectors_20(draw):
    """A (2,0) bivector on C^1..C^3 with a few Gaussian-integer monomials
    of degree <= 2 in each component, holomorphic (no zb) or not.  On C^3
    a third of them are f d/dz_a ^ d/dz_b, which is Poisson when f is
    holomorphic; most other ones on C^3 and the non-holomorphic ones are
    not Poisson."""
    n = draw(st.integers(1, 3))
    chart = Chart.complex(n)
    holomorphic = draw(st.booleans())
    exps = st.tuples(*[st.integers(0, 2)] * n
                     + [st.just(0) if holomorphic else st.integers(0, 1)] * n
                     ).filter(lambda e: sum(e) <= 2)
    small = st.integers(-2, 2)
    coeffs = st.dictionaries(exps, st.tuples(small, small), min_size=1,
                             max_size=2).map(lambda terms: Poly(chart, {
                                 e: GQ(re, im) for e, (re, im)
                                 in terms.items()}))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if n == 3 and draw(st.integers(0, 2)) == 0:
        pairs = [draw(st.sampled_from(pairs))]
    return Multivector(chart, 2, {idx: draw(coeffs) for idx in pairs
                                  if draw(st.booleans())})


@settings(max_examples=100, deadline=None)
@given(bivectors_20())
def test_pn_check_complex_matches_real_chart(pi):
    """pn_check of (pi_I, J) on pi's complex chart, J the diagonal
    standard_j there, gives the report of the real-chart pair, decompose's
    pi_I with the real J, verdict by verdict."""
    n = pi.chart.n
    assert (pn_check(complex_parts(pi).pi_I, standard_j(pi.chart))
            == pn_check(decompose(pi).pi_I, standard_j(Chart.real(n))))


def test_no_command_but_decompose_converts_a_chart(monkeypatch, tmp_path):
    """Every command but decompose reads its document on its own chart:
    convert_alternating is not called on the corpus documents or on a
    non-Poisson bivector on C^3 (with two 1-forms for koszul).
    cohomology runs at --weight 1."""
    import json

    from holopoisson import cli, multivec, poisson

    calls = []
    original = multivec.convert_alternating

    def counting(obj, target):
        calls.append(target)
        return original(obj, target)

    monkeypatch.setattr(multivec, "convert_alternating", counting)
    monkeypatch.setattr(poisson, "convert_alternating", counting)
    bad = {"chart": {"kind": "complex", "n": 3},
           "pi": [{"frame": ["z1", "z2"], "coeff": "z1"},
                  {"frame": ["z1", "z3"], "coeff": "z2 zb3"}]}
    forms = {"alpha": [{"frame": ["z1"], "coeff": "zb2"}],
             "beta": [{"frame": ["z2"], "coeff": "z3"},
                      {"frame": ["zb1"], "coeff": "1"}]}
    paths = [cli.corpus_path(name) for name in cli.corpus()]
    for name, doc in (("pi.json", bad), ("forms.json", {**bad, **forms})):
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    ran = set()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if "chart" in doc:
            n = doc["chart"]["n"]
        else:  # a realified algebra's complex presentation has half its rank
            lie = doc["lie_algebra"]
            n = lie["rank"] // (1 if lie["j"] is None else 2)
        for command in sorted(set(cli.COMMANDS) - {"decompose"}):
            extra = {"foliation-rank": ["--point", ",".join(
                         str(k % 3 - 1) for k in range(2 * n))],
                     "cohomology": ["--weight", "1"]}.get(command, [])
            code = cli.main([command, path, "-o", os.devnull] + extra)
            if code in (0, 2):
                ran.add(command)
    assert ran == set(cli.COMMANDS) - {"decompose"}
    assert calls == []
    decompose(frame_bivector(C2, 0, 1))
    assert calls == [R2]


def real_polys(chart, max_terms=2):
    """Polynomials on a real chart with small integer coefficients and
    exponents at most 1 in each variable."""
    exps = st.tuples(*[st.integers(0, 1)] * chart.nvars)
    return st.dictionaries(exps, st.integers(-3, 3), max_size=max_terms).map(
        lambda terms: Poly(chart, terms))


@st.composite
def pn_cases(draw):
    """A bivector with polynomial coefficients on R^2 or R^4 and an
    endomorphism field f Id + E, with f a polynomial and E a few random
    polynomial entries, or J with the pi_I of a holomorphic (2,0)
    bivector on C^2.  On R^2 every (pi, f Id) is Poisson-Nijenhuis, so
    with E = 0 the verdicts hold and the Leibniz term of the Koszul check
    is nonzero; a nonzero E mostly breaks them."""
    if draw(st.booleans()):
        coeff = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 1)] * 2),
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=2))
        pi = frame_bivector(C2, 0, 1, Poly(C2, {e + (0, 0): GQ(re, im)
                                               for e, (re, im) in
                                               coeff.items()}))
        return decompose(pi).pi_I, standard_j(Chart.real(2))
    chart = Chart.real(draw(st.integers(1, 2)))
    m = chart.nvars
    polys = real_polys(chart)
    pi = Multivector(chart, 2, {(a, b): draw(polys) for a in range(m)
                                for b in range(a + 1, m)})
    f = draw(polys)
    matrix = [[f if r == c else Poly.zero(chart) for c in range(m)]
              for r in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        matrix[r][c] = matrix[r][c] + draw(polys)
    return pi, matrix


@settings(max_examples=60, deadline=None)
@given(pn_cases())
def test_pn_check_matches_reference(case):
    """pn_check reads its torsion and Koszul compatibility from the
    frame-level Nijenhuis deformation of the tangent and Koszul
    algebroids; the reference takes the torsion through Schouten brackets
    and every Koszul bracket anew.  The reports agree, true or false."""
    pi, endo = case
    assert pn_check(pi, endo) == pn_check_reference(pi, endo)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_koszul_bracket_matches_reference(rng, real):
    """The koszul command's bracket, the Koszul algebroid's Leibniz
    extension of [e^a, e^b] = d(pi^{ab}), is the Cartan-formula bracket of
    the reference, on random 1-forms and random bivectors, mostly not
    Poisson."""
    chart = R2 if real else C2
    pi = rand_multivector(rng, chart, 2)
    alpha = rand_form(rng, chart, 1)
    beta = rand_form(rng, chart, 1)
    assert koszul_bracket(pi, alpha, beta) == koszul_bracket_reference(
        pi, alpha, beta)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(["real", "complex", "holomorphic"]))
def test_koszul_bracket_of_coframes_is_differential(rng, kind):
    """[e^a, e^b]_pi = d(pi^{ab}) for the Cartan-formula bracket on every
    ordered pair of coordinate coframes, the identity pn_check,
    cotangent_algebroid and koszul_algebroid (and so the koszul command)
    read in place of the bracket: random bivectors on
    R^2 and C^2, mostly not Poisson, and holomorphic (2,0) bivectors on
    C^2, which are."""
    if kind == "holomorphic":
        chart = C2
        pi = rand_bivector_20(rng, C2, holomorphic=True)
        assert is_holomorphic_poisson(pi).all_ok
    else:
        chart = R2 if kind == "real" else C2
        pi = rand_multivector(rng, chart, 2)
    coframe = [Form(chart, 1, {(k,): 1}) for k in range(chart.nvars)]
    for a, alpha in enumerate(coframe):
        for b, beta in enumerate(coframe):
            component = (pi.component((a, b)) if a < b
                         else -pi.component((b, a)))
            assert (koszul_bracket_reference(pi, alpha, beta)
                    == differential(component))


def test_pngc_equivalence_small_sample():
    # the full >= 200 case suite runs in the acceptance module
    rng = random.Random(37)
    j = standard_j(R2)
    jt = poly_mat_transpose(j)
    for trial in range(40):
        pi = rand_bivector_20(rng, C2, holomorphic=rng.random() < 0.5,
                              deg=2)
        rep = is_holomorphic_poisson(pi)
        pair = decompose(pi)
        pn = pn_check(pair.pi_I, j)
        sharp_rel = (sharp_matrix(pair.pi_R)
                     == poly_mat_mul(sharp_matrix(pair.pi_I), jt))
        assert sharp_rel  # automatic for (2,0) input (Lemma content)
        assert rep.all_ok == (pn.all_ok and sharp_rel)


def test_lemma_membership_sharp_relation():
    # pi in Lambda^2 T^{1,0} iff pi_R# = pi_I# o J*
    rng = random.Random(41)
    j = standard_j(R2)
    jt = poly_mat_transpose(j)
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
        rel = sharp_matrix(pi_r) == poly_mat_mul(sharp_matrix(pi_i), jt)
        assert rel == is_20


# ----------------------------------------------------------------------
# generalized complex structure

def test_gc_block_structure_and_square():
    pi = Multivector.zero(C2, 2)
    mat = gc_endomorphism(pi)
    j = standard_j(R2)
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
        if not is_holomorphic_poisson(pi).all_ok:
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
        bad = GCSection(Multivector(C2, 1, {(0,): 1}), Form.zero(C2, 1))
        assert not gc_eigensection_check(pi, bad)


def test_gc_eigenspace_dimension_generic_point():
    pi = frame_bivector(C2, 0, 1)
    assert gc_eigenspace_dimension(pi, [0, 0, 0, 0]) == 4
    linear = frame_bivector(C2, 0, 1, Poly.var(C2, 0))
    assert gc_eigenspace_dimension(linear, [1, 0, 0, 0]) == 4


# ----------------------------------------------------------------------
# Courant bracket

def test_courant_examples():
    e1 = GCSection(Multivector(C2, 1, {(0,): 1}), Form.zero(C2, 1))
    e2 = GCSection(Multivector(C2, 1, {(1,): 1}), Form.zero(C2, 1))
    out = courant_bracket(e1, e2)
    assert out.vec.is_zero() and out.form.is_zero()
    eta = GCSection(Multivector.zero(C2, 1),
                    Form(C2, 1, {(1,): Poly.var(C2, 0)}))
    out = courant_bracket(e1, eta)
    assert out.vec.is_zero()
    assert out.form == Form(C2, 1, {(1,): 1})


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


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([C2, R2]))
def test_courant_bracket_matches_reference(rng, chart):
    """courant_bracket reads d xi and d eta once per section; the
    reference takes L_X eta and L_Y xi by the Cartan formula on random
    sections of both chart kinds, and the parts agree.  A second bracket
    with the same sections reads their d xi from the first."""
    e = GCSection(rand_multivector(rng, chart, 1), rand_form(rng, chart, 1))
    f = GCSection(rand_multivector(rng, chart, 1), rand_form(rng, chart, 1))
    for left, right in ((e, f), (f, e), (e, e)):
        out = courant_bracket(left, right)
        assert (out.vec, out.form) == courant_bracket_reference(left, right)


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
        pair, omega_r, omega_i = darboux_symplectic_parts(n)
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
            xi = Form(R2, 1, {(k,): 1})
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
    with pytest.raises(ChartError,
                       match=r"point coordinate 3 is not real: \(1\+i\)"):
        foliation_rank(frame_bivector(C2, 0, 1), [0, 0, GQ(1, 1), 0])


small_rationals = st.builds(lambda a, b: GQ(Fraction(a, b)),
                            st.integers(-2, 2), st.integers(1, 3))


@st.composite
def bivectors_at_points(draw):
    """A nonzero bivectors_20 bivector and a point of the real chart with
    small rational coordinates; about half the time the bivector is
    multiplied by z_1 - (x_1 + i y_1), so that it vanishes at the point
    and the ranks drop there."""
    pi = draw(bivectors_20().filter(lambda pi: not pi.is_zero()))
    n = pi.chart.n
    point = draw(st.lists(small_rationals, min_size=2 * n, max_size=2 * n))
    if draw(st.booleans()):
        z1 = point[0] + point[n] * GQ(0, 1)
        pi = pi.scale(Poly.var(pi.chart, 0) - Poly.const(pi.chart, z1))
    return pi, point


@settings(max_examples=100, deadline=None)
@given(bivectors_at_points())
def test_foliation_rank_matches_real_chart(case):
    """foliation_rank reads the sharp matrices on pi's complex chart at
    the point's image; decompose's parts evaluated at the real point give
    the same report."""
    pi, point = case
    assert foliation_rank(pi, point) == foliation_rank_reference(pi, point)
