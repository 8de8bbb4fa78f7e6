import random
import re

import pytest

from holopoisson.errors import ChartError, DegreeError
from holopoisson.exactalg import Chart, Poly
from holopoisson.multivec import (
    Form,
    Multivector,
    contract,
    convert_alternating,
    differential,
    exterior_d,
    interior,
    pairing,
    schouten,
    sharp,
    sharp_matrix,
)

from oracles import (
    contract_oracle,
    cotangent_images_reference,
    lie_derivative,
    rand_form,
    rand_multivector,
    schouten_oracle,
    sgn,
    tangent_images_reference,
)

C2 = Chart.complex(2)
C3 = Chart.complex(3)


def ev(chart, k):
    return Multivector(chart, 1, {(k,): 1})


def ef(chart, k):
    return Form(chart, 1, {(k,): 1})


# ----------------------------------------------------------------------
# wedge

def test_wedge_antisymmetry():
    assert ev(C2, 0).wedge(ev(C2, 0)).is_zero()
    assert ev(C2, 0).wedge(ev(C2, 1)) == -(ev(C2, 1).wedge(ev(C2, 0)))


def test_wedge_bilinearity_example():
    z1, z2 = Poly.var(C2, 0), Poly.var(C2, 1)
    lhs = ev(C2, 0).scale(z1).wedge(ev(C2, 1).scale(z2))
    assert lhs == ev(C2, 0).wedge(ev(C2, 1)).scale(z1 * z2)


def test_wedge_chart_mismatch():
    with pytest.raises(ChartError):
        ev(C2, 0).wedge(ev(C3, 0))


def test_wedge_graded_commutativity_random():
    rng = random.Random(3)
    for _ in range(30):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a = rand_multivector(rng, C2, p)
        b = rand_multivector(rng, C2, q)
        assert a.wedge(b) == b.wedge(a).scale(sgn(p * q))


# ----------------------------------------------------------------------
# contract

def test_contract_examples():
    pi = ev(C3, 0).wedge(ev(C3, 1))
    assert contract(ef(C3, 0), pi) == ev(C3, 1)
    assert contract(ef(C3, 2), pi).is_zero()
    # sign from position: i_{dzb1}(dz1 ^ dzb1 frame vectors) = -d/dz1
    mixed = ev(C3, 0).wedge(ev(C3, 3))
    assert contract(ef(C3, 3), mixed) == -ev(C3, 0)


def test_contract_degree_zero_rejected():
    with pytest.raises(DegreeError):
        contract(ef(C2, 0), Multivector(C2, 0, {(): Poly.one(C2)}))


def test_contract_matches_oracle():
    rng = random.Random(11)
    for _ in range(40):
        P = rand_multivector(rng, C2, rng.randint(1, 3))
        xi = rand_form(rng, C2, 1)
        assert contract(xi, P) == contract_oracle(xi, P)


def test_contract_graded_derivation():
    rng = random.Random(12)
    for _ in range(30):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        P = rand_multivector(rng, C2, p)
        Q = rand_multivector(rng, C2, q)
        xi = rand_form(rng, C2, 1)
        lhs = contract(xi, P.wedge(Q))
        rhs = contract(xi, P).wedge(Q) + P.wedge(contract(xi, Q)).scale(sgn(p))
        assert lhs == rhs


# ----------------------------------------------------------------------
# schouten

def test_schouten_examples():
    pi = ev(C3, 0).wedge(ev(C3, 1))
    z1 = Poly.var(C3, 0)
    # convention: [X ^ Y, f] = Y(f) X - X(f) Y, so [d1 ^ d2, z1] = -d2
    assert schouten(pi, Multivector(C3, 0, {(): z1})) == -ev(C3, 1)
    assert schouten(pi, pi).is_zero()
    two_chart = Chart.complex(2)
    p2 = Multivector(two_chart, 2, {(0, 1): Poly.var(two_chart, 0)})
    assert schouten(p2, p2).is_zero()  # 3-vectors vanish on C^2... in z-block
    assert schouten(p2, p2).degree == 3


def test_schouten_against_oracle():
    rng = random.Random(17)
    for _ in range(60):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        P = rand_multivector(rng, C2, p)
        Q = rand_multivector(rng, C2, q)
        assert schouten(P, Q) == schouten_oracle(P, Q)


def test_schouten_graded_laws():
    rng = random.Random(19)
    for _ in range(50):
        p, q, r = (rng.randint(0, 2) for _ in range(3))
        P = rand_multivector(rng, C2, p)
        Q = rand_multivector(rng, C2, q)
        R = rand_multivector(rng, C2, r)
        assert schouten(P, Q) == schouten(Q, P).scale(-sgn((p - 1) * (q - 1)))
        lhs = schouten(P, Q.wedge(R))
        rhs = (schouten(P, Q).wedge(R)
               + Q.wedge(schouten(P, R)).scale(sgn((p - 1) * q)))
        assert lhs == rhs
        jac = (schouten(P, schouten(Q, R)).scale(sgn((p - 1) * (r - 1)))
               + schouten(Q, schouten(R, P)).scale(sgn((q - 1) * (p - 1)))
               + schouten(R, schouten(P, Q)).scale(sgn((r - 1) * (q - 1))))
        assert jac.is_zero()


def test_schouten_chart_mismatch():
    with pytest.raises(ChartError):
        schouten(ev(C2, 0), ev(C3, 0))


# ----------------------------------------------------------------------
# Lie derivative

def test_lie_derivative_examples():
    z1 = Poly.var(C2, 0)
    assert lie_derivative(ev(C2, 0), Form(C2, 1, {(1,): z1})) == ef(C2, 1)
    assert lie_derivative(ev(C2, 0), ef(C2, 0)).is_zero()
    X = Multivector(C2, 1, {(0,): z1})
    assert lie_derivative(X, ev(C2, 0)) == -ev(C2, 0)
    assert lie_derivative(X, ev(C2, 0)) == schouten(X, ev(C2, 0))


def test_lie_derivative_degree_check():
    with pytest.raises(DegreeError):
        lie_derivative(rand_multivector(random.Random(0), C2, 2),
                       ef(C2, 0))


def test_cartan_formula_consistency():
    rng = random.Random(23)
    for _ in range(20):
        X = rand_multivector(rng, C2, 1)
        w = rand_form(rng, C2, rng.randint(0, 2))
        lhs = lie_derivative(X, exterior_d(w))
        assert lhs == exterior_d(lie_derivative(X, w))


def test_d_squares_to_zero():
    rng = random.Random(29)
    for _ in range(30):
        w = rand_form(rng, C2, rng.randint(0, 2), deg=3)
        assert exterior_d(exterior_d(w)).is_zero()


# ----------------------------------------------------------------------
# sharp

def test_sharp_examples():
    pi = ev(C3, 0).wedge(ev(C3, 1))
    assert sharp(pi, ef(C3, 0)) == ev(C3, 1)
    assert sharp(pi, ef(C3, 3)).is_zero()
    z3 = Poly.var(C3, 2)
    pi3 = Multivector(C3, 2, {(0, 1): z3})
    assert sharp(pi3, ef(C3, 1)) == ev(C3, 0).scale(-z3)
    assert sharp(pi3, ef(C3, 1)) == contract(ef(C3, 1), pi3)


def test_sharp_skew_symmetry():
    rng = random.Random(37)
    for _ in range(25):
        pi = rand_multivector(rng, C2, 2)
        xi = rand_form(rng, C2, 1)
        eta = rand_form(rng, C2, 1)
        assert pairing(xi, sharp(pi, eta)) == -pairing(eta, sharp(pi, xi))


def test_sharp_matrix_consistency():
    rng = random.Random(41)
    for _ in range(20):
        pi = rand_multivector(rng, C2, 2)
        xi = rand_form(rng, C2, 1)
        M = sharp_matrix(pi)
        want = sharp(pi, xi).coefficients()
        coeffs = xi.coefficients()
        got = [sum((M[a][b] * coeffs[b] for b in range(4)),
                   Poly.zero(C2)) for a in range(4)]
        assert want == got


def test_sharp_degree_errors():
    with pytest.raises(DegreeError):
        sharp(ev(C2, 0), ef(C2, 0))
    with pytest.raises(DegreeError):
        sharp(ev(C2, 0).wedge(ev(C2, 1)), rand_form(random.Random(1), C2, 2))


# ----------------------------------------------------------------------
# conversion

def test_conversion_is_involutive_and_structural():
    rng = random.Random(43)
    r2 = Chart.real(2)
    for _ in range(20):
        P = rand_multivector(rng, C2, rng.randint(1, 2))
        Q = rand_multivector(rng, C2, rng.randint(1, 2))
        Pr = convert_alternating(P, r2)
        Qr = convert_alternating(Q, r2)
        assert convert_alternating(Pr, C2) == P
        assert convert_alternating(P.wedge(Q), r2) == Pr.wedge(Qr)
        assert convert_alternating(schouten(P, Q), r2) == schouten(Pr, Qr)
        w = rand_form(rng, C2, 1)
        wr = convert_alternating(w, r2)
        assert convert_alternating(wr, C2) == w
        assert convert_alternating(exterior_d(w), r2) == exterior_d(wr)
        X = rand_multivector(rng, C2, 1)
        Xr = convert_alternating(X, r2)
        from oracles import convert_chart
        assert convert_chart(pairing(w, X), r2) == pairing(wr, Xr)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_changes_match_the_tables(n):
    # the frame changes derived from the one coordinate change equal the
    # hand-typed tables, on every degree-1 frame element in both directions
    for source, target in ((Chart.complex(n), Chart.real(n)),
                           (Chart.real(n), Chart.complex(n))):
        tangent = tangent_images_reference(source, target)
        cotangent = cotangent_images_reference(source, target)
        for k in range(2 * n):
            assert convert_alternating(ev(source, k), target) == tangent[k]
            assert convert_alternating(ef(source, k), target) == cotangent[k]


def test_interior_pairs_with_contract():
    rng = random.Random(47)
    for _ in range(20):
        X = rand_multivector(rng, C2, 1)
        xi = rand_form(rng, C2, 1)
        assert interior(X, xi) == Form(C2, 0, {(): pairing(xi, X)})


def test_differential_on_functions():
    f = Poly.var(C2, 0) * Poly.var(C2, 2)
    df = differential(f)
    assert df.component((0,)) == Poly.var(C2, 2)
    assert df.component((2,)) == Poly.var(C2, 0)


# ----------------------------------------------------------------------
# the public constructors keep their checks


@pytest.mark.parametrize("cls", [Multivector, Form])
def test_constructor_refuses_bad_indices(cls):
    one = Poly.one(C2)
    with pytest.raises(DegreeError,
                       match=re.escape("index tuple (1, 0) not increasing")):
        cls(C2, 2, {(1, 0): one})
    with pytest.raises(DegreeError,
                       match=re.escape("index tuple (1, 1) not increasing")):
        cls(C2, 2, {(1, 1): one})
    with pytest.raises(ChartError,
                       match=re.escape("frame index out of range in (0, 4)")):
        cls(C2, 2, {(0, 4): one})
    with pytest.raises(ChartError,
                       match=re.escape("frame index out of range in (-1,)")):
        cls(C2, 1, {(-1,): one})
    with pytest.raises(ChartError, match="component on wrong chart"):
        cls(C2, 1, {(0,): Poly.one(C3)})
