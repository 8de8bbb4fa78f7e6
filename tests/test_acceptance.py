"""Acceptance suite: every exit criterion, exact arithmetic throughout
(tolerance zero), printing one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

from holopoisson.algebroid import (
    EndoOnAlgebroid,
    LieAlgebraData,
    MatchedPairData,
    RepData,
    bowtie,
    canonical_matched_pair,
    deform_by,
    koszul_algebroid,
    lie_poisson,
    matched_pair_tensors,
    nijenhuis_torsion_algebroid,
    realify_liealgebra,
    realparts_liealgebra_check,
    verify_algebroid,
    yao_isomorphism_check,
    yao_phi,
)
from holopoisson.cohomology import (
    BiCochain,
    Truncation,
    betti,
    d_pi,
    partial_A,
    partial_B,
    total_differential,
)
from holopoisson.exactalg import GQ, Chart, Poly
from holopoisson.linalg import (
    poly_mat_eq,
    poly_mat_mul,
    poly_mat_squares_to_minus_identity,
    poly_mat_transpose,
)
from holopoisson.multivec import Form, Multivector
from holopoisson.poisson import (
    decompose,
    gc_eigensection_check,
    gc_eigenspace_dimension,
    gc_endomorphism,
    is_holomorphic_poisson,
    pn_check,
    sharp_matrix,
    standard_j,
    symplectic_inverse,
)
from holopoisson.algebroid import check_representation
from holopoisson.cli import corpus_path, run_job

from oracles import conjugate_by_signs, rand_poly, realified_cotangent

C1 = Chart.complex(1)
C2 = Chart.complex(2)
C3 = Chart.complex(3)


def conclude(number, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    print(line)
    assert ok, line


def frame_bivector(chart, a, b, coeff=None):
    one = Poly.one(chart) if coeff is None else coeff
    return Multivector(chart, 2, {(a, b): one})


def sl2():
    return LieAlgebraData.from_triples(
        3, [(1, 2, 2, GQ(2)), (1, 3, 3, GQ(-2)), (2, 3, 1, GQ(1))])


def heisenberg():
    return LieAlgebraData.from_triples(3, [(1, 2, 3, GQ(1))])


def corpus_bivectors():
    return [
        ("zero", Multivector.zero(C2, 2)),
        ("constant", frame_bivector(C2, 0, 1)),
        ("sl2", lie_poisson(sl2())),
        ("quadratic", frame_bivector(C2, 0, 1,
                                     Poly.var(C2, 0) * Poly.var(C2, 0))),
    ]


# ----------------------------------------------------------------------
# 1. Darboux factor identities

def test_criterion_1_darboux_factors():
    ok = True
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
        ok = ok and symplectic_inverse(omega_r) == pair.pi_R.scale(GQ(4))
        ok = ok and symplectic_inverse(omega_i) == pair.pi_I.scale(GQ(-4))
    conclude(1, "symplectic_inverse(omega_R) = 4 pi_R and "
                "symplectic_inverse(omega_I) = -4 pi_I for n = 1, 2", ok)


# ----------------------------------------------------------------------
# 2. the six quarter-factor bracket identities

def test_criterion_2_bracket_table():
    rng = random.Random(20240202)
    real = Chart.real(2)
    quarter = GQ(Fraction(1, 4))
    half = GQ(Fraction(1, 2))
    minus_half_i = GQ(0, Fraction(-1, 2))
    ok = True
    from holopoisson.exactalg import convert_chart
    from holopoisson.poisson import poisson_bracket
    for case in range(100):
        pi = frame_bivector(C2, 0, 1,
                            rand_poly(rng, C2, deg=2, holomorphic=True))
        pair = decompose(pi)
        f = rand_poly(rng, C2, deg=3, holomorphic=True)
        g = rand_poly(rng, C2, deg=3, holomorphic=True)
        brack = poisson_bracket(pi, f, g)

        def re(p):
            return convert_chart((p + p.conj()).scale(half), real)

        def im(p):
            return convert_chart((p - p.conj()).scale(minus_half_i), real)

        checks = [
            poisson_bracket(pair.pi_R, re(f), re(g)) == re(brack).scale(quarter),
            poisson_bracket(pair.pi_I, re(f), re(g)) == im(brack).scale(quarter),
            poisson_bracket(pair.pi_R, im(f), im(g)) == re(brack).scale(-quarter),
            poisson_bracket(pair.pi_I, im(f), im(g)) == im(brack).scale(-quarter),
            poisson_bracket(pair.pi_R, re(f), im(g)) == im(brack).scale(quarter),
            poisson_bracket(pair.pi_I, re(f), im(g)) == re(brack).scale(-quarter),
        ]
        if not all(checks):
            ok = False
            break
    conclude(2, "all six bracket identities hold symbolically on 100 "
                "random holomorphic pairs (degree <= 3)", ok)


# ----------------------------------------------------------------------
# 3. the PN-structure equivalence suite

def test_criterion_3_pn_equivalence():
    rng = random.Random(20240303)
    real = Chart.real(2)
    j = standard_j(real)
    jt = poly_mat_transpose(j.matrix)
    discrepancies = 0
    total = 0
    for case in range(200):
        holomorphic = case % 2 == 0
        coeff = rand_poly(rng, C2, deg=2, holomorphic=holomorphic)
        pi = frame_bivector(C2, 0, 1, coeff)
        report = is_holomorphic_poisson(pi)
        pair = decompose(pi)
        pn = pn_check(pair.pi_I, j)
        sharp_rel = poly_mat_eq(sharp_matrix(pair.pi_R),
                                poly_mat_mul(sharp_matrix(pair.pi_I), jt))
        lhs = report.dbar_zero and report.schouten_zero
        rhs = pn.all_ok and sharp_rel
        total += 1
        if lhs != rhs:
            discrepancies += 1
    conclude(3, f"holomorphic-Poisson <=> (PN and sharp relation) on "
                f"{total} random bivectors, {discrepancies} discrepancies",
             discrepancies == 0 and total >= 200)


# ----------------------------------------------------------------------
# 4. matched-pair suite

def test_criterion_4_matched_pairs():
    ok = True
    details = []
    for name, pi in corpus_bivectors():
        mp = canonical_matched_pair(pi)
        tensors = matched_pair_tensors(mp)
        if not tensors.all_zero:
            ok = False
            details.append(f"{name}: F/S/T nonzero")
            continue
        n = pi.chart.n
        undetected = 0
        checked = 0
        for rep_name in ("AB", "BA"):
            base = mp.nablaAB if rep_name == "AB" else mp.nablaBA
            for i in range(n):
                for jj in range(n):
                    for k in range(n):
                        gamma = [[list(vec) for vec in row]
                                 for row in base.gamma]
                        gamma[i][jj][k] = gamma[i][jj][k] + Poly.one(pi.chart)
                        if rep_name == "AB":
                            cand = MatchedPairData(
                                mp.A, mp.B, RepData(mp.A, mp.B, gamma),
                                mp.nablaBA)
                        else:
                            cand = MatchedPairData(
                                mp.A, mp.B, mp.nablaAB,
                                RepData(mp.B, mp.A, gamma))
                        checked += 1
                        flat_ab = check_representation(cand.nablaAB).all_ok
                        flat_ba = check_representation(cand.nablaBA).all_ok
                        if not (flat_ab and flat_ba):
                            continue  # detected through the precondition
                        if not matched_pair_tensors(cand).all_zero:
                            continue  # detected through F/S/T
                        # the only undetectable family: pi = 0 with the
                        # T01-side action perturbed, which genuinely is
                        # another matched pair (it encodes a different
                        # holomorphic structure on the same bundle)
                        if pi.is_zero() and rep_name == "AB":
                            assert verify_algebroid(bowtie(cand)).all_ok
                            continue
                        undetected += 1
        if undetected:
            ok = False
            details.append(f"{name}: {undetected} undetected perturbations")
    conclude(4, "F = S = T = 0 on the corpus and every single-entry "
                "perturbation of the actions is detected "
                "(flatness or tensors), except the genuinely matched "
                "pi = 0 T01-side family", ok)


# ----------------------------------------------------------------------
# 5. double complex identities

def test_criterion_5_double_complex():
    rng = random.Random(20240505)
    ok = True
    for name, pi in corpus_bivectors():
        mp = canonical_matched_pair(pi)
        chart = pi.chart
        n = chart.n
        for case in range(100):
            k = rng.randint(0, n)
            l = rng.randint(0, n)
            comps = {}
            for I in combinations(range(n), k):
                for J in combinations(range(n), l):
                    if rng.random() < 0.5:
                        comps[(I, J)] = rand_poly(rng, chart, deg=2, terms=2)
            c = BiCochain(mp, k, l, comps)
            if not partial_A(partial_A(c)).is_zero():
                ok = False
            if not partial_B(partial_B(c)).is_zero():
                ok = False
            if partial_A(partial_B(c)) != partial_B(partial_A(c)):
                ok = False
            da, db = total_differential(c)
            daa, dab = total_differential(da)
            dba, dbb = total_differential(db)
            if not (daa.is_zero() and dbb.is_zero()
                    and (dab + dba).is_zero()):
                ok = False
            if not ok:
                break
        if not ok:
            break
    conclude(5, "dA^2 = dB^2 = 0, dA dB = dB dA and the total "
                "differential with the (-1)^k convention squares to zero "
                "on 100 random cochains per corpus pair", ok)


# ----------------------------------------------------------------------
# 6. d_pi is the B-direction coboundary

def test_criterion_6_d_pi_is_partial_B():
    rng = random.Random(20240606)
    ok = True
    for name, pi in corpus_bivectors():
        mp = canonical_matched_pair(pi)
        chart = pi.chart
        n = chart.n
        for case in range(100):
            q = rng.randint(0, n)
            p = rng.randint(0, n)
            comps = {}
            for I in combinations(range(n), q):
                for J in combinations(range(n), p):
                    if rng.random() < 0.5:
                        comps[(I, J)] = rand_poly(rng, chart, deg=2, terms=2)
            c = BiCochain(mp, q, p, comps)
            if partial_B(c) != d_pi(c, pi):
                ok = False
                break
        if not ok:
            break
    conclude(6, "d_pi equals the B-coboundary under the canonical "
                "identification, exact on 100 random cochains of the "
                "canonical pair per corpus bivector", ok)


# ----------------------------------------------------------------------
# 7. the Dirac-structure isomorphism

def test_criterion_7_dirac_isomorphism():
    ok = True
    cases = corpus_bivectors()
    cases.append(("z3-linear-on-C3",
                  frame_bivector(C3, 0, 1, Poly.var(C3, 2))))
    for name, pi in cases:
        n = pi.chart.n
        d = bowtie(canonical_matched_pair(pi))
        point = [GQ(k + 1, 0) for k in range(2 * n)]
        checks = [
            yao_isomorphism_check(pi).all_ok,
            poly_mat_squares_to_minus_identity(gc_endomorphism(pi)),
            all(gc_eigensection_check(pi, yao_phi(pi, d.frame_section(s)))
                for s in range(d.rank)),
            gc_eigenspace_dimension(pi, point) == 2 * n,
        ]
        if not all(checks):
            ok = False
    conclude(7, "phi intertwines the direct-sum bracket with the Courant "
                "bracket on all frame-generator pairs; J_pi squares to -1, "
                "phi of every direct-sum frame section is a -i eigenvector "
                "of J_pi and the -i eigenspace at a point has dimension 2n, "
                "for every corpus bivector", ok)


# ----------------------------------------------------------------------
# 8. Betti equivalence of the two elimination routes

def holomorphic_monomial_count(nvars, maxdeg):
    from math import comb
    return sum(comb(d + nvars - 1, nvars - 1) for d in range(maxdeg + 1))


def test_criterion_8_betti_oracle_equivalence():
    ok = True
    # (a) pi = 0 on C^1 and C^2, degree <= 3: the dbar complex
    for n in (1, 2):
        chart = Chart.complex(n)
        mp = canonical_matched_pair(Multivector.zero(chart, 2))
        truncation = Truncation("total_degree", 3)
        sparse = betti(mp, truncation)
        oracle = betti(mp, truncation, method="oracle")
        if sparse.blocks != oracle.blocks:
            ok = False
        block = sparse.blocks[0]
        cells = {(c.k, c.l): c for c in block.cells}
        expected = holomorphic_monomial_count(n, 3)
        from math import comb
        for l in range(n + 1):
            if cells[(0, l)].ker_A != expected * comb(n, l):
                ok = False
    # (b) sl2, weights 0..3, with the weight-2 Casimir line
    mp = canonical_matched_pair(lie_poisson(sl2()))
    for w in range(4):
        truncation = Truncation("weight", w)
        sparse = betti(mp, truncation)
        oracle = betti(mp, truncation, method="oracle")
        if sparse.blocks != oracle.blocks:
            ok = False
        if w == 2 and sparse.block(2).total_betti[0] != 1:
            ok = False
    # (c) constant symplectic on C^2, degree <= 2
    mp = canonical_matched_pair(frame_bivector(C2, 0, 1))
    truncation = Truncation("total_degree", 2)
    oracle = betti(mp, truncation, method="oracle")
    if betti(mp, truncation).blocks != oracle.blocks:
        ok = False
    conclude(8, "sparse Markowitz and dense oracle Betti numbers agree "
                "(dbar complexes n = 1, 2 at degree <= 3; sl2 weights 0..3 "
                "with weight-2 H0 = 1; constant symplectic at degree <= 2)",
             ok)


# ----------------------------------------------------------------------
# 9. algebroid factor identities

def test_criterion_9_algebroid_factors():
    ok = True
    for g in (sl2(), heisenberg()):
        if not realparts_liealgebra_check(g).all_ok:
            ok = False
        realified = realify_liealgebra(g)
        if nijenhuis_torsion_algebroid(realified.algebroid, realified.j):
            ok = False
        if not poly_mat_squares_to_minus_identity(realified.j.matrix):
            ok = False
    # the cotangent factor identities: the underlying real algebroid of
    # (T*X)_pi, in the frame (dz_k -> dx_k, i dz_k -> -dy_k), is the
    # Koszul algebroid of 4 pi_R, and its deformation by the fiber
    # complex structure J^T is the Koszul algebroid of 4 pi_I
    for pi in (frame_bivector(C2, 0, 1, Poly.const(C2, -1)),
               lie_poisson(sl2())):
        n = pi.chart.n
        real = Chart.real(n)
        pair = decompose(pi)
        signs = [GQ(1)] * n + [GQ(-1)] * n
        a_r = realified_cotangent(pi)
        a_i = deform_by(a_r, EndoOnAlgebroid(
            a_r, poly_mat_transpose(standard_j(real).matrix)))
        if (conjugate_by_signs(a_r, signs)
                != koszul_algebroid(pair.pi_R.scale(GQ(4)))):
            ok = False
        if (conjugate_by_signs(a_i, signs)
                != koszul_algebroid(pair.pi_I.scale(GQ(4)))):
            ok = False
    conclude(9, "quarter-factor identities for sl2 and the Heisenberg "
                "algebra; the realified fiberwise complex structures are "
                "torsion-free; for the constant and sl2 structures the "
                "underlying real cotangent algebroid is the Koszul "
                "algebroid of 4 pi_R and its j-deformation that of "
                "4 pi_I", ok)


# ----------------------------------------------------------------------
# 10. byte-level determinism of the CLI

def test_criterion_10_cli_determinism(tmp_path):
    doc = {"lie_algebra": {"rank": 3,
                           "brackets": [[1, 2, 2, "2"], [1, 3, 3, "-2"],
                                        [2, 3, 1, "1"]],
                           "j": None}}
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    outputs = set()
    codes = set()
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "holopoisson.cli", "cohomology",
             str(path), "--weight", "2"],
            capture_output=True, text=True)
        codes.add(proc.returncode)
        outputs.add(proc.stdout)
    conclude(10, "cohomology reports are byte-identical across three "
                 "repeated runs", codes == {0} and len(outputs) == 1)


# ----------------------------------------------------------------------
# 11. column collapse: the polynomial dbar-Poincare lemma

def test_criterion_11_column_collapse():
    """On the canonical pair the A direction is dbar on polynomial
    coefficients, exact in every weight block above column 0: so
    ker_A(k, l) = rank_A(k - 1, l) for every k >= 1, and the double
    complex reduces to holomorphic polyvectors with d_pi."""
    ok = True
    for name, weight in (("sl2.json", 3), ("heisenberg.json", 3),
                         ("quadratic.json", 3), ("zero.json", 3),
                         ("constant_symplectic.json", 3),
                         ("darboux_n2.json", 1)):
        report, code = run_job({"command": "cohomology",
                                "input_path": corpus_path(name),
                                "options": {"weight": weight}})
        blocks = report["data"]["blocks"]
        ok = ok and code == 0 and len(blocks) == weight + 1
        for block in blocks:
            cells = {(c["k"], c["l"]): c for c in block["cells"]}
            for (k, l), cell in cells.items():
                if k >= 1 and cell["ker_A"] != cells[(k - 1, l)]["rank_A"]:
                    ok = False
    conclude(11, "the dbar columns are exact above k = 0 (ker_A(k, l) = "
                 "rank_A(k - 1, l)) on sl2, Heisenberg, quadratic, zero and "
                 "constant symplectic at weight <= 3 and darboux_n2 at "
                 "weight <= 1", ok)
