"""A wrong report counts as a failed operation.

    python3 -m pytest -q bench/test_checks.py

Reports are written by hand here (no holopoisson process), once as the
program gives them and once with a verdict flipped or a Betti number
changed; the benchmark must count the second kind as failed.
"""

from __future__ import annotations

import copy
import json

import checks
import inputs
from run import Checker, Op, count_failed, Workload

HEISENBERG_LIKE = {(0, 1): {(0, 0, 1): (1, 0)}}           # {z1, z2} = z3
NON_POISSON = {(0, 1): {(0, 0, 1): (1, 0)},               # + {z2, z3} = z2
               (1, 2): {(0, 1, 0): (1, 0)}}


def poisson_report(poisson, coeffs):
    return {"command": "check-poisson", "ok": poisson,
            "verdicts": {"dbar_zero": True, "schouten_zero": poisson,
                         "holomorphic_poisson": poisson},
            "data": {"chart": {"kind": "complex", "n": 3},
                     "pi": [{"frame": f, "coeff": c} for f, c in coeffs]}}


def sl2_report(weight):
    blocks = [{"weight": w, "cells": [],
               "total_dims": checks.weight_dims(3, w),
               "total_betti": checks.sl2_betti(w, 7)}
              for w in range(weight + 1)]
    return {"command": "cohomology", "ok": True, "verdicts": {},
            "data": {"mode": "weight", "bound": weight, "method": "sparse",
                     "label": "exact_weight_graded", "blocks": blocks}}


def failed(op, report, code):
    result = {"code": code, "stdout": json.dumps(report), "stderr": ""}
    checker = Checker()
    return count_failed(Workload([op]), [[result]], checker), checker


def test_jacobiator_decides_poisson():
    assert checks.jacobiator_zero(3, HEISENBERG_LIKE)
    assert not checks.jacobiator_zero(3, NON_POISSON)


def test_flipped_verdict_is_a_failed_operation():
    op = Op("check-poisson", [], lambda report, code:
            checks.check_check_poisson(report, code, 3, HEISENBERG_LIKE,
                                       True))
    good = poisson_report(True, [(["z1", "z2"], "z3")])
    assert failed(op, good, 0)[0] == 0
    flipped = copy.deepcopy(good)
    flipped["verdicts"]["schouten_zero"] = False
    flipped["verdicts"]["holomorphic_poisson"] = False
    count, checker = failed(op, flipped, 2)
    assert count == 1 and checker.problems


def test_non_poisson_claimed_poisson_is_a_failed_operation():
    op = Op("check-poisson", [], lambda report, code:
            checks.check_check_poisson(report, code, 3, NON_POISSON, False))
    coeffs = [(["z1", "z2"], "z3"), (["z2", "z3"], "z2")]
    assert failed(op, poisson_report(False, coeffs), 2)[0] == 0
    assert failed(op, poisson_report(True, coeffs), 0)[0] == 1


def test_wrong_betti_number_is_a_failed_operation():
    want = [checks.sl2_betti(w, 4) for w in range(3)]
    op = Op("cohomology", [], lambda report, code:
            checks.check_weight_cohomology(report, code, 3, 2, want))
    good = sl2_report(2)
    assert failed(op, good, 0)[0] == 0
    wrong = copy.deepcopy(good)
    wrong["data"]["blocks"][2]["total_betti"][3] = 2
    assert failed(op, wrong, 0)[0] == 1


def test_lichnerowicz_matches_the_sl2_rule():
    pi = checks.lie_poisson_exprs(
        inputs.constants_table(*inputs.LIE_ALGEBRAS["sl2"]))
    assert [checks.lichnerowicz_betti(3, pi, w) for w in range(3)] == \
        [checks.sl2_betti(w, 4) for w in range(3)]


def test_decompose_of_constant_symplectic():
    # corpus constant_symplectic: pi = -d/dz1 ^ d/dz2 on C^2
    report = {"data": {
        "pi_R": [{"frame": ["x1", "x2"], "coeff": "-1/4"},
                 {"frame": ["y1", "y2"], "coeff": "1/4"}],
        "pi_I": [{"frame": ["x1", "y2"], "coeff": "1/4"},
                 {"frame": ["x2", "y1"], "coeff": "-1/4"}]}}
    pi = {(0, 1): {(0, 0): (-1, 0)}}
    assert checks.check_decompose(report, 0, 2, pi) == []
    report["data"]["pi_I"][0]["coeff"] = "-1/4"
    assert checks.check_decompose(report, 0, 2, pi)

