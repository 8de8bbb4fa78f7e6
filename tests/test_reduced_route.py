"""Weight-mode cohomology through the reduced complex, against the double
complex.

In weight mode with method "sparse", betti ranks only d_pi on holomorphic
polyvectors (the reduced complex) of a pair that _reduces, and fills
every other number of the report by counting.  These tests compare its
whole report, record for record, with the double complex's: method
"oracle" (every full matrix ranked densely), or, where the dense oracle
is out of reach, the double complex's sparse ranks
(oracles.double_complex_betti).
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopoisson import cohomology
from holopoisson.algebroid import (
    AlgebroidChart,
    MatchedPairData,
    RepData,
    antiholomorphic_tangent,
    canonical_matched_pair,
    holomorphic_matched_pair,
    lie_algebra,
    lie_poisson,
)
from holopoisson.cli import _doc_chart_pi, _load, corpus, corpus_path
from holopoisson.cohomology import MAX_CELLS, Truncation, betti
from holopoisson.errors import StructureError, TruncationError
from holopoisson.exactalg import GQ, Chart, Poly
from holopoisson.multivec import Multivector

from oracles import (
    double_complex_betti,
    holomorphic_tangent_algebroid,
    linear_action_algebroid,
    sl2,
)

C2 = Chart.complex(2)
C3 = Chart.complex(3)


def corpus_poisson_pairs():
    pairs = []
    for name in corpus():
        try:
            pi = _doc_chart_pi(_load(corpus_path(name)), name)[1]
            pairs.append((name, canonical_matched_pair(pi)))
        except StructureError:
            continue  # not a holomorphic Poisson structure
    return pairs


CORPUS = corpus_poisson_pairs()


def test_every_corpus_poisson_document_reduces():
    assert len(CORPUS) == 10  # all but antiholomorphic.json
    assert all(cohomology._reduces(mp) for _, mp in CORPUS)


@pytest.mark.parametrize("name, mp", CORPUS, ids=[name for name, _ in CORPUS])
def test_reduced_route_equals_double_complex_on_corpus(name, mp):
    """Every corpus Poisson document at weight <= 3, record for record.
    so4's dense oracle takes seconds at weight 2, so so4 is compared with
    the oracle at weight <= 1 and with the double complex's sparse ranks
    at weight <= 3."""
    truncation = Truncation("weight", 3)
    report = betti(mp, truncation)
    assert report.method == "sparse"
    if name == "so4.json":
        low = Truncation("weight", 1)
        assert (betti(mp, low).blocks
                == betti(mp, low, method="oracle").blocks)
        want = double_complex_betti(mp, truncation)
    else:
        want = betti(mp, truncation, method="oracle")
    assert report.blocks == want.blocks
    assert any(cell.rank_B for block in report.blocks
               for cell in block.cells) or name == "zero.json"


SL2_ON_C2 = ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])

ALGEBROIDS = [
    ("T^{1,0}C^2", lambda: holomorphic_tangent_algebroid(C2), 4),
    ("sl2 acting on C^2",
     lambda: linear_action_algebroid(sl2(), SL2_ON_C2), 4),
    ("sl2 over a point", sl2, 0),
]


@pytest.mark.parametrize("name, algebroid, bound", ALGEBROIDS,
                         ids=[name for name, _, _ in ALGEBROIDS])
def test_reduced_route_equals_double_complex_on_algebroids(name, algebroid,
                                                          bound):
    """Criterion 12's holomorphic Lie algebroids, whose rank differs from
    the chart's dimension over a point and for sl2 acting on C^2."""
    mp = holomorphic_matched_pair(algebroid())
    assert cohomology._reduces(mp)
    truncation = Truncation("weight", bound)
    assert (betti(mp, truncation).blocks
            == betti(mp, truncation, method="oracle").blocks)


def _not_reducing():
    """Pairs that break one condition each of the reduced route."""
    zb1 = Poly.var(C2, 2)
    out = []
    # B's anchor has a zb coefficient (holomorphic_matched_pair allows it)
    b = AlgebroidChart(C2, 1, [[zb1, 0, 0, 0]], [[[0]]])
    out.append(("zb in B's anchor", holomorphic_matched_pair(b)))
    # B's anchor has a d/dzb entry
    a = antiholomorphic_tangent(C2)
    b = AlgebroidChart(C2, 1, [[0, 0, 1, 0]], [[[0]]])
    out.append(("d/dzb in B's anchor",
                MatchedPairData(a, b, RepData(a, b, [[[0]], [[0]]]),
                                RepData(b, a, [[[0, 0], [0, 0]]]))))
    # a nonzero connection
    b = AlgebroidChart(C2, 1, [[0, 0, 0, 0]], [[[0]]])
    out.append(("nonzero gamma",
                MatchedPairData(a, b, RepData(a, b, [[[1]], [[0]]]),
                                RepData(b, a, [[[0, 0], [0, 0]]]))))
    # A's anchor is not the d/dzb frame
    a2 = AlgebroidChart(C2, 2, [[0, 0, 2, 0], [0, 0, 0, 1]],
                        [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    out.append(("scaled A anchor",
                MatchedPairData(a2, b, RepData(a2, b, [[[0]], [[0]]]),
                                RepData(b, a2, [[[0, 0], [0, 0]]]))))
    out.append(("swapped", canonical_matched_pair(
        Multivector(C2, 2, {(0, 1): Poly.one(C2)})).swapped()))
    return out


def test_other_pairs_take_the_double_complex(monkeypatch):
    """A pair that breaks one condition does not reduce, and betti ranks
    its double complex."""
    def refuse(*args):
        raise AssertionError("reduced route taken")

    monkeypatch.setattr(cohomology, "_reduced_ranks", refuse)
    for name, mp in _not_reducing():
        assert not cohomology._reduces(mp), name
        try:
            betti(mp, Truncation("weight", 1))
        except TruncationError:
            pass  # inhomogeneous data: weight mode is refused
    for name, mp in CORPUS[:1]:
        with pytest.raises(AssertionError, match="reduced route"):
            betti(mp, Truncation("weight", 1))


# ----------------------------------------------------------------------
# random holomorphic Poisson structures

LIE = {"sl2": (3, [(1, 2, 2, 2), (1, 3, 3, -2), (2, 3, 1, 1)]),
       "heisenberg": (3, [(1, 2, 3, 1)]),
       "oscillator": (4, [(1, 2, 2, 1), (1, 3, 3, -1), (2, 3, 4, 1)])}


def rebased_constants(rank, triples, steps):
    """The structure constants in the basis f_a = sum_i p[i][a] e_i, for
    the unimodular p of the elementary column operations in steps (each
    (a, b, t): column b += t column a) and its inverse q."""
    c = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, j, k, v in triples:
        c[i - 1][j - 1][k - 1] += v
        c[j - 1][i - 1][k - 1] -= v
    p = [[int(a == b) for b in range(rank)] for a in range(rank)]
    q = [row[:] for row in p]
    for a, b, t in steps:
        if a == b:
            continue
        for row in p:
            row[b] += t * row[a]
        q[a] = [x - t * y for x, y in zip(q[a], q[b])]
    out = []
    for a in range(rank):
        for b in range(a + 1, rank):
            vec = [sum(p[i][a] * p[j][b] * c[i][j][k]
                       for i in range(rank) for j in range(rank))
                   for k in range(rank)]
            for e in range(rank):
                value = sum(q[e][k] * vec[k] for k in range(rank))
                if value:
                    out.append((a + 1, b + 1, e + 1, GQ(value)))
    return rank, out


@st.composite
def rebased_lie_poisson(draw):
    rank, triples = LIE[draw(st.sampled_from(sorted(LIE)))]
    steps = draw(st.lists(st.tuples(st.integers(0, rank - 1),
                                    st.integers(0, rank - 1),
                                    st.sampled_from((1, -1))),
                          max_size=rank))
    return lie_poisson(lie_algebra(*rebased_constants(rank, triples, steps)))


@st.composite
def homogeneous_poly(draw, chart, degree):
    exps = st.tuples(*[st.integers(0, degree)] * chart.n).filter(
        lambda e: sum(e) == degree)
    small = st.integers(-2, 2)
    terms = draw(st.dictionaries(exps, st.tuples(small, small), min_size=1,
                                 max_size=3))
    return Poly(chart, {e + (0,) * chart.n: GQ(re, im)
                        for e, (re, im) in terms.items()})


@st.composite
def jacobian_poisson(draw):
    """pi^{ij} = f eps^{ijk} d_k g on C^3: Poisson for every f and g, and
    homogeneous for homogeneous f and g."""
    f = draw(homogeneous_poly(C3, draw(st.integers(0, 1))))
    g = draw(homogeneous_poly(C3, draw(st.integers(1, 2))))
    dg = [g.diff(k) for k in range(3)]
    return Multivector(C3, 2, {(0, 1): f * dg[2], (0, 2): -(f * dg[1]),
                               (1, 2): f * dg[0]})


@st.composite
def constant_poisson(draw):
    n = draw(st.integers(1, 4))
    chart = Chart.complex(n)
    small = st.integers(-2, 2)
    comps = {(i, j): Poly.const(chart, GQ(*draw(st.tuples(small, small))))
             for i in range(n) for j in range(i + 1, n)}
    return Multivector(chart, 2, comps)


@settings(max_examples=100, deadline=None)
@given(st.one_of(rebased_lie_poisson(), jacobian_poisson(),
                 constant_poisson()),
       st.integers(0, 3))
def test_reduced_route_equals_double_complex_on_random_structures(pi,
                                                                  bound):
    mp = canonical_matched_pair(pi)
    truncation = Truncation("weight", bound)
    assert betti(mp, truncation).blocks == double_complex_betti(
        mp, truncation).blocks


# ----------------------------------------------------------------------
# Whitehead's closed form at large weight

def _lie_pair(name):
    pi = _doc_chart_pi(_load(corpus_path(name)), name)[1]
    return canonical_matched_pair(pi)


@pytest.mark.parametrize("name, bound, betti_star", [
    ("sl2.json", 24, (1, 0, 0, 1)),
    ("so4.json", 8, (1, 0, 0, 2, 0, 0, 1)),
], ids=["sl2", "so4"])
def test_whitehead_at_large_weight(name, bound, betti_star):
    """H(g, S(g)) = H*(g) (x) S(g)^g for semisimple g (Whitehead): sl2
    has one quadratic Casimir and H*(sl2) = (1, 0, 0, 1); so4 = sl2 + sl2
    has two and H*(so4) = (1, 0, 0, 2, 0, 0, 1).  So weight w carries
    H*(g) times the w/2 + 1 products of Casimirs of degree w (one for
    sl2) at even w, and nothing at odd w."""
    mp = _lie_pair(name)
    report = betti(mp, Truncation("weight", bound))
    size = 2 * mp.A.rank + 1
    for block in report.blocks:
        w = block.weight
        times = (w // 2 + 1 if name == "so4.json" else 1) * (w % 2 == 0)
        want = tuple(times * b for b in betti_star)
        assert block.total_betti == want + (0,) * (size - len(want)), w


# ----------------------------------------------------------------------
# budgets

RANK_ZERO = {"lie_algebra": {"rank": 0, "brackets": []}}


def test_zero_dimensional_chart_is_refused_before_any_block(monkeypatch):
    """A chart with no variables has a one-element basis at any bound;
    its cell count, (bound + 1)(r_A + 1)(r_B + 1), refuses it on every
    route before any block or rank is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(cohomology, "_reduced_ranks", refuse)
    monkeypatch.setattr(cohomology, "build_block", refuse)
    mp = canonical_matched_pair(Multivector.zero(Chart.complex(0), 2))
    for mode in ("weight", "total_degree"):
        for method in ("sparse", "oracle"):
            with pytest.raises(TruncationError, match="cells"):
                betti(mp, Truncation(mode, 10 ** 8), method)
    with pytest.raises(TruncationError, match=f"{MAX_CELLS + 1} cells"):
        betti(mp, Truncation("weight", MAX_CELLS))
    monkeypatch.undo()
    assert len(betti(mp, Truncation("weight", MAX_CELLS - 1)).blocks) == (
        MAX_CELLS)


def test_zero_dimensional_chart_is_input_error(tmp_path):
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps(RANK_ZERO), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "holopoisson.cli", "cohomology", str(path),
         "--weight", "100000000"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("input error: the truncation has "
                                  "100000001 cells")
