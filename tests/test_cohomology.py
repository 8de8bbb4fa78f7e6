import json
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopoisson import cohomology
from holopoisson.algebroid import (
    MatchedPairData,
    canonical_matched_pair,
    lie_algebra,
    lie_poisson,
)
from holopoisson.cli import _doc_chart_pi, _load, corpus, corpus_path, run_job
from holopoisson.cohomology import (
    MAX_BASIS,
    Truncation,
    assemble_total,
    basis_size,
    betti,
    build_block,
    monomials_of_degree,
    monomials_up_to_degree,
    weight_exponents,
)
from holopoisson.errors import ParseError, StructureError, TruncationError
from holopoisson.exactalg import GQ, Chart, Poly
from holopoisson.multivec import Multivector
from holopoisson.serialize import parse_liealgebra

import oracles
from oracles import (
    BiCochain,
    bicochain_as_total,
    ce_differential,
    cell_matrix_reference,
    d_pi,
    dbar_mixed,
    double_complex_betti,
    frame_bivector,
    partial_A,
    partial_A_reference,
    partial_B,
    partial_B_reference,
    rand_poly,
    sl2_pi,
    total_as_bicochain_parts,
    total_differential,
    total_matrix_oracle,
    unequal_rank_pairs,
)

C1 = Chart.complex(1)
C2 = Chart.complex(2)
C3 = Chart.complex(3)


def corpus_pairs():
    return [
        ("zero", canonical_matched_pair(Multivector.zero(C2, 2))),
        ("const", canonical_matched_pair(frame_bivector(C2, 0, 1))),
        ("sl2", canonical_matched_pair(sl2_pi())),
        ("quadratic", canonical_matched_pair(
            frame_bivector(C2, 0, 1, Poly.var(C2, 0) * Poly.var(C2, 0)))),
    ]


def rand_bicochain(rng, mp, k, l, deg=2):
    comps = {}
    for I in combinations(range(mp.A.rank), k):
        for J in combinations(range(mp.B.rank), l):
            if rng.random() < 0.6:
                comps[(I, J)] = rand_poly(rng, mp.A.chart, deg=deg)
    return BiCochain(mp, k, l, comps)


# ----------------------------------------------------------------------
# the displayed coboundary formulas against the direct-sum oracle

def test_partials_match_ce_differential_oracle():
    rng = random.Random(83)
    from holopoisson.algebroid import bowtie
    for name, mp in corpus_pairs() + unequal_rank_pairs():
        d = bowtie(mp)
        for _ in range(6):
            k = rng.randint(0, mp.A.rank)
            l = rng.randint(0, mp.B.rank)
            cochain = rand_bicochain(rng, mp, k, l)
            total = bicochain_as_total(cochain, mp)
            image = ce_differential(d, total, k + l)
            part_a, part_b = total_as_bicochain_parts(image, mp, k, l)
            da = partial_A(cochain)
            db = partial_B(cochain)
            sign = -1 if k % 2 else 1
            assert da.comps == part_a
            want_b = {key: (poly if sign > 0 else -poly)
                      for key, poly in part_b.items()}
            assert db.comps == want_b


# ----------------------------------------------------------------------
# the per-cell operator tables against the reference coboundary

def table_route_pairs():
    """Every pair the table route must handle: the corpus pairs, each also
    swapped, and the unequal-rank pairs (which include their swaps)."""
    return (corpus_pairs()
            + [(f"{name} swapped", mp.swapped())
               for name, mp in corpus_pairs()]
            + unequal_rank_pairs())


def route_outcome(build):
    """A cell matrix as (shape, entries), or the TruncationError message."""
    try:
        matrix = build()
    except TruncationError as exc:
        return str(exc)
    return (matrix.nrows, matrix.ncols), matrix.entries


@pytest.mark.parametrize("truncation", [Truncation("total_degree", 2),
                                        Truncation("weight", 3)],
                         ids=["total_degree", "weight"])
def test_cell_matrices_equal_reference_route(truncation):
    escapes = set()
    for name, mp in table_route_pairs():
        weights = (range(truncation.bound + 1)
                   if truncation.mode == "weight" else [None])
        for block in (build_block(mp, truncation, weight=w)
                      for w in weights):
            for cell in block.cells():
                for direction in "AB":
                    got = route_outcome(
                        lambda: block.cell_matrix(cell, direction))
                    want = route_outcome(
                        lambda: cell_matrix_reference(block, cell,
                                                      direction))
                    assert got == want, (name, block.weight, cell, direction)
                    if isinstance(got, str):
                        escapes.add(name)
    if truncation.mode == "total_degree":
        # pi = z1^2 d/dz1 ^ d/dz2 raises the degree: both routes escape
        assert {"quadratic", "quadratic swapped"} <= escapes
    else:
        assert not escapes


def degree_starts(block, degree):
    """Each cell of one total degree -> its first position in the degree's
    basis (cells in sorted order), and the degree's dimension."""
    starts, size = {}, 0
    for cell in sorted(block.basis):
        if sum(cell) == degree:
            starts[cell] = size
            size += len(block.basis[cell])
    return starts, size


@pytest.mark.parametrize("truncation", [Truncation("total_degree", 2),
                                        Truncation("weight", 3)],
                         ids=["total_degree", "weight"])
def test_placed_cell_matrices_are_the_cell_matrices_shifted(truncation):
    """A cell matrix placed in the total matrix of its degree is the
    cell's own matrix with its rows shifted by the target cell's start,
    its columns by the source cell's start, and its entries negated for
    partial_B at odd k, in the degree's shape; cell_matrices places every
    cell so.  An escape raises alike on both routes."""
    for name, mp in table_route_pairs():
        weights = (range(truncation.bound + 1)
                   if truncation.mode == "weight" else [None])
        for block in (build_block(mp, truncation, weight=w)
                      for w in weights):
            for degree in range(block.max_total_degree() + 1):
                cols, ncols = degree_starts(block, degree)
                rows, nrows = degree_starts(block, degree + 1)
                wants = {}
                for cell, col_start in cols.items():
                    k, l = cell
                    for direction, target in (("A", (k + 1, l)),
                                              ("B", (k, l + 1))):
                        row_start = rows.get(target, 0)
                        negate = direction == "B" and k % 2 == 1
                        local = route_outcome(
                            lambda: block.cell_matrix(cell, direction))
                        placed = route_outcome(
                            lambda: block.cell_matrix(
                                cell, direction, row_start, col_start,
                                negate, (nrows, ncols)))
                        if isinstance(local, str):
                            want = local
                        else:
                            want = ((nrows, ncols),
                                    {(row_start + i, col_start + j):
                                     -v if negate else v
                                     for (i, j), v in local[1].items()})
                        assert placed == want, (name, block.weight, cell,
                                                direction)
                        wants[(cell, direction)] = want
                escapes = {w for w in wants.values() if isinstance(w, str)}
                try:
                    got = {key: ((matrix.nrows, matrix.ncols),
                                 matrix.entries)
                           for key, matrix in
                           block.cell_matrices(degree).items()}
                except TruncationError as exc:
                    assert {str(exc)} == escapes, (name, block.weight,
                                                   degree)
                else:
                    assert not escapes and got == wants, (
                        name, block.weight, degree)


def test_an_escape_that_cancels_is_no_error():
    """pi = z1^2 d/dz1 ^ d/dz2 and X = z1^2 d/dz1: the anchor term and the
    multiplier term of d_pi X each reach z1^3, outside a target basis of
    degree <= 2, but they cancel (L_X pi = 0).  An image outside the
    target basis is an error only when its value is nonzero, as it is
    for z1^3 d/dz1.  Each one-column block is checked against the
    reference route too."""
    z1 = Poly.var(C2, 0)
    mp = canonical_matched_pair(frame_bivector(C2, 0, 1, z1 * z1))

    def one_pair_cell(pair, monos):
        return cohomology._Cell([pair], {pair: 0}, monos,
                                {e: m for m, e in enumerate(monos)},
                                tuple(monos))

    target = one_pair_cell(((), (0, 1)), monomials_up_to_degree(4, 2))
    for exps, escapes in (((2, 0, 0, 0), False), ((3, 0, 0, 0), True)):
        source = one_pair_cell(((), (0,)), [exps])
        block = cohomology._Block(mp, None, {(0, 1): source, (0, 2): target},
                                  cohomology._Layout(mp))
        got = route_outcome(lambda: block.cell_matrix((0, 1), "B"))
        assert got == route_outcome(
            lambda: cell_matrix_reference(block, (0, 1), "B"))
        assert isinstance(got, str) == escapes
        if not escapes:
            assert got == ((len(target), 1), {})


def test_tables_only_for_nonempty_source_cells(monkeypatch):
    """An empty cell gets an empty matrix with no coboundary table and has
    no frame pairs.  The zero bivector on C^10 at weight 2 has 121 cells
    in each block, most of them empty with millions of frame pairs; a
    table is built once per nonempty cell and direction, and the blocks
    share it."""
    mp = canonical_matched_pair(Multivector.zero(Chart.complex(10), 2))
    built = []
    table = cohomology._coboundary_table

    def counting(data, k, l):
        built.append((k, l))
        return table(data, k, l)

    monkeypatch.setattr(cohomology, "_coboundary_table", counting)
    blocks = cohomology._blocks_for(mp, Truncation("weight", 2))
    nonempty = set()
    for block in blocks:
        for cell in block.cells():
            if block.cell_dim(cell):
                nonempty.add(cell)
            else:
                assert block.basis[cell].pairs == ()
    report = double_complex_betti(mp, Truncation("weight", 2))
    assert len(built) == 2 * len(nonempty)
    assert 0 < len(nonempty) < 121
    assert report.block(2).total_dims[0] == 210  # quadratic monomials


@st.composite
def route_cochains(draw):
    """A pair from table_route_pairs() and a random cochain on it with
    Gaussian-integer coefficients."""
    pairs = table_route_pairs()
    name, mp = pairs[draw(st.integers(0, len(pairs) - 1))]
    k = draw(st.integers(0, mp.A.rank))
    l = draw(st.integers(0, mp.B.rank))
    small = st.integers(-3, 3)
    exps = st.tuples(*[st.integers(0, 2)] * mp.A.chart.nvars)
    comps = {}
    for I in combinations(range(mp.A.rank), k):
        for J in combinations(range(mp.B.rank), l):
            coeffs = draw(st.dictionaries(exps, st.tuples(small, small),
                                          max_size=3))
            comps[(I, J)] = Poly(mp.A.chart,
                                 {e: GQ(re, im)
                                  for e, (re, im) in coeffs.items()})
    return BiCochain(mp, k, l, comps)


@settings(max_examples=60, deadline=None)
@given(route_cochains())
def test_partials_equal_reference_coboundary(c):
    assert partial_A(c) == partial_A_reference(c)
    assert partial_B(c) == partial_B_reference(c)


def test_partial_a_on_functions_is_dbar():
    pi = frame_bivector(C2, 0, 1)
    mp = canonical_matched_pair(pi)
    f = Poly.var(C2, 2) * Poly.var(C2, 0)
    cochain = BiCochain(mp, 0, 0, {((), ()): f})
    assert partial_A(cochain) == dbar_mixed(cochain)


def test_partial_b_zero_pi_on_functions():
    mp = canonical_matched_pair(Multivector.zero(C2, 2))
    cochain = BiCochain(mp, 0, 0, {((), ()): Poly.var(C2, 0)})
    assert partial_B(cochain).is_zero()


def test_double_complex_laws_on_corpus():
    rng = random.Random(89)
    for name, mp in corpus_pairs() + unequal_rank_pairs():
        for _ in range(8):
            k = rng.randint(0, mp.A.rank)
            l = rng.randint(0, mp.B.rank)
            c = rand_bicochain(rng, mp, k, l)
            assert partial_A(partial_A(c)).is_zero()
            assert partial_B(partial_B(c)).is_zero()
            assert partial_A(partial_B(c)) == partial_B(partial_A(c))


def test_total_differential_squares_to_zero():
    rng = random.Random(97)
    for name, mp in corpus_pairs():
        for _ in range(5):
            k = rng.randint(0, mp.A.rank)
            l = rng.randint(0, mp.B.rank)
            c = rand_bicochain(rng, mp, k, l)
            da, db = total_differential(c)
            # apply again to each output cell and sum per target cell
            daa, dab = total_differential(da)
            dba, dbb = total_differential(db)
            assert daa.is_zero()
            assert dbb.is_zero()
            assert (dab + dba).is_zero()


# ----------------------------------------------------------------------
# dbar_mixed and d_pi on cochains of the canonical pair

def test_dbar_mixed_examples():
    z1 = Poly.var(C3, 0)
    mp = canonical_matched_pair(Multivector.zero(C3, 2))
    # a holomorphic (2,0) polyvector is dbar-closed
    assert dbar_mixed(BiCochain(mp, 0, 2, {((), (0, 1)): z1 * z1})).is_zero()
    c = BiCochain(mp, 1, 1, {((1,), (0,)): Poly.var(C3, 3) * z1})
    assert dbar_mixed(c) == BiCochain(mp, 2, 1, {((0, 1), (0,)): z1})


def test_dbar_mixed_squares_to_zero():
    rng = random.Random(31)
    mp = canonical_matched_pair(Multivector.zero(C2, 2))
    for _ in range(20):
        comps = {}
        q, p = rng.randint(0, 2), rng.randint(0, 2)
        for I in combinations(range(2), q):
            for J in combinations(range(2), p):
                comps[(I, J)] = rand_poly(rng, C2)
        c = BiCochain(mp, q, p, comps)
        assert dbar_mixed(dbar_mixed(c)).is_zero()


def test_d_pi_examples():
    pi = frame_bivector(C2, 0, 1)
    mp = canonical_matched_pair(pi)
    f = BiCochain(mp, 0, 0, {((), ()): Poly.var(C2, 0)})
    assert d_pi(f, pi) == BiCochain(mp, 0, 1,
                                    {((), (1,)): Poly.const(C2, -1)})
    assert d_pi(f, Multivector.zero(C2, 2)).is_zero()
    # second-term contribution: omega = zb1 dzb1
    m = BiCochain(mp, 1, 0, {((0,), ()): Poly.var(C2, 2)})
    out = d_pi(m, pi)
    assert (out.k, out.l) == (1, 1)
    # i_{pi#(dz^i)} d(zb1 dzb1) vanishes: d omega is a (0,2)-form
    assert out.is_zero()
    m2 = BiCochain(mp, 1, 0, {((0,), ()): Poly.var(C2, 0)})
    assert d_pi(m2, pi) == BiCochain(mp, 1, 1,
                                     {((0,), (1,)): Poly.const(C2, -1)})


def test_d_pi_squares_to_zero_and_commutes_with_dbar():
    rng = random.Random(101)
    for pi in (frame_bivector(C2, 0, 1), sl2_pi(),
               frame_bivector(C2, 0, 1, Poly.var(C2, 0) * Poly.var(C2, 0))):
        mp = canonical_matched_pair(pi)
        n = pi.chart.n
        for _ in range(6):
            c = rand_bicochain(rng, mp, rng.randint(0, n), rng.randint(0, n))
            assert d_pi(d_pi(c, pi), pi).is_zero()
            assert dbar_mixed(d_pi(c, pi)) == d_pi(dbar_mixed(c), pi)


def test_d_pi_equals_partial_b_under_identification():
    rng = random.Random(103)
    for name, mp in corpus_pairs():
        n = mp.A.chart.n
        pi = _pi_of(mp)
        for _ in range(10):
            c = rand_bicochain(rng, mp, rng.randint(0, n), rng.randint(0, n))
            assert partial_B(c) == d_pi(c, pi)
            assert partial_A(c) == dbar_mixed(c)


@st.composite
def poisson_cochains(draw):
    """f d/dz1 ^ d/dz2 on C^2 for a holomorphic f with Gaussian-integer
    coefficients and exponents <= 3 (Poisson, since Lambda^3 T^{1,0} = 0),
    and a random cochain of its canonical pair."""
    small = st.integers(-3, 3)
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3),
                                           st.integers(0, 3)),
                                 st.tuples(small, small), max_size=4))
    f = Poly(C2, {(a, b, 0, 0): GQ(re, im)
                  for (a, b), (re, im) in terms.items()})
    pi = frame_bivector(C2, 0, 1, f)
    mp = canonical_matched_pair(pi)
    k, l = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    exps = st.tuples(*[st.integers(0, 2)] * C2.nvars)
    comps = {}
    for I in combinations(range(2), k):
        for J in combinations(range(2), l):
            coeffs = draw(st.dictionaries(exps, st.tuples(small, small),
                                          max_size=3))
            comps[(I, J)] = Poly(C2, {e: GQ(re, im)
                                      for e, (re, im) in coeffs.items()})
    return pi, BiCochain(mp, k, l, comps)


@settings(max_examples=40, deadline=None)
@given(poisson_cochains())
def test_check_operators_equal_partials_on_random_poisson_structures(case):
    pi, c = case
    assert partial_B(c) == d_pi(c, pi)
    assert partial_A(c) == dbar_mixed(c)


def test_check_operators_do_not_use_the_coboundary(monkeypatch):
    """dbar_mixed and d_pi check partial_A and partial_B, so they must not
    reach the coboundary route (or the swapped pair it runs on)."""
    pi = sl2_pi()
    mp = canonical_matched_pair(pi)
    c = BiCochain(mp, 1, 1, {((0,), (1,)): Poly.var(C3, 0) * Poly.var(C3, 4),
                             ((2,), (0,)): Poly.var(C3, 5)})
    want_a, want_b = partial_A(c), partial_B(c)
    assert not want_a.is_zero() and not want_b.is_zero()

    def refuse(*args, **kwargs):
        raise AssertionError("a check operator ran the route it checks")

    for name in ("_coboundary_table", "_cell_table", "_direction_data"):
        monkeypatch.setattr(cohomology, name, refuse)
    for name in ("partial_A", "partial_B", "total_differential"):
        monkeypatch.setattr(oracles, name, refuse)
    monkeypatch.setattr(MatchedPairData, "swapped", refuse)
    assert dbar_mixed(c) == want_a
    assert d_pi(c, pi) == want_b


def _pi_of(mp):
    """Reconstruct the bivector from the canonical pair's B-anchor."""
    chart = mp.A.chart
    n = chart.n
    comps = {}
    for i in range(n):
        row = mp.B.anchor[i]
        for j in range(i + 1, n):
            if not row[j].is_zero():
                comps[(i, j)] = row[j]
    return Multivector(chart, 2, comps)


def test_d_pi_rejects_non_poisson():
    # the cochain lives on the pair of the zero bivector, so the bad pi
    # reaches d_pi itself rather than canonical_matched_pair
    mp = canonical_matched_pair(Multivector.zero(C2, 2))
    with pytest.raises(StructureError):
        d_pi(BiCochain(mp, 0, 0, {((), ()): Poly.one(C2)}),
             frame_bivector(C2, 0, 1, Poly.var(C2, 2)))


# ----------------------------------------------------------------------
# truncation bookkeeping

def test_monomial_enumeration():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 1) == []
    assert len(monomials_up_to_degree(4, 3)) == 35


def test_weight_exponents_inference():
    mp0 = canonical_matched_pair(Multivector.zero(C2, 2))
    assert weight_exponents(mp0) == (1, 1)
    mp1 = canonical_matched_pair(frame_bivector(C2, 0, 1))
    assert weight_exponents(mp1) == (1, 1)
    mp_lin = canonical_matched_pair(sl2_pi())
    assert weight_exponents(mp_lin) == (1, 0)
    mp_quad = canonical_matched_pair(
        frame_bivector(C2, 0, 1, Poly.var(C2, 0) * Poly.var(C2, 0)))
    assert weight_exponents(mp_quad) == (1, -1)


def test_weight_mode_rejects_inhomogeneous_pi():
    pi = frame_bivector(C2, 0, 1, Poly.one(C2) + Poly.var(C2, 0))
    mp = canonical_matched_pair(pi)
    with pytest.raises(TruncationError):
        betti(mp, Truncation("weight", 1))


def test_total_degree_mode_rejects_escaping_differential():
    pi = frame_bivector(C2, 0, 1, Poly.var(C2, 0) * Poly.var(C2, 0))
    mp = canonical_matched_pair(pi)
    with pytest.raises(TruncationError):
        betti(mp, Truncation("total_degree", 2))


def test_truncation_validation():
    with pytest.raises(TruncationError):
        Truncation("nonsense", 1)
    with pytest.raises(TruncationError):
        Truncation("weight", -1)


# ----------------------------------------------------------------------
# assembled matrices

def test_assemble_total_composes_to_zero():
    for label_mp, truncation in (
            (canonical_matched_pair(Multivector.zero(C1, 2)),
             Truncation("total_degree", 2)),
            (canonical_matched_pair(sl2_pi()), Truncation("weight", 2)),
            (canonical_matched_pair(frame_bivector(C2, 0, 1)),
             Truncation("total_degree", 3)),
    ):
        matrices = dict(assemble_total(label_mp, truncation))
        by_block = {}
        for label, matrix in matrices.items():
            prefix, _, degree = label.rpartition("d")
            by_block.setdefault(prefix, {})[int(degree)] = matrix
        for prefix, per_degree in by_block.items():
            for deg in sorted(per_degree)[:-1]:
                a = per_degree[deg]
                b = per_degree.get(deg + 1)
                if b is None or a.nrows != b.ncols:
                    continue
                # sparse product b . a must vanish identically
                b_by_col = {}
                for (i, t), v in b.entries.items():
                    b_by_col.setdefault(t, []).append((i, v))
                product = {}
                for (t, j), av in a.entries.items():
                    for i, bv in b_by_col.get(t, ()):
                        key = (i, j)
                        acc = product.get(key, GQ(0)) + bv * av
                        if acc.is_zero():
                            product.pop(key, None)
                        else:
                            product[key] = acc
                assert not product


def heisenberg_pi():
    g = lie_algebra(3, [(1, 2, 3, GQ(1))])
    return lie_poisson(g)


def test_total_matrix_equals_basis_vector_assembly():
    # darboux_n1: pi = -d/dz1 ^ d/dz2 on C^2
    darboux = frame_bivector(C2, 0, 1, Poly.const(C2, -1))
    cases = [(sl2_pi(), Truncation("weight", 2)),
             (heisenberg_pi(), Truncation("weight", 2)),
             (darboux, Truncation("total_degree", 1))]
    for pi, truncation in cases:
        mp = canonical_matched_pair(pi)
        weights = (range(truncation.bound + 1)
                   if truncation.mode == "weight" else [None])
        for weight in weights:
            block = build_block(mp, truncation, weight=weight)
            for degree in range(block.max_total_degree() + 1):
                matrix = block.total_matrix(degree)
                shape, entries = total_matrix_oracle(block, degree)
                assert (matrix.nrows, matrix.ncols) == shape
                assert matrix.entries == entries


def test_betti_total_matrices_equal_basis_vector_assembly(monkeypatch):
    """The total matrices that the double complex ranks (merged in place
    from the cell matrices it ranked first) are the basis-vector assembly;
    on darboux_n1 and sl2 partial_A and partial_B reach rows in common."""
    got = {}
    total_matrix = cohomology._Block.total_matrix

    def keep(block, degree, *args):
        matrix = total_matrix(block, degree, *args)
        label = (f"d{degree}" if block.weight is None
                 else f"w{block.weight}_d{degree}")
        got[label] = ((matrix.nrows, matrix.ncols), matrix.entries)
        return matrix

    monkeypatch.setattr(cohomology._Block, "total_matrix", keep)
    darboux = frame_bivector(C2, 0, 1, Poly.const(C2, -1))
    for pi, truncation in ((sl2_pi(), Truncation("weight", 2)),
                           (darboux, Truncation("total_degree", 1))):
        mp = canonical_matched_pair(pi)
        got.clear()
        double_complex_betti(mp, truncation)
        want = {}
        shared = False
        weights = (range(truncation.bound + 1)
                   if truncation.mode == "weight" else [None])
        for weight in weights:
            block = build_block(mp, truncation, weight=weight)
            for degree in range(block.max_total_degree() + 1):
                label = (f"d{degree}" if weight is None
                         else f"w{weight}_d{degree}")
                want[label] = total_matrix_oracle(block, degree)
                reached = Counter(
                    i for matrix in block.cell_matrices(degree).values()
                    for i in matrix.row_dicts)
                shared |= any(n > 1 for n in reached.values())
        assert got == want
        assert shared


def test_block_diagonal_for_zero_pi():
    # pi = 0: partial_B = 0 on everything, so the total matrices are the
    # dbar matrices alone
    mp = canonical_matched_pair(Multivector.zero(C1, 2))
    block = build_block(mp, Truncation("total_degree", 2))
    for cell in block.cells():
        assert block.cell_matrix(cell, "B").nnz == 0


# ----------------------------------------------------------------------
# betti values

def test_betti_zero_pi_n1_holomorphic_kernels():
    mp = canonical_matched_pair(Multivector.zero(C1, 2))
    report = betti(mp, Truncation("total_degree", 2))
    block = report.blocks[0]
    cells = {(c.k, c.l): c for c in block.cells}
    # column q=0, row l=0: polynomial dbar-kernel 1, z, z^2
    assert cells[(0, 0)].ker_A == 3
    # row l=1: holomorphic polynomial vector fields of degree <= 2
    assert cells[(0, 1)].ker_A == 3
    assert block.total_betti[0] == 3


def test_betti_equals_oracle_on_small_corpus():
    cases = [
        (canonical_matched_pair(Multivector.zero(C1, 2)),
         Truncation("total_degree", 2)),
        (canonical_matched_pair(Multivector.zero(C2, 2)),
         Truncation("total_degree", 1)),
        (canonical_matched_pair(frame_bivector(C2, 0, 1)),
         Truncation("total_degree", 2)),
        (canonical_matched_pair(sl2_pi()), Truncation("weight", 1)),
    ]
    for mp, truncation in cases:
        oracle = betti(mp, truncation, method="oracle")
        assert betti(mp, truncation).blocks == oracle.blocks


THROUGH_THE_COMPLEX_CASES = [
    pytest.param(name, options, id=f"{mode}-{name}")
    for mode, options in (("weight", {"weight": 3}),
                          ("total_degree", {"max_degree": 2}))
    for name in ("sl2", "heisenberg", "darboux_n1", "zero")] + [
    # entries other than +-1, so that peeling a singleton row, which
    # deletes its column's entries from the other rows, is checked too
    pytest.param(name, {"weight": 2}, id=f"weight2-{name}")
    for name in ("sl2_realified", "oscillator")]


@pytest.mark.parametrize("name, options", THROUGH_THE_COMPLEX_CASES)
def test_sparse_route_through_the_complex_equals_oracle_on_corpus(
        name, options):
    """The sparse route ranks each matrix without the previous pivot
    rows, after peeling its singletons; the oracle ranks every full
    matrix.  Per-cell kernels and ranks, total dimensions and Betti
    numbers agree in both modes."""
    from holopoisson.cli import run_job

    data = {}
    for method in ("sparse", "oracle"):
        report, code = run_job({"command": "cohomology",
                                "input_path": corpus_path(f"{name}.json"),
                                "input": None,
                                "options": dict(options, method=method)})
        assert code == 0
        data[method] = report["data"]
    assert data["sparse"]["blocks"] == data["oracle"]["blocks"]
    assert any(cell["rank_A"] or cell["rank_B"]
               for block in data["sparse"]["blocks"]
               for cell in block["cells"])


# Whole reports past the golden file's weights, recorded from the double
# complex (every cell ranked) before weight mode took the reduced route:
# sl2, Heisenberg and quadratic at weight 4-6, so4 at 2, the oscillator
# at 4, and the benchmark's re-based sl2 (seed 11) at 3, inline.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "pinned_betti.json"), encoding="utf-8") as _handle:
    PINNED_BETTI = json.load(_handle)


@pytest.mark.parametrize("case", PINNED_BETTI,
                         ids=[case["id"] for case in PINNED_BETTI])
def test_betti_reports_are_pinned(case):
    job = {"command": "cohomology", "options": {"weight": case["weight"]}}
    if "corpus" in case:
        job["input_path"] = corpus_path(case["corpus"])
    else:
        job["input"] = case["input"]
    report, code = run_job(job)
    assert code == 0
    assert report["data"] == case["data"]


def test_betti_sl2_weight_two_casimir_line():
    mp = canonical_matched_pair(sl2_pi())
    report = betti(mp, Truncation("weight", 2))
    assert report.block(2).total_betti[0] == 1
    assert report.block(0).total_betti[0] == 1
    assert report.block(1).total_betti[0] == 0


def test_betti_sl2_weight_five_is_whitehead():
    """H(sl2, S(sl2)) = H*(sl2) (x) Casimirs (Whitehead's lemma on each
    S^d(sl2)): the block of weight w carries (1, 0, 0, 1) when w is even
    and nothing when it is odd.  Sparse route only; at this size the
    dense oracle is far too slow."""
    with open(corpus_path("sl2.json"), encoding="utf-8") as handle:
        doc = json.load(handle)["lie_algebra"]
    sl2 = lie_poisson(parse_liealgebra(doc).algebroid)
    report = betti(canonical_matched_pair(sl2), Truncation("weight", 5))
    for weight in range(6):
        want = (1, 0, 0, 1, 0, 0, 0) if weight % 2 == 0 else (0,) * 7
        assert tuple(report.block(weight).total_betti) == want


def test_betti_constructs_no_fraction(monkeypatch):
    """The scalar is integer-only: once the input is parsed, the whole
    cohomology route builds no Fraction."""
    with open(corpus_path("sl2.json"), encoding="utf-8") as handle:
        doc = json.load(handle)["lie_algebra"]
    sl2 = lie_poisson(parse_liealgebra(doc).algebroid)
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert Fraction(1, 2) and len(built) == 1  # the counter is live
    built.clear()
    report = betti(canonical_matched_pair(sl2), Truncation("weight", 2))
    monkeypatch.undo()
    assert report.block(2).total_betti[0] == 1
    assert built == []


def test_betti_monotonicity_in_truncation_bound():
    mp = canonical_matched_pair(frame_bivector(C2, 0, 1))
    small = betti(mp, Truncation("total_degree", 1))
    large = betti(mp, Truncation("total_degree", 2))
    cells_small = {(c.k, c.l): c for c in small.blocks[0].cells}
    cells_large = {(c.k, c.l): c for c in large.blocks[0].cells}
    for key, cell in cells_small.items():
        assert cells_large[key].ker_A >= cell.ker_A
        assert cells_large[key].ker_B >= cell.ker_B


def test_betti_report_invariants():
    mp = canonical_matched_pair(sl2_pi())
    report = betti(mp, Truncation("weight", 2))
    for block in report.blocks:
        for value in block.total_betti:
            assert value >= 0
        for cell in block.cells:
            assert 0 <= cell.ker_A <= cell.dim
            assert cell.rank_A == cell.dim - cell.ker_A


def _corpus_pair(name):
    return canonical_matched_pair(
        _doc_chart_pi(_load(corpus_path(name)), name)[1])


def test_basis_size_is_the_reports_total_dimension():
    """The counted basis dimension is the sum of the report's total_dims
    over its blocks, on every corpus document that has a report at
    --weight 2 and at --max-degree 1."""
    compared = 0
    for name in corpus():
        doc = _load(corpus_path(name))
        for options, truncation in (({"weight": 2}, Truncation("weight", 2)),
                                    ({"max_degree": 1},
                                     Truncation("total_degree", 1))):
            try:
                report, _ = run_job({"command": "cohomology", "input": doc,
                                     "options": options})
            except (StructureError, ParseError):
                continue  # not Poisson, or an escaping truncation
            dims = sum(sum(block["total_dims"])
                       for block in report["data"]["blocks"])
            assert basis_size(_corpus_pair(name), truncation) == dims, name
            compared += 1
    assert compared >= 18


def test_basis_budget_admits_the_ladder_and_refuses_weight_60():
    """The budget admits the largest cases on the cold ladder and refuses
    quadratic.json at weight 60 on the double complex before any block is
    built, and so4 at weight 10 on the reduced route, whose count is
    63 C(16, 6) = 504 504."""
    for name, truncation in (("sl2.json", Truncation("weight", 9)),
                             ("so4.json", Truncation("weight", 4)),
                             ("darboux_n2.json",
                              Truncation("total_degree", 4))):
        assert basis_size(_corpus_pair(name), truncation) <= MAX_BASIS
    mp = _corpus_pair("quadratic.json")
    assert basis_size(mp, Truncation("weight", 60)) > MAX_BASIS
    with pytest.raises(TruncationError, match="basis elements"):
        betti(mp, Truncation("weight", 60), method="oracle")
    with pytest.raises(TruncationError, match="504504 basis elements"):
        betti(_corpus_pair("so4.json"), Truncation("weight", 10))


def test_empty_block_is_dimension_zero():
    mp = canonical_matched_pair(Multivector.zero(C1, 2))
    report = betti(mp, Truncation("weight", 0))
    block = report.block(0)
    # weight 0: only the constant functions in low cells
    assert block.total_dims[0] == 1
    assert all(b >= 0 for b in block.total_betti)
