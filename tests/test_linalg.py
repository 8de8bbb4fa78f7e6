import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holopoisson.errors import SingularError
from holopoisson.exactalg import GQ, Chart, Poly
from holopoisson.linalg import (
    SparseMatrix,
    column_space_equal,
    dense_rank,
    gq_mat_inverse,
    markowitz_rank,
    poly_combine,
    poly_identity,
    poly_mat_mul,
    poly_mat_transpose,
)
from holopoisson.multivec import Form, Multivector, pairing

from oracles import EndoFieldReference, markowitz_rank_reference


def rand_gq(rng):
    return GQ(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              Fraction(rng.randint(-3, 3), rng.randint(1, 2)))


def test_rank_methods_agree_on_random_matrices():
    rng = random.Random(211)
    for _ in range(250):
        nr, nc = rng.randint(0, 8), rng.randint(0, 8)
        entries = {}
        for i in range(nr):
            for j in range(nc):
                if rng.random() < 0.4:
                    entries[(i, j)] = rand_gq(rng)
        m = SparseMatrix(nr, nc, entries)
        assert m.rank("sparse") == m.rank("oracle")


def test_rank_of_rank_one_products():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 6)
        u = [rand_gq(rng) for _ in range(n)]
        v = [rand_gq(rng) for _ in range(n)]
        entries = {(i, j): u[i] * v[j] for i in range(n) for j in range(n)}
        m = SparseMatrix(n, n, entries)
        expected = 1 if (any(not x.is_zero() for x in u)
                         and any(not x.is_zero() for x in v)) else 0
        assert m.rank("sparse") == expected


def test_identity_and_singular_inverse():
    eye = [[GQ(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert gq_mat_inverse(eye) == eye
    with pytest.raises(SingularError):
        gq_mat_inverse([[GQ(1), GQ(2)], [GQ(2), GQ(4)]])


def test_inverse_times_matrix_is_identity():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[rand_gq(rng) for _ in range(n)] for _ in range(n)]
        if dense_rank(rows) < n:
            continue
        inv = gq_mat_inverse(rows)
        prod = [[sum((inv[i][k] * rows[k][j] for k in range(n)), GQ(0))
                 for j in range(n)] for i in range(n)]
        assert all(prod[i][j] == GQ(1 if i == j else 0)
                   for i in range(n) for j in range(n))


def test_column_space_equality():
    a = [[GQ(1), GQ(0)], [GQ(0), GQ(1)], [GQ(0), GQ(0)]]
    b = [[GQ(2), GQ(1)], [GQ(1), GQ(1)], [GQ(0), GQ(0)]]
    c = [[GQ(1), GQ(0)], [GQ(0), GQ(0)], [GQ(0), GQ(1)]]
    assert column_space_equal(a, b)
    assert not column_space_equal(a, c)


def test_poly_matrix_helpers():
    chart = Chart.real(1)
    eye = poly_identity(chart, 2)
    x = Poly.var(chart, 0)
    m = [[x, Poly.one(chart)], [Poly.zero(chart), x]]
    assert poly_mat_mul(eye, m) == m
    assert poly_mat_transpose(poly_mat_transpose(m)) == m
    assert m != [m[0]] and m != [row[:1] for row in m]


def test_sparse_rank_empty_and_zero():
    assert SparseMatrix(0, 0, {}).rank("sparse") == 0
    assert SparseMatrix(3, 4, {}).rank("sparse") == 0


def test_sparse_matrix_checks_entries_at_the_public_constructor():
    """SparseMatrix(nrows, ncols, entries) converts values to GQ, drops
    zeros and refuses an entry outside the shape; it holds the entries as
    rows, and a view without some columns shares those rows."""
    matrix = SparseMatrix(2, 3, {(0, 0): 1, (0, 2): GQ(0), (1, 1): "1/2",
                                 (1, 2): GQ(0, 1)})
    assert matrix.entries == {(0, 0): GQ(1), (1, 1): GQ(Fraction(1, 2)),
                              (1, 2): GQ(0, 1)}
    assert matrix.row_dicts == {0: {0: GQ(1)},
                                1: {1: GQ(Fraction(1, 2)), 2: GQ(0, 1)}}
    assert matrix.nnz == 3
    for bad in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexError):
            SparseMatrix(2, 3, {bad: 1})
    view = matrix.without_columns({1})
    assert view.row_dicts is matrix.row_dicts
    assert (view.nrows, view.ncols, view.nnz) == (2, 3, 2)
    assert view.entries == {(0, 0): GQ(1), (1, 2): GQ(0, 1)}
    assert view.rows() == [[GQ(1), GQ(0), GQ(0)], [GQ(0), GQ(0), GQ(0, 1)]]
    assert matrix.without_columns(set()) is matrix
    assert matrix.without_columns(None) is matrix
    assert view.rank("sparse") == 2 == view.rank("oracle")
    assert view.pivot_rows == {0, 1}
    assert matrix.rank("oracle") == 2 and matrix.pivot_rows is None


def test_sparse_rank_keeps_fill_in():
    # every column has count 2 and every row length 2; the first pivot,
    # (1, 2) (the column pushed last onto the count-2 stack, on the
    # smaller of its two rows), fills (2, 0), and only with that fill does
    # the last row cancel (rank 2, not 3)
    one = GQ(1)
    matrix = SparseMatrix(3, 3, {(0, 0): one, (0, 1): one,
                                 (1, 0): one, (1, 2): one,
                                 (2, 1): one, (2, 2): -one})
    assert matrix.rank("sparse") == 2 == dense_rank(matrix.rows())


def _from_rows(nrows, ncols, rows):
    return SparseMatrix(nrows, ncols, {(i, j): value
                                       for i, row in rows.items()
                                       for j, value in row.items()})


@pytest.mark.parametrize("nrows,ncols,rows,rank,pivots", [
    # column singletons alone: column 4 pivots on row 2, which leaves
    # column 3 a singleton (row 0), which leaves column 2 one (row 1)
    (4, 5, {0: {0: 1, 2: 1, 3: 1}, 1: {1: 1, 2: 1}, 2: {2: 1, 3: 1, 4: 1}},
     3, {0, 1, 2}),
    # column 0 pivots on row 0; then rows 1, 2 and 4 are row singletons,
    # row 1 goes first and makes row 3 one, which takes column 2 before
    # row 4 can
    (5, 3, {0: {0: 1, 1: 1}, 1: {1: 1}, 2: {1: 2}, 3: {1: 3, 2: 1},
            4: {2: 5}},
     3, {0, 1, 3}),
    # no singleton: the bucket loop pivots on (2, 3) first, which fills
    # (3, 2), and row 4 is the one left out
    (5, 4, {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}, 2: {2: 1, 3: 1},
            3: {3: 1, 0: -1}, 4: {0: 1, 2: 1}},
     4, {0, 1, 2, 3}),
], ids=["column-singletons", "row-singletons", "bucket-fill-in"])
def test_sparse_rank_pivot_rows_are_pinned(nrows, ncols, rows, rank, pivots):
    """The rank and pivot rows of three hand-built matrices.  A reordered
    peel can keep the rank and change the pivot rows, which become the
    skipped columns of the next rank through the complex."""
    matrix = _from_rows(nrows, ncols, rows)
    assert matrix.rank("sparse") == rank == dense_rank(matrix.rows())
    assert matrix.pivot_rows == pivots


# ----------------------------------------------------------------------
# property: the sparse route agrees with the dense oracle

def rationals(height):
    return st.builds(Fraction, st.integers(-height, height),
                     st.integers(1, height))


def gaussian_rationals(height):
    return st.builds(GQ, rationals(height), rationals(height))


@st.composite
def sparse_matrices(draw):
    """Sparse Q(i) matrices: plain random ones, and planted low rank
    (a product of n x r and r x m factors), with zero rows and columns
    forced in and entries of small or large height."""
    height = draw(st.sampled_from([3, 10 ** 12, 2 ** 200]))
    density = draw(st.sampled_from([0.15, 0.4, 0.8]))
    zero = GQ(0)
    scalar = gaussian_rationals(height)
    mask = st.floats(0, 1)

    def sparse(n, m):
        return [[draw(scalar) if draw(mask) < density else zero
                 for _ in range(m)] for _ in range(n)]

    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(0, 9))
    if draw(st.booleans()):
        inner = draw(st.integers(0, 4))
        left, right = sparse(nrows, inner), sparse(inner, ncols)
        rows = [[sum((left[i][t] * right[t][j] for t in range(inner)), zero)
                 for j in range(ncols)] for i in range(nrows)]
    else:
        rows = sparse(nrows, ncols)
    if nrows:
        for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            rows[i] = [zero] * ncols
    if ncols:
        for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[j] = zero
    return nrows, ncols, rows


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_equals_dense_oracle(case):
    nrows, ncols, rows = case
    entries = {(i, j): v for i, row in enumerate(rows)
               for j, v in enumerate(row) if not v.is_zero()}
    matrix = SparseMatrix(nrows, ncols, entries)
    assert matrix.rank("sparse") == dense_rank(rows)
    # the oracle ranks the block on the nonzero rows and columns; the
    # padded dense matrix has the same rank
    assert matrix.rank("oracle") == dense_rank(rows)
    skip = set(range(0, ncols, 2))
    view = matrix.without_columns(skip)
    assert view.rank("oracle") == dense_rank(
        [[v for j, v in enumerate(row) if j not in skip] for row in rows])


@st.composite
def structured_matrices(draw):
    """Q(i) matrices up to 25 x 25 shaped to reach every branch of the
    bucket pivot search: a sparse base (random, or of planted low rank),
    a circulant band whose elimination fills in and raises a column's
    count before it falls, then rows that repeat, negate or scale earlier
    ones (so that columns empty by cancellation partway through the
    elimination) and singleton columns (count 1, pivoted with no search).
    Rows are shuffled last, so no structure sits at the low indices."""
    zero = GQ(0)
    scalar = gaussian_rationals(draw(st.sampled_from([3, 2 ** 64]))).filter(
        lambda v: not v.is_zero())
    density = draw(st.sampled_from([0.08, 0.2, 0.4]))
    mask = st.floats(0, 1)

    def sparse(n, m):
        return [[draw(scalar) if draw(mask) < density else zero
                 for _ in range(m)] for _ in range(n)]

    ncols = draw(st.integers(1, 25))
    nbase = draw(st.integers(1, 12))
    if draw(st.booleans()):
        inner = draw(st.integers(1, 5))
        left, right = sparse(nbase, inner), sparse(inner, ncols)
        rows = [[sum((left[i][t] * right[t][j] for t in range(inner)), zero)
                 for j in range(ncols)] for i in range(nbase)]
    else:
        rows = sparse(nbase, ncols)
    if ncols >= 4 and draw(st.booleans()):
        # a circulant band, row t on band columns t, t+1, t+2 (mod k): on
        # its own every band column has count 3, and eliminating one fills
        # the pivot row's other columns into two rows that lack them
        band = draw(st.permutations(range(ncols)))[:draw(
            st.integers(4, min(ncols, 8)))]
        for t in range(len(band)):
            row = [zero] * ncols
            for u in range(3):
                row[band[(t + u) % len(band)]] = draw(scalar)
            rows.append(row)
    factors = st.sampled_from([GQ(1), GQ(-1), GQ(0, 1)]) | scalar
    for _ in range(draw(st.integers(0, 5))):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        factor = draw(factors)
        rows.append([factor * v for v in source])
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=4)):
        keep = draw(st.integers(0, len(rows) - 1))
        for i, row in enumerate(rows):
            row[j] = draw(scalar) if i == keep else zero
    rows = draw(st.permutations(rows))
    return len(rows), ncols, rows


@settings(max_examples=100, deadline=None)
@given(structured_matrices())
def test_bucket_pivots_agree_with_full_scan_and_dense_oracle(case):
    """The bucket pivot search against two independent routes: the full
    Markowitz scan it replaced and dense elimination."""
    nrows, ncols, rows = case
    entries = {(i, j): v for i, row in enumerate(rows)
               for j, v in enumerate(row) if not v.is_zero()}
    matrix = SparseMatrix(nrows, ncols, entries)
    rank = dense_rank(rows)
    assert matrix.rank("sparse") == rank
    assert markowitz_rank_reference(matrix) == rank


@st.composite
def singleton_chains(draw):
    """Q(i) matrices whose singletons come in chains, around a core that
    needs elimination.  A staircase: a one-entry row on column s_0, then
    row t on s_(t-1) and s_t, and a closing row on every s_t (so that no
    s_t is a column singleton); peeling each row singleton makes the
    next.  A chain of column singletons: row q_t on c_t and c_(t+1) and
    on some core columns, so that c_0 holds one row and peeling each
    makes the next (with one row fewer, the last column holds one row as
    well, and the peels from both ends meet).  A dense core (random, or
    of planted low rank), whose rows also meet the staircase.  Rows and
    columns are shuffled."""
    zero = GQ(0)
    scalar = gaussian_rationals(draw(st.sampled_from([3, 2 ** 64]))).filter(
        lambda v: not v.is_zero())
    ncore, nstair, nchain = (draw(st.integers(0, 6)) for _ in range(3))
    ncols = ncore + nstair + nchain
    stair = range(ncore, ncore + nstair)
    chain = range(ncore + nstair, ncols)
    mask = st.floats(0, 1)
    rows = []

    def row_on(columns, density=1.0):
        row = [zero] * ncols
        for j in columns:
            if density == 1.0 or draw(mask) < density:
                row[j] = draw(scalar)
        return row

    ncore_rows = draw(st.integers(0, 8))
    if ncore and draw(st.booleans()):
        inner = draw(st.integers(1, 3))
        # the left factor has inner columns, which may be more than ncols
        left = [[draw(scalar) if draw(mask) < 0.8 else zero
                 for _ in range(inner)] for _ in range(ncore_rows)]
        right = [row_on(range(ncore), 0.8) for _ in range(inner)]
        core = [[sum((left[i][t] * right[t][j] for t in range(inner)), zero)
                 for j in range(ncols)] for i in range(ncore_rows)]
    else:
        core = [row_on(range(ncore), 0.8) for _ in range(ncore_rows)]
    for row in core:
        for j in stair:
            if draw(mask) < 0.4:
                row[j] = draw(scalar)
    rows += core
    for t in stair:
        rows.append(row_on([t] if t == ncore else [t - 1, t]))
    if nstair:
        rows.append(row_on(list(range(ncore)) + list(stair),
                           draw(st.sampled_from([0.0, 0.5]))))
        for j in stair:
            rows[-1][j] = draw(scalar)
    for t in range(nchain - draw(st.integers(0, min(1, nchain)))):
        row = row_on(range(ncore), 0.5)
        for j in chain[t:t + 2]:
            row[j] = draw(scalar)
        rows.append(row)
    order = draw(st.permutations(range(ncols)))
    rows = [[row[j] for j in order] for row in draw(st.permutations(rows))]
    return len(rows), ncols, rows


@settings(max_examples=100, deadline=None)
@given(singleton_chains())
def test_singleton_peel_agrees_with_full_scan_and_dense_oracle(case):
    """Peeling chains of row and column singletons before elimination
    keeps the rank, and its pivot rows are rank-many independent rows."""
    nrows, ncols, rows = case
    matrix = as_sparse(rows, ncols)
    rank = dense_rank(rows)
    assert matrix.rank("sparse") == rank
    assert markowitz_rank_reference(matrix) == rank
    pivots = matrix.pivot_rows
    assert len(pivots) == rank
    assert dense_rank([rows[i] for i in sorted(pivots)]) == rank


@st.composite
def shared_rows_cases(draw):
    """A matrix from any of the three strategies above and a set of its
    columns to leave out."""
    nrows, ncols, rows = draw(st.one_of(
        sparse_matrices(), structured_matrices(), singleton_chains()))
    skip = draw(st.sets(st.integers(0, max(ncols - 1, 0)),
                        max_size=ncols // 2))
    return ncols, rows, skip


@settings(max_examples=100, deadline=None)
@given(shared_rows_cases())
def test_rank_leaves_the_shared_rows_as_they_were(case):
    """The peel runs on counts over the matrix's own rows, and a view
    shares them, so neither the rank nor a view's rank may change them:
    afterwards they equal, in order too, a deep copy taken before."""
    ncols, rows, skip = case
    matrix = as_sparse(rows, ncols)
    before = copy.deepcopy(matrix.row_dicts)
    order = [(i, list(row.items())) for i, row in before.items()]
    view = matrix.without_columns(skip)
    skipped = [[GQ(0) if j in skip else v for j, v in enumerate(row)]
               for row in rows]
    assert view.rank("sparse") == dense_rank(skipped)
    assert matrix.rank("sparse") == dense_rank(rows)
    assert matrix.row_dicts == before
    assert [(i, list(row.items()))
            for i, row in matrix.row_dicts.items()] == order


# ----------------------------------------------------------------------
# property: a rank through the complex skips the previous pivot rows

def left_null_space(rows, ncols):
    """A basis of {y : y rows = 0} for a dense GQ matrix with ncols
    columns, by Gauss-Jordan on the transpose."""
    nrows = len(rows)
    m = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    pivots = []
    r = 0
    for c in range(nrows):
        p = next((i for i in range(r, ncols) if not m[i][c].is_zero()), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = GQ(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(ncols):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(nrows) if c not in pivots):
        y = [GQ(0)] * nrows
        y[free] = GQ(1)
        for i, c in enumerate(pivots):
            y[c] = -m[i][free]
        basis.append(y)
    return basis


@st.composite
def exact_pairs(draw):
    """(D1, D2) with D2 D1 = 0: D1 from structured_matrices, D2's rows
    sparse combinations of a basis of D1's left null space, some of them
    repeated or scaled."""
    nrows, ncols, first = draw(structured_matrices())
    zero = GQ(0)
    basis = left_null_space(first, ncols)
    scalar = gaussian_rationals(3).filter(lambda v: not v.is_zero())
    second = []
    for _ in range(draw(st.integers(1, 12))):
        row = [zero] * nrows
        for y in basis:
            if draw(st.integers(0, 2)) == 0:
                factor = draw(scalar)
                row = [a + factor * b for a, b in zip(row, y)]
        second.append(row)
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.sampled_from([GQ(1), GQ(-1), GQ(0, 1)]))
        second.append([factor * v for v in
                       second[draw(st.integers(0, len(second) - 1))]])
    return first, second


def as_sparse(rows, ncols):
    return SparseMatrix(len(rows), ncols, {
        (i, j): v for i, row in enumerate(rows)
        for j, v in enumerate(row) if not v.is_zero()})


@settings(max_examples=100, deadline=None)
@given(exact_pairs())
def test_rank_without_previous_pivot_rows_is_the_full_rank(pair):
    """With D2 D1 = 0 the pivot rows of D1 (rank D1 independent rows) and
    im D1 span D2's domain, so D2 without those columns keeps its rank."""
    first, second = pair
    d1 = as_sparse(first, len(first[0]))
    d2 = as_sparse(second, len(first))
    rank_d1 = d1.rank("sparse")
    pivots = d1.pivot_rows
    assert len(pivots) == rank_d1
    assert dense_rank([first[i] for i in sorted(pivots)]) == rank_d1
    restricted = d2.without_columns(pivots)
    assert restricted.ncols == d2.ncols and restricted.row_dicts is d2.row_dicts
    assert all(j not in pivots for _, j in restricted.entries)
    rank = restricted.rank("sparse")
    assert rank == markowitz_rank(d2) == dense_rank(second)


# ----------------------------------------------------------------------
# property: the matrix-vector product is the one-column matrix product

SMALL_CHARTS = [Chart.real(1), Chart.complex(1), Chart.real(2)]


@st.composite
def gaussian_integer_polys(draw, chart):
    """A Poly on chart with Gaussian-integer coefficients, zero about a
    third of the time."""
    if draw(st.integers(0, 2)) == 0:
        return Poly.zero(chart)
    small = st.integers(-3, 3)
    exps = st.tuples(*[st.integers(0, 2)] * chart.nvars)
    terms = draw(st.dictionaries(exps, st.tuples(small, small),
                                 max_size=3))
    return Poly(chart, {e: GQ(re, im) for e, (re, im) in terms.items()})


@st.composite
def matrix_vector_cases(draw):
    chart = draw(st.sampled_from(SMALL_CHARTS))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    poly = gaussian_integer_polys(chart)
    rows = [[draw(poly) for _ in range(ncols)] for _ in range(nrows)]
    return rows, [draw(poly) for _ in range(ncols)]


@settings(max_examples=80, deadline=None)
@given(matrix_vector_cases())
def test_poly_combine_is_one_column_product(case):
    """poly_combine of v over a's columns, from zero, is a v; from an out,
    it adds a v to out."""
    rows, vec = case
    column = [row[0] for row in poly_mat_mul(rows, [[x] for x in vec])]
    zero = [Poly.zero(vec[0].chart)] * len(rows)
    columns = poly_mat_transpose(rows)
    assert poly_combine(vec, columns, zero) == column
    assert poly_combine(vec, columns, column) == [x + x for x in column]


@st.composite
def endo_cases(draw):
    chart = draw(st.sampled_from(SMALL_CHARTS))
    m = chart.nvars
    poly = gaussian_integer_polys(chart)
    endo = EndoFieldReference(chart, [[draw(poly) for _ in range(m)]
                                      for _ in range(m)])
    vec = Multivector.from_components(chart, [draw(poly) for _ in range(m)])
    form = Form.from_components(chart, [draw(poly) for _ in range(m)])
    return endo, vec, form


@settings(max_examples=60, deadline=None)
@given(endo_cases())
def test_endo_field_transpose_action_is_adjoint(case):
    """<N* xi, V> = <xi, N V>: apply_form is the transpose of apply_vec."""
    endo, vec, form = case
    assert (pairing(endo.apply_form(form), vec)
            == pairing(form, endo.apply_vec(vec)))
