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
    poly_identity,
    poly_mat_eq,
    poly_mat_mul,
    poly_mat_transpose,
    poly_mat_vec,
)
from holopoisson.multivec import Form, Multivector, pairing
from holopoisson.poisson import EndoField


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
    assert poly_mat_eq(poly_mat_mul(eye, m), m)
    assert poly_mat_eq(poly_mat_transpose(poly_mat_transpose(m)), m)


def test_sparse_rank_empty_and_zero():
    assert SparseMatrix(0, 0, {}).rank("sparse") == 0
    assert SparseMatrix(3, 4, {}).rank("sparse") == 0


def test_sparse_rank_keeps_fill_in():
    # every pivot has Markowitz cost 1; the first one fills (1, 1), and
    # only with that fill does the last row cancel (rank 2, not 3)
    one = GQ(1)
    matrix = SparseMatrix(3, 3, {(0, 0): one, (0, 1): one,
                                 (1, 0): one, (1, 2): one,
                                 (2, 1): one, (2, 2): -one})
    assert matrix.rank("sparse") == 2 == dense_rank(matrix.rows())


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
def test_poly_mat_vec_is_one_column_product(case):
    rows, vec = case
    column = poly_mat_mul(rows, [[x] for x in vec])
    assert poly_mat_vec(rows, vec) == [row[0] for row in column]


@st.composite
def endo_cases(draw):
    chart = draw(st.sampled_from(SMALL_CHARTS))
    m = chart.nvars
    poly = gaussian_integer_polys(chart)
    endo = EndoField(chart, [[draw(poly) for _ in range(m)]
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
