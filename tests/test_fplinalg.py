import pytest
from hypothesis import given, settings, strategies as st

import numpy_fplinalg as nla
from tstructkit import fplinalg as la

PRIMES = (2, 3, 5)


def rand_matrix(draw, p, max_dim=4):
    """(rows, nrows, ncols): a tuple of row tuples with entries mod p; 0 rows
    and 0 columns are drawn too."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return tuple(tuple(data[r * cols:(r + 1) * cols]) for r in range(rows)), rows, cols


matrices = st.composite(rand_matrix)


def vector(data, p, n):
    return tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))


def mat_vec(m, x, p):
    return tuple(sum(a * b for a, b in zip(row, x)) % p for row in m)


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent_and_pivots_are_unit_columns(p, data):
    m, _, _ = data.draw(matrices(p))
    red, piv = la.rref(m, p)
    red2, piv2 = la.rref(red, p)
    assert red == red2 and piv == piv2
    assert len(red) == len(piv)
    for i, c in enumerate(piv):
        col = [row[c] for row in red]
        assert col[i] == 1 and sum(map(bool, col)) == 1


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_are_killed_and_count_matches_rank(p, data):
    m, _, ncols = data.draw(matrices(p))
    ns = la.nullspace(m, ncols, p)
    for v in ns:
        assert len(v) == ncols and not any(mat_vec(m, v, p))
    assert len(ns) == ncols - la.rank(m, p)


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_complement_basis_completes_to_full_rank(p, data):
    m, dim, _ = data.draw(matrices(p))
    sub = la.column_space(m, p)
    comp = la.complement_basis(sub, dim, p)
    assert la.rank(sub + comp, p) == dim
    assert len(sub) + len(comp) == dim


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_coords_in_basis_reconstructs(p, data):
    m, dim, _ = data.draw(matrices(p))
    basis = la.column_space(m, p)
    if not basis:
        return
    coeff = vector(data, p, len(basis))
    vec = tuple(sum(c * b[i] for c, b in zip(coeff, basis)) % p for i in range(dim))
    got = la.coords_in_basis(basis, [vec], p)
    assert tuple(row[0] for row in got) == coeff


def test_coords_in_basis_rejects_vectors_outside_span():
    with pytest.raises(ValueError):
        la.coords_in_basis([(1, 0)], [(0, 1)], 2)


# -- the int implementation against the numpy oracle, entry for entry ------


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=120, deadline=None)
def test_rref_rank_nullspace_and_column_space_equal_the_numpy_oracle(p, data):
    m, nrows, ncols = data.draw(matrices(p))
    arr = nla.array(m, nrows, ncols)
    red, piv = la.rref(m, p)
    ored, opiv = nla.rref(arr, p)
    assert piv == opiv
    assert red == list(nla.as_rows(ored[:len(piv)])) and not ored[len(piv):].any()
    assert la.rank(m, p) == nla.rank(arr, p)
    assert nla.columns(la.nullspace(m, ncols, p), ncols).tolist() == nla.nullspace(arr, p).tolist()
    assert nla.columns(la.column_space(m, p), nrows).tolist() == nla.column_space(arr, p).tolist()


@given(st.sampled_from(PRIMES), st.data())
@settings(max_examples=120, deadline=None)
def test_complement_and_coords_equal_the_numpy_oracle(p, data):
    m, nrows, ncols = data.draw(matrices(p))
    arr = nla.array(m, nrows, ncols)
    # complement of the span of the columns, given as a spanning list
    cols = [tuple(row[j] for row in m) for j in range(ncols)]
    comp = la.complement_basis(cols, nrows, p)
    assert nla.columns(comp, nrows).tolist() == nla.complement_basis(arr, nrows, p).tolist()
    # coordinates of random combinations in the column-space basis
    basis = la.column_space(m, p)
    nvec = data.draw(st.integers(0, 3))
    vecs = [mat_vec(list(zip(*basis)) or [()] * nrows, vector(data, p, len(basis)), p)
            for _ in range(nvec)]
    got = la.coords_in_basis(basis, vecs, p)
    want = nla.coords_in_basis(nla.columns(basis, nrows), nla.columns(vecs, nrows), p)
    assert nla.array(got, len(basis), nvec).tolist() == want.tolist()
