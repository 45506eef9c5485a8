"""Exact linear algebra over a prime field F_p, on Python ints.

A matrix is a sequence of rows, each a sequence of ints; a vector is a
tuple of ints; a subspace is a list of vectors spanning it.  Results have
entries reduced mod p, and matrices come back as tuples of row tuples.  A
matrix with no rows carries no column count, so functions whose answer
depends on the number of columns take it as an argument.  The matrices of
this package are at most about a dozen rows and columns, where plain int
arithmetic costs less than an array library's per-call overhead; nothing
here is floating point.
"""

from __future__ import annotations


def rref(mat, p: int) -> tuple[list[tuple], list[int]]:
    """(rows, pivots): the nonzero rows of the reduced row echelon form of
    mat mod p, top to bottom, and the pivot column of each."""
    m = [[x % p for x in row] for row in mat]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row = m[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = m[r] = [x * inv % p for x in row]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], pivots


def rank(mat, p: int) -> int:
    return len(rref(mat, p)[1])


def nullspace(mat, ncols: int, p: int) -> list[tuple]:
    """A basis of the right nullspace of mat, an (any) x ncols matrix."""
    red, piv = rref(mat, p)
    basis = []
    for fc in sorted(set(range(ncols)) - set(piv)):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(red, piv):
            vec[pc] = -row[fc] % p
        basis.append(tuple(vec))
    return basis


def column_space(mat, p: int) -> list[tuple]:
    """A basis of the column space of mat: its pivot columns."""
    _, piv = rref(mat, p)
    return [tuple(row[c] % p for row in mat) for c in piv]


def complement_basis(sub, dim: int, p: int) -> list[tuple]:
    """Unit vectors of F_p^dim spanning a complement of the span of the
    vectors ``sub``.

    The unit vectors at the non-pivot coordinates of the reduced row echelon
    form of ``sub`` (as rows) complement its span, whether or not the vectors
    are independent; with independent vectors they extend them to a basis."""
    _, piv = rref(sub, p)
    return [tuple(int(i == j) for i in range(dim)) for j in sorted(set(range(dim)) - set(piv))]


def coords_in_basis(basis, vecs, p: int) -> tuple[tuple, ...]:
    """The len(basis) x len(vecs) matrix whose column k holds the
    coordinates of vecs[k] in the independent vectors ``basis``; a vector
    outside their span raises ValueError."""
    nb = len(basis)
    if not vecs:
        return ((),) * nb
    aug = [tuple(b[i] for b in basis) + tuple(v[i] for v in vecs) for i in range(len(vecs[0]))]
    red, piv = rref(aug, p)
    out = [(0,) * len(vecs)] * nb
    for row, pc in zip(red, piv):
        if pc >= nb:
            raise ValueError("vector not in span of basis")
        out[pc] = row[nb:]
    return tuple(out)
