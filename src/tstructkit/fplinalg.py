"""Exact linear algebra over a prime field F_p.

Matrices are numpy integer arrays with entries reduced mod p.  Everything
here is small and exact; no floating point is ever involved.
"""

from __future__ import annotations

import numpy as np


def modinv(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.  Returns (rref matrix, pivot columns)."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = None
        for i in range(r, rows):
            if m[i, c] % p != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * modinv(m[r, c], p)) % p
        for i in range(rows):
            if i != r and m[i, c] % p != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m % p, pivots


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    _, piv = rref(mat, p)
    return len(piv)


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace, as columns of the returned matrix."""
    mat = np.asarray(mat, dtype=np.int64)
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    red, piv = rref(mat, p)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(piv):
            basis[pc, j] = (-red[i, fc]) % p
    return basis


def column_space(mat: np.ndarray, p: int) -> np.ndarray:
    """A basis of the column space, as columns."""
    mat = np.asarray(mat, dtype=np.int64)
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=np.int64)
    _, piv = rref(mat, p)
    return mat[:, piv] % p


def solve(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of mat @ x = rhs mod p, or None if inconsistent."""
    mat = np.asarray(mat, dtype=np.int64)
    rhs = np.asarray(rhs, dtype=np.int64).reshape(-1)
    rows, cols = mat.shape
    aug = np.concatenate([mat, rhs.reshape(-1, 1)], axis=1)
    red, piv = rref(aug, p)
    if cols in piv:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, pc in enumerate(piv):
        x[pc] = red[i, cols]
    return x % p


def complement_basis(sub: np.ndarray, dim: int, p: int) -> np.ndarray:
    """Columns spanning a complement of the column space of `sub` in F_p^dim.

    The standard basis vectors at the non-pivot coordinates of the row
    space of sub^T complement that space, whether or not the columns of sub
    are independent; with independent columns they extend them to a basis."""
    if sub.size == 0:
        return np.eye(dim, dtype=np.int64)
    _, piv = rref(sub.T, p)
    free = [j for j in range(dim) if j not in piv]
    out = np.zeros((dim, len(free)), dtype=np.int64)
    for c, j in enumerate(free):
        out[j, c] = 1
    return out


def coords_in_basis(basis: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of each column of vecs in the given (independent) basis."""
    cols = basis.shape[1]
    nvec = vecs.shape[1]
    if nvec == 0:
        return np.zeros((cols, 0), dtype=np.int64)
    aug = np.concatenate([basis, vecs], axis=1)
    red, piv = rref(aug, p)
    out = np.zeros((cols, nvec), dtype=np.int64)
    for i, pc in enumerate(piv):
        if pc >= cols:
            raise ValueError("vector not in span of basis")
        out[pc, :] = red[i, cols:]
    return out
