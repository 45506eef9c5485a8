import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import numpy_fplinalg as nla
from conftest import HIGHEST_ROOT_SPECS, HIGHEST_ROOTS, is_epi, is_mono, quotients, subobjects
from tstructkit import core, refined
from tstructkit.quiver import (MORPHISM_SPACE_LIMIT, BackendError, Morphism, QuiverBackend,
                               QuiverSpec, _combine, _has_cycle, build_backend)

A3_LINEAR = ((0, 1), (1, 2))
A4_LINEAR = ((0, 1), (1, 2), (2, 3))
A5_LINEAR = ((0, 1), (1, 2), (2, 3), (3, 4))
D4_INTO_CENTRE = ((0, 1), (2, 1), (3, 1))  # vertex 1 is the centre
KRONECKER = ((0, 1), (0, 1))


def euler_form(spec, d, e):
    """The Euler form <d, e> = sum_v d_v e_v - sum_{s->t} d_s e_t of the
    quiver, which is hom(M, N) - ext(M, N) for representations M, N of
    dimension vectors d, e."""
    return sum(a * b for a, b in zip(d, e)) - sum(d[s] * e[t] for s, t in spec.arrows)


# (spec, box): the full-scan oracles search the dimension vectors d with
# 0 <= d_v <= box[v]
TABLE_SPECS = [
    (QuiverSpec(1, (), 2), (2,)),
    (QuiverSpec(2, ((0, 1),), 2), (2, 2)),
    (QuiverSpec(2, ((0, 1),), 3), (2, 2)),
    (QuiverSpec(3, A3_LINEAR, 2), (2, 2, 2)),
    (QuiverSpec(3, ((0, 1), (2, 1)), 2), (2, 2, 2)),
    (QuiverSpec(3, A3_LINEAR, 3), (2, 2, 2)),
    (QuiverSpec(3, ((1, 0), (1, 2)), 3), (2, 2, 2)),
    (QuiverSpec(4, A4_LINEAR, 2), (1, 1, 1, 1)),
    (QuiverSpec(4, A4_LINEAR, 3), (1, 1, 1, 1)),
    (QuiverSpec(5, A5_LINEAR, 2), (1, 1, 1, 1, 1)),
    (QuiverSpec(4, D4_INTO_CENTRE, 2), (1, 2, 1, 1)),
    (QuiverSpec(4, D4_INTO_CENTRE, 2), (1, 1, 1, 2)),  # misses (1, 2, 1, 1)
    (QuiverSpec(2, KRONECKER, 2), (1, 1)),
    (QuiverSpec(2, KRONECKER, 2), (2, 1)),
    (QuiverSpec(2, KRONECKER, 2), (2, 2)),
]


def spec_id(spec, box=None):
    """The arrows, the field and the box of the spec's full-scan oracle
    (2 at every vertex unless given)."""
    return f"{spec.arrows}-F{spec.field}-{box or (2,) * spec.vertices}"


def boxed_params(pairs):
    """One pytest param per (spec, box) pair, named by ``spec_id``."""
    return [pytest.param(spec, id=spec_id(spec, box)) for spec, box in pairs]


def box_holds_every_root(spec, box):
    """Whether the quiver is Dynkin and the box holds every positive root,
    so that no indecomposable lies outside it."""
    return spec.is_dynkin and all(d <= b for root in spec.positive_roots for d, b in zip(root, box))


UNTRUNCATED = [(spec, box) for spec, box in TABLE_SPECS if box_holds_every_root(spec, box)]
UNTRUNCATED_SPECS = [spec for spec, _ in UNTRUNCATED]
NOT_DYNKIN = "not Dynkin.*infinitely many indecomposables"


def test_spec_validation():
    with pytest.raises(BackendError):
        QuiverSpec(2, ((0, 1), (1, 0)), 2)  # cycle
    with pytest.raises(BackendError):
        QuiverSpec(1, (), 4)  # non-prime field
    with pytest.raises(BackendError):
        QuiverSpec(1, ((0, 0),), 2)  # loop


@pytest.mark.parametrize("vertices, arrows, field, key", [
    (0, (), 2, "vertices"),
    (2.0, ((0, 1),), 2, "vertices"),
    (True, (), 2, "vertices"),
    (2, 5, 2, "arrows"),
    (2, ((0, 1, 1),), 2, "arrows"),
    (2, ((0, 1.0),), 2, "arrows"),
    (2, ((0, 1),), 2.0, "field"),
    (2, ((0, 1),), True, "field"),
])
def test_spec_rejects_malformed_fields(vertices, arrows, field, key):
    with pytest.raises(BackendError, match=key):
        QuiverSpec(vertices, arrows, field)


def test_spec_from_json(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1]], "field": 3}))
    spec = QuiverSpec.from_json(str(path))
    assert spec.vertices == 2 and spec.field == 3
    # a dim_bound key, well formed or not, is ignored
    for bound in ([1, 1], 3, "x"):
        path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1]], "field": 3, "dim_bound": bound}))
        assert QuiverSpec.from_json(str(path)) == spec


def test_a2_indecomposable_table(a2):
    assert len(a2.indecs) == 3
    dims = sorted(tuple(i.dims) for i in a2.indecs)
    assert dims == [(0, 1), (1, 0), (1, 1)]


def test_a3_and_kronecker_tables(a3):
    assert len(a3.indecs) == 6
    # bounded Kronecker table, built by the oracle alone (the backend refuses
    # it): two simples plus the three (1,1) classes
    kronecker = FullScanBackend(QuiverSpec(2, KRONECKER, 2), (1, 1))
    assert len(kronecker.indecs) == 5
    assert sorted(tuple(i.dims) for i in kronecker.indecs) == \
        [(0, 1), (1, 0), (1, 1), (1, 1), (1, 1)]


def test_a2_hom_and_ext_values(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    assert a2.hom_dim((P1,), (S1,)) == 1
    assert a2.hom_dim((S1,), (P1,)) == 0  # any map lands in the socle
    assert a2.hom_dim((P1,), (S2,)) == 0  # the socle is not a quotient
    assert a2.hom_dim((P1,), (P1,)) == 1
    assert a2.ext_dim((S1,), (S2,)) == 1
    assert a2.ext_dim((S2,), (S1,)) == 0
    assert a2.ext_dim((P1,), (S2,)) == 0  # projective source


def test_euler_form_matches_hom_minus_ext(a2, a3):
    for backend in (a2, a3):
        for i in backend.all_ids():
            for j in backend.all_ids():
                di = backend.indecs[i].dims
                dj = backend.indecs[j].dims
                assert euler_form(backend.spec, di, dj) == \
                    backend.hom_dim((i,), (j,)) - backend.ext_dim((i,), (j,))


def test_morphism_parts_of_projective_cover(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    parts = a2.part_sets((P1,), (S1,))
    assert parts == [((S2,), (S1,), ())]


def test_middle_terms(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    mids = set(a2.middle_terms((S1,), (S2,)))
    assert mids == {tuple(sorted((S1, S2))), (P1,)}
    # no extension the other way round: P1 is not a middle term of S2 on S1
    assert set(a2.middle_terms((S2,), (S1,))) == {tuple(sorted((S1, S2)))}


def test_subobject_lattice_of_p1(a2, a2_ids):
    S2, P1 = a2_ids["S2"], a2_ids["P1"]
    assert set(subobjects(a2, (P1,))) == {(), (S2,), (P1,)}
    assert set(quotients(a2, (P1,))) == {(), (a2_ids["S1"],), (P1,)}


def test_decompose_rep_roundtrip(a2, a3):
    for backend in (a2, a3):
        ids = backend.all_ids()
        for i in ids:
            for j in ids:
                obj = tuple(sorted((i, j)))
                assert backend.decompose_rep(backend.obj_rep(obj)) == obj


def ringel_oracle(spec, a, b):
    """Reference oracle for ``QuiverBackend._ringel_map``, built with
    np.kron: row-major vec(L X R) is kron(L, R^T) vec(X), so the arrow
    s -> t contributes kron(b_a, 1) at phi_s and -kron(1, a_a^T) at phi_t."""
    ncols = [b.dims[v] * a.dims[v] for v in range(spec.vertices)]
    blocks = [np.zeros((0, sum(ncols)), dtype=np.int64)]
    for i, (s, t) in enumerate(spec.arrows):
        row = [np.zeros((b.dims[t] * a.dims[s], n), dtype=np.int64) for n in ncols]
        row[s] = np.kron(nla.array(b.mats[i], b.dims[t], b.dims[s]), np.eye(a.dims[s], dtype=np.int64))
        row[t] = -np.kron(np.eye(b.dims[t], dtype=np.int64), nla.array(a.mats[i], a.dims[t], a.dims[s]).T)
        blocks.append(np.hstack(row))
    return np.vstack(blocks) % spec.field


def hom_basis_oracle(spec, a, b):
    """Reference oracle for ``QuiverBackend._rep_hom_basis``: a basis of
    Hom(a, b) as lists of per-vertex int64 arrays, the numpy nullspace of
    ``ringel_oracle`` cut into its vertex blocks."""
    null = nla.nullspace(ringel_oracle(spec, a, b), spec.field)
    basis = []
    for vec in null.T:
        mats, off = [], 0
        for ad, bd in zip(a.dims, b.dims):
            mats.append(vec[off:off + ad * bd].reshape(bd, ad))
            off += ad * bd
        basis.append(mats)
    return basis


def arrays_of(mats, nrows, ncols):
    """Per-vertex int64 arrays of a tuple of matrices (``Morphism.mats`` or a
    ``hom_basis`` element) from the target and source dimension vectors."""
    return [nla.array(m, r, c) for m, r, c in zip(mats, nrows, ncols)]


def is_indecomposable(backend, rep):
    """Reference oracle: End(rep) holds no idempotent besides 0 and 1,
    searched over every F_p combination of its Hom basis."""
    if rep.total_dim == 0:
        return False
    basis = hom_basis_oracle(backend.spec, rep, rep)
    assert len(basis) <= MORPHISM_SPACE_LIMIT, "End algebra too large for idempotent search"
    idy = [np.eye(d, dtype=np.int64) for d in rep.dims]
    for coeffs in itertools.product(range(backend.p), repeat=len(basis)):
        if not any(coeffs):
            continue
        e = nla.combine(basis, coeffs, backend.p)
        if all(np.array_equal(m, i) for m, i in zip(e, idy)):
            continue
        if all(np.array_equal(nla.mm(m, m, backend.p), m) for m in e):
            return False
    return True


def test_is_indecomposable_oracle_agrees_with_table():
    for spec in UNTRUNCATED_SPECS:
        backend = build_backend(spec)
        for ind in backend.indecs:
            assert is_indecomposable(backend, ind), (spec, ind.dims)
        split = backend.obj_rep((0, len(backend.indecs) - 1))
        assert not is_indecomposable(backend, split), spec


def test_mono_epi_detection(a2, a2_ids):
    S1, P1 = a2_ids["S1"], a2_ids["P1"]
    fs = list(a2.morphisms((P1,), (S1,)))
    assert len(fs) == 1
    assert is_epi(a2, fs[0]) and not is_mono(a2, fs[0])
    gs = list(a2.morphisms((a2_ids["S2"],), (P1,)))
    assert len(gs) == 1
    assert is_mono(a2, gs[0]) and not is_epi(a2, gs[0])


def test_hom_basis_dimension_matches_hom_dim(a3):
    ids = a3.all_ids()
    for i in ids:
        for j in ids:
            assert len(a3.hom_basis((i,), (j,))) == a3.hom_dim((i,), (j,))


@pytest.mark.parametrize("spec", boxed_params(UNTRUNCATED))
def test_ids_from_homs_refuses_forged_hom_vectors(spec):
    """The self-check of ``_ids_from_homs``: the Hom vector of X_x less that
    of another X_y has multiplicity -1 at y (its dimension vector, dim X_x -
    dim X_y, adds up), and the Hom vector of X_x with another dimension
    vector does not add up."""
    backend = build_backend(spec)
    hom = backend.hom_matrix
    for x in backend.all_ids():
        dims = backend.indecs[x].dims
        column = [row[x] for row in hom]
        assert backend._ids_from_homs(column, dims) == (x,)
        with pytest.raises(BackendError, match="does not decompose"):
            backend._ids_from_homs(column, tuple(d + 1 for d in dims))
        for y in backend.all_ids():
            if y != x:
                diff = tuple(a - b for a, b in zip(dims, backend.indecs[y].dims))
                with pytest.raises(BackendError, match="does not decompose"):
                    backend._ids_from_homs([row[x] - row[y] for row in hom], diff)


def test_subsets_bitmask_order(a2):
    subsets = list(a2.subsets())
    assert len(subsets) == 8
    assert subsets[0] == frozenset()
    assert subsets[1] == frozenset({0})
    assert subsets[3] == frozenset({0, 1})


def rational_inverse(mat):
    """Exact inverse of an integer matrix (a sequence of rows) as Fractions,
    or None if singular."""
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


class FullScanBackend(QuiverBackend):
    """Reference oracle: the table built from every dimension vector of a
    box by the split-summand and isomorphism scan, with no pruning to
    connected roots and no refusal of a quiver that is not Dynkin (the box
    cuts its table); its Hom matrix by numpy linear algebra on each pair of
    entries (``hom_basis_oracle``) and its inverse in Fractions, whatever
    the table.  Only the table, its
    dimension vectors (``roots``, one per entry, so a vector may repeat)
    and these matrices are built."""

    def __init__(self, spec, box):
        self._memo = {}
        self.spec, self.p = spec, spec.field
        self.indecs = []
        vectors = itertools.product(*(range(b + 1) for b in box))
        for dv in sorted((d for d in vectors if any(d)), key=lambda d: (sum(d), d)):
            for rep in self._all_reps(dv):
                if self._is_new_indec(rep):
                    self.indecs.append(rep)
        self.roots = tuple(rep.dims for rep in self.indecs)
        self.hom_matrix = tuple(tuple(self._rep_hom_dim(a, b) for b in self.indecs) for a in self.indecs)
        self.ext_matrix = tuple(tuple(h - euler_form(spec, a.dims, b.dims) for b, h in zip(self.indecs, row))
                                for a, row in zip(self.indecs, self.hom_matrix))
        self.hom_inverse = rational_inverse(self.hom_matrix)

    def _rep_hom_basis(self, a, b):
        return hom_basis_oracle(self.spec, a, b)

    def _rep_hom_dim(self, a, b):
        return len(self._rep_hom_basis(a, b))

    def _is_new_indec(self, rep):
        # graded order: every proper summand is already in the table, so rep
        # is decomposable iff some accepted indec splits off
        for cand in self.indecs:
            if all(cd <= rd for cd, rd in zip(cand.dims, rep.dims)) and cand.total_dim < rep.total_dim:
                if self._is_split_summand(cand, rep):
                    return False
        return not any(cand.dims == rep.dims and self._reps_isomorphic(cand, rep) for cand in self.indecs)

    def _is_split_summand(self, small, big):
        fs = self._rep_hom_basis(small, big)
        gs = self._rep_hom_basis(big, small) if fs else []
        for f in fs:
            for g in gs:
                comp = [nla.mm(g[v], f[v], self.p) for v in range(self.spec.vertices)]
                if all(m.shape[0] == m.shape[1] and nla.rank(m, self.p) == m.shape[0] for m in comp):
                    return True
        return False

    def _reps_isomorphic(self, a, b):
        basis = self._rep_hom_basis(a, b)
        assert len(basis) <= MORPHISM_SPACE_LIMIT, "Hom space too large for isomorphism search"
        for coeffs in itertools.product(range(self.p), repeat=len(basis)):
            if not any(coeffs):
                continue
            mats = nla.combine(basis, coeffs, self.p)
            if all(m.shape[0] == m.shape[1] and nla.rank(m, self.p) == m.shape[0] for m in mats):
                return True
        return False


@pytest.mark.parametrize("spec, box", [pytest.param(spec, box, id=spec_id(spec, box))
                                       for spec, box in UNTRUNCATED])
def test_root_pruned_table_equals_full_box_scan(spec, box):
    """Same table and matrices as the scan of a box that holds every
    positive root; and ``_ids_from_homs`` (back substitution) inverts the
    scan's Hom matrix: on every column of H and every sum of two columns it
    gives the multiset of ids that the scan's Fraction inverse gives, times
    that vector."""
    pruned, full = build_backend(spec), FullScanBackend(spec, box)
    assert pruned.indecs == full.indecs  # same order, same matrices
    assert pruned.hom_matrix == full.hom_matrix
    assert pruned.ext_matrix == full.ext_matrix
    assert all(e >= 0 for row in full.ext_matrix for e in row)
    hom, ids = full.hom_matrix, pruned.all_ids()
    for x, y in itertools.combinations_with_replacement((None,) + ids, 2):
        if x is None and y is None:
            continue
        vec = [sum(row[k] for k in (x, y) if k is not None) for row in hom]
        mult = [sum(f * v for f, v in zip(inv_row, vec)) for inv_row in full.hom_inverse]
        assert all(m.denominator == 1 and m >= 0 for m in mult), (x, y)
        want = tuple(i for i, m in enumerate(mult) for _ in range(int(m)))
        assert pruned._ids_from_homs(vec, pruned.obj_dims(want)) == want, (x, y)


NOT_DYNKIN_SPECS = [  # the Kronecker quiver with several values in the unread dim_bound slot
    *(pytest.param(QuiverSpec(2, KRONECKER, 2, bound), id=spec_id(QuiverSpec(2, KRONECKER, 2), bound))
      for bound in ((1, 1), (2, 1), (2, 2), (3, 3))),
    pytest.param(QuiverSpec(2, KRONECKER * 2, 2), id="4-kronecker"),
    pytest.param(QuiverSpec(3, ((0, 1), (1, 2), (0, 2)), 2), id="affine-A2"),
    pytest.param(QuiverSpec(5, ((0, 1), (2, 1), (3, 1), (4, 1)), 2), id="affine-D4"),
    pytest.param(QuiverSpec(4, ((0, 1), (2, 1), (3, 1), (0, 2)), 2), id="D4-plus-edge"),
]


@pytest.mark.parametrize("spec", NOT_DYNKIN_SPECS)
def test_truncated_spec_refused_before_any_rep_work(spec, monkeypatch):
    """A quiver that is not Dynkin has infinitely many indecomposables, so
    no table of it can be complete: the constructor refuses it before any
    representation work, whatever ``dim_bound`` the spec carries.  The
    unbounded root walk would never stop on it, so the refusal also comes
    before the walk."""
    def rep_work(self, *args):
        raise AssertionError("representation work ran before the refusal")

    monkeypatch.setattr(QuiverBackend, "_all_reps", rep_work)
    monkeypatch.setattr(QuiverBackend, "_rep_hom_basis", rep_work)
    assert not spec.is_dynkin
    with pytest.raises(BackendError, match=NOT_DYNKIN):
        QuiverBackend(spec)


@pytest.mark.parametrize("vertices, arrows, field, count", [
    (4, ((0, 1), (1, 2), (2, 3)), 2, 10),
    (4, ((0, 1), (1, 2), (2, 3)), 3, 10),
    (4, D4_INTO_CENTRE, 2, 12),
    (4, D4_INTO_CENTRE, 3, 12),
    (3, A3_LINEAR, 5, 6),
])
def test_gabriel_counts_of_positive_roots(vertices, arrows, field, count):
    backend = build_backend(QuiverSpec(vertices, arrows, field))
    dims = [ind.dims for ind in backend.indecs]
    assert len(dims) == count and len(set(dims)) == count
    assert all(euler_form(backend.spec, d, d) == 1 for d in dims)
    assert backend.spec.is_dynkin


@pytest.mark.parametrize("spec, truncated", [  # each spec with a box
    ((QuiverSpec(3, A3_LINEAR, 2), (1, 1, 1)), False),
    ((QuiverSpec(4, D4_INTO_CENTRE, 2), (2, 2, 2, 2)), False),
    ((QuiverSpec(4, D4_INTO_CENTRE, 2), (1, 1, 1, 1)), True),  # misses (1, 2, 1, 1)
    ((QuiverSpec(2, KRONECKER, 2), (1, 1)), True),  # not Dynkin: every box misses one
    ((QuiverSpec(2, KRONECKER, 2), (2, 2)), True),
])
def test_truncated_iff_box_misses_an_indecomposable(spec, truncated):
    """The grown box scan finds a vector outside the box that may carry an
    indecomposable exactly when the quiver is not Dynkin or the box misses
    a positive root.  A Dynkin quiver builds whatever the box; any other is
    refused."""
    spec, box = spec
    assert box_scan_truncated(spec, box) == truncated == (not box_holds_every_root(spec, box))
    if spec.is_dynkin:
        assert len(build_backend(spec).roots) == {3: 6, 4: 12}[spec.vertices]
    else:
        with pytest.raises(BackendError, match=NOT_DYNKIN):
            build_backend(spec)


def is_connected(support, arrows):
    """Whether the vertex set ``support`` is nonempty and connected by the
    arrows with both ends in it, directions ignored."""
    if not support:
        return False
    seen, todo = set(), [min(support)]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(t if s == v else s for s, t in arrows
                        if v in (s, t) and s in support and t in support)
    return seen == support


def may_be_indecomposable(spec, dv):
    """Connected support and Tits form at most 1, read off the whole vector
    (see ``QuiverBackend._build_table``)."""
    support = {v for v, d in enumerate(dv) if d}
    return is_connected(support, spec.arrows) and euler_form(spec, dv, dv) <= 1


def whole_vector_walk(spec, box):
    """Reference oracle for ``QuiverSpec.positive_roots``: the same walk,
    with connectivity and q decided on each whole vector by
    ``may_be_indecomposable`` instead of stepped from the last one, and
    None at the first step that leaves the box."""
    n = spec.vertices
    seen = {tuple(int(w == v) for w in range(n)) for v in range(n)}
    todo = list(seen)
    while todo:
        d = todo.pop()
        for v in range(n):
            e = d[:v] + (d[v] + 1,) + d[v + 1:]
            if e in seen or not may_be_indecomposable(spec, e):
                continue
            if e[v] > box[v]:
                return None
            seen.add(e)
            todo.append(e)
    return tuple(sorted(seen, key=lambda dv: (sum(dv), dv)))


def box_scan_truncated(spec, box):
    """Reference oracle for whether some indecomposable lies outside the
    box: whether some vector of the box grown by one at every vertex, but
    outside the box, has connected support and q <= 1."""
    return any(may_be_indecomposable(spec, dv)
               for dv in itertools.product(*(range(b + 2) for b in box))
               if any(d > b for d, b in zip(dv, box)))


def acyclic_orientations(vertices, edges):
    """Every orientation of the undirected ``edges`` without an oriented cycle."""
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = tuple((t, s) if flip else (s, t) for (s, t), flip in zip(edges, flips))
        if not _has_cycle(vertices, arrows):
            yield arrows


ORACLE_GRAPHS = {  # name: (vertices, undirected edges, Dynkin)
    "A1": (1, (), True),
    "A2": (2, ((0, 1),), True),
    "A3": (3, ((0, 1), (1, 2)), True),
    "A4": (4, ((0, 1), (1, 2), (2, 3)), True),
    "D4": (4, ((0, 1), (2, 1), (3, 1)), True),  # vertex 1 is the centre
    "kronecker": (2, KRONECKER, False),
    "affine-A2": (3, ((0, 1), (1, 2), (2, 0)), False),
    "affine-D4": (5, ((0, 1), (2, 1), (3, 1), (4, 1)), False),  # 4-leaf star
}


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_root_walk_truncation_equals_the_grown_box_scan(name):
    """On every orientation and box: the grown box scan finds a vector
    outside the box exactly when the quiver is not Dynkin or a positive
    root leaves the box; the walk refuses the quivers that are not Dynkin,
    and on the others its roots in a box that holds them all are the
    vectors of the box with connected support and q <= 1."""
    vertices, edges, dynkin = ORACLE_GRAPHS[name]
    boxes = {(1,) * vertices, (2,) * vertices}
    boxes |= {box for spec, box in TABLE_SPECS if spec.vertices == vertices}
    for arrows in acyclic_orientations(vertices, edges):
        spec = QuiverSpec(vertices, arrows, 2)
        assert spec.is_dynkin == dynkin, arrows
        if not dynkin:
            with pytest.raises(BackendError, match=NOT_DYNKIN):
                spec.positive_roots
        for box in sorted(boxes):
            holds = box_holds_every_root(spec, box)
            assert box_scan_truncated(spec, box) == (not holds), (arrows, box)
            if holds:
                vectors = itertools.product(*(range(b + 1) for b in box))
                assert spec.positive_roots == tuple(sorted(
                    (dv for dv in vectors if may_be_indecomposable(spec, dv)),
                    key=lambda dv: (sum(dv), dv)))


def test_root_walk_finds_the_known_root_counts():
    """Without any box, the walk finds every positive root of A6-E8 (E6, E7
    and E8: 36, 63 and 120), and their highest roots are tight: the
    whole-vector walk leaves any box lowered by one at a vertex."""
    # (vertices, edges, highest root, |positive roots|); E_n is a chain with
    # a branch vertex (listed last) on the third chain vertex
    types = [
        (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)), (1, 1, 1, 1, 1, 1), 21),  # A6
        (5, ((0, 1), (1, 2), (2, 3), (2, 4)), (1, 2, 2, 1, 1), 20),  # D5
        (6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)), (1, 2, 3, 2, 1, 2), 36),  # E6
        (7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)), (2, 3, 4, 3, 2, 1, 2), 63),  # E7
        (8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)),
         (2, 4, 6, 5, 4, 3, 2, 3), 120),  # E8
    ]
    start = time.perf_counter()
    for vertices, arrows, highest, count in types:
        spec = QuiverSpec(vertices, arrows, 2)
        roots = spec.positive_roots
        assert spec.is_dynkin
        assert len(roots) == len(set(roots)) == count
        assert all(euler_form(spec, d, d) == 1 for d in roots)
        assert tuple(map(max, zip(*roots))) == highest
        assert whole_vector_walk(spec, highest) == roots
        for v, h in enumerate(highest):
            if h > 1:
                lowered = highest[:v] + (h - 1,) + highest[v + 1:]
                assert whole_vector_walk(spec, lowered) is None, lowered
    assert time.perf_counter() - start < 1.0
    for name, highest in HIGHEST_ROOTS.items():
        assert tuple(map(max, zip(*HIGHEST_ROOT_SPECS[name].positive_roots))) == highest, name


def test_only_non_thin_roots_search_the_representations(monkeypatch):
    all_reps, searched = QuiverBackend._all_reps, []

    def guarded(self, dv):
        if max(dv) <= 1:
            raise AssertionError(f"the thin vector {dv} was searched")
        searched.append((self.spec, dv))
        return all_reps(self, dv)

    monkeypatch.setattr(QuiverBackend, "_all_reps", guarded)
    for spec in UNTRUNCATED_SPECS:
        build_backend(spec).indecs  # the table is built on first use
    assert searched == [(QuiverSpec(4, D4_INTO_CENTRE, 2), (1, 2, 1, 1))]


def random_acyclic_quivers(seed, count, max_vertices):
    """Seeded random acyclic quivers on 1..max_vertices vertices with
    multi-arrows allowed (each arrow runs from a lower to a higher vertex
    of a random order), each with a box whose entries lie in 1..3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_vertices)
        order = rng.sample(range(n), n)
        arrows = []
        for _ in range(rng.randint(0, n + 1)):
            if n > 1:
                i, j = sorted(rng.sample(range(n), 2))
                arrows.append((order[i], order[j]))
        yield QuiverSpec(n, tuple(arrows), 2), tuple(rng.randint(1, 3) for _ in range(n))


def test_root_walk_equals_the_whole_vector_walk():
    """On seeded random acyclic quivers, each with a box: the whole-vector
    walk stays in the box exactly when the quiver is Dynkin and the box
    holds every positive root, and then it gives the roots of
    ``positive_roots``; a quiver that is not Dynkin is refused.  The
    sample holds multi-arrows, every box entry 1..3 and boxes that miss a
    root."""
    pairs = list(random_acyclic_quivers(19, 300, 6))
    for spec, box in pairs:
        boxed = whole_vector_walk(spec, box)
        assert (boxed is not None) == box_holds_every_root(spec, box), (spec, box)
        if boxed is not None:
            assert spec.positive_roots == boxed, (spec, box)
        elif not spec.is_dynkin:
            with pytest.raises(BackendError, match=NOT_DYNKIN):
                spec.positive_roots
    assert any(len(set(spec.arrows)) < len(spec.arrows) for spec, _ in pairs)
    assert {b for _, box in pairs for b in box} == {1, 2, 3}
    assert sum(whole_vector_walk(spec, box) is None for spec, box in pairs) >= 50
    assert sum(box_holds_every_root(spec, box) and spec.vertices >= 4 for spec, box in pairs) >= 20


def test_dynkin_test_equals_the_boxed_walk():
    """On seeded random acyclic quivers with 1-8 vertices and multi-arrows,
    ``is_dynkin`` holds exactly when the whole-vector walk stays in the box
    with 6 at every vertex (the largest entry of a positive root of a
    Dynkin quiver on at most 8 vertices, E8's; on any other quiver the
    walk is unbounded), and the unbounded walk of ``positive_roots`` gives
    the same roots."""
    start = time.perf_counter()
    specs = [spec for spec, _ in random_acyclic_quivers(22, 1500, 8)]
    dynkin = []
    for spec in specs:
        boxed = whole_vector_walk(spec, (6,) * spec.vertices)
        assert spec.is_dynkin == (boxed is not None), spec
        if boxed is not None:
            dynkin.append(spec)
            assert spec.positive_roots == boxed, spec
    assert 500 <= len(dynkin) <= 1000 and sum(spec.vertices >= 7 for spec in dynkin) >= 100
    assert sum(len(set(spec.arrows)) < len(spec.arrows) for spec in specs) >= 300
    assert time.perf_counter() - start < 20.0


CONSTRUCTION = UNTRUNCATED + [(HIGHEST_ROOT_SPECS[name], root) for name, root in HIGHEST_ROOTS.items()]
CONSTRUCTION_SPECS = [spec for spec, _ in CONSTRUCTION]


def test_construction_and_the_censuses_build_no_table(monkeypatch):
    """Building a backend reads the spec alone, and so do the A3 census and
    ``enumerate_tstructures``: ``_build_table`` never runs.  D6 builds in
    under 0.3 s and E6-E8 in under 0.15 s each (about 1 ms and 1-25 ms on
    an idle 2-core host)."""
    def no_table(self):
        raise AssertionError("the representation table was built")

    monkeypatch.setattr(QuiverBackend, "_build_table", no_table)
    for spec in CONSTRUCTION_SPECS:
        start = time.perf_counter()
        backend = build_backend(spec)
        took = time.perf_counter() - start
        assert "indecs" not in vars(backend)
        if spec in (HIGHEST_ROOT_SPECS["E6"], HIGHEST_ROOT_SPECS["E7"], HIGHEST_ROOT_SPECS["E8"]):
            assert took < 0.15, (spec, took)
        elif spec == HIGHEST_ROOT_SPECS["D6"]:
            assert took < 0.3, took
    a3 = build_backend(QuiverSpec(3, A3_LINEAR, 3))
    flags = [core.classify_subcat(a3, S) for S in a3.subsets()]
    assert sum(f.is_narrow for f in flags) == 22 and sum(f.is_wide for f in flags) == 14
    assert len(core.wide_census(a3)) == 14 and len(core.tilting_census(a3, core.full_mask(a3))) == 5
    assert len(refined.enumerate_tstructures(a3, 0, 1)) == 79
    assert a3._memo == {} and "indecs" not in vars(a3)


@pytest.mark.parametrize("spec", boxed_params(CONSTRUCTION))
def test_euler_matrix_equals_the_euler_form(spec):
    backend = build_backend(spec)
    roots = backend.roots
    assert roots == spec.positive_roots
    for i, d in enumerate(roots):
        for j, e in enumerate(roots):
            assert backend.hom_matrix[i][j] - backend.ext_matrix[i][j] == euler_form(spec, d, e), (d, e)


@pytest.mark.parametrize("spec", boxed_params(UNTRUNCATED))
def test_roots_are_the_dimension_vectors_of_the_table(spec):
    backend = build_backend(spec)
    assert len(backend.indecs) == len(backend.roots)
    assert all(backend.roots[i] == ind.dims for i, ind in enumerate(backend.indecs))


def searched_middle_terms(backend, quot, sub):
    """Reference oracle: every multiset of indecomposables with the total
    dimension vector, screened by Hom counts (left exactness of Hom), kept
    when some mono sub -> M has cokernel quot."""
    if not sub:
        return [quot]
    if not quot:
        return [sub]
    total = tuple(a + b for a, b in zip(backend.obj_dims(quot), backend.obj_dims(sub)))
    found = []

    def objs_with_dims(start, remaining, acc):
        if not any(remaining):
            yield tuple(acc)
            return
        for i in range(start, len(backend.indecs)):
            d = backend.indecs[i].dims
            if all(dv <= rv for dv, rv in zip(d, remaining)):
                yield from objs_with_dims(i, tuple(rv - dv for rv, dv in zip(remaining, d)), acc + [i])

    def screen(mid):
        for i in backend.all_ids():
            io = (i,)
            hm = backend.hom_dim(mid, io)
            if not backend.hom_dim(quot, io) <= hm <= backend.hom_dim(quot, io) + backend.hom_dim(sub, io):
                return False
            hm = backend.hom_dim(io, mid)
            if not backend.hom_dim(io, sub) <= hm <= backend.hom_dim(io, sub) + backend.hom_dim(io, quot):
                return False
        return True

    def is_extension(mid):
        # f and c * f have one image, so one morphism per line is tried:
        # the Hom(sub, mid) coordinates with first nonzero entry 1
        p, tgt, sub_dims = backend.p, backend.obj_rep(mid), backend.obj_dims(sub)
        basis = [arrays_of(g, tgt.dims, sub_dims) for g in backend.hom_basis(sub, mid)]
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            if next((c for c in coeffs if c), 0) != 1:
                continue
            f = nla.combine(basis, coeffs, p)
            if all(nla.rank(m, p) == d for m, d in zip(f, sub_dims)):
                ibases = [list(nla.as_rows(nla.column_space(m, p).T)) for m in f]
                if backend.decompose_rep(backend._quot_rep(tgt, ibases)) == quot:
                    return True
        return False

    for cand in sorted(objs_with_dims(0, total, [])):
        if screen(cand) and is_extension(cand):
            found.append(cand)
    return found


@pytest.mark.parametrize("spec, bound", [
    (QuiverSpec(2, ((0, 1),), 2), 2),
    (QuiverSpec(2, ((0, 1),), 3), 2),
    (QuiverSpec(2, ((0, 1),), 5), 2),
    (QuiverSpec(3, A3_LINEAR, 2), 2),
    (QuiverSpec(3, ((0, 1), (2, 1)), 2), 2),
    (QuiverSpec(3, A3_LINEAR, 3), 1),
], ids=lambda x: f"{x.arrows}-F{x.field}" if isinstance(x, QuiverSpec) else f"mult{x}")
def test_middle_terms_equal_the_searched_ones(spec, bound):
    backend = build_backend(spec)
    cands = [c for r in range(1, bound + 1)
             for c in itertools.combinations_with_replacement(backend.all_ids(), r)]
    for quot in cands:
        for sub in cands:
            mids = backend.middle_terms(quot, sub)
            assert mids == searched_middle_terms(backend, quot, sub), (quot, sub)
            split = tuple(sorted(quot + sub))
            assert split in mids
            assert (mids == [split]) == (backend.ext_dim(quot, sub) == 0), (quot, sub)


@pytest.mark.parametrize("spec", [
    QuiverSpec(2, ((0, 1),), 2),
    QuiverSpec(3, A3_LINEAR, 3),
    QuiverSpec(4, ((0, 1), (1, 2), (2, 3)), 2),
    QuiverSpec(4, D4_INTO_CENTRE, 2),
    QuiverSpec(2, KRONECKER, 2),
], ids=spec_id)
def test_ringel_cokernel_has_the_euler_form_dimension(spec):
    """dim coker of Ringel's map = hom - <dim A, dim B> = ext_dim, on every
    pair of indecomposables (the Kronecker table cut by the box (2, 2)
    included, built by the oracle)."""
    dynkin = spec.is_dynkin
    backend = build_backend(spec) if dynkin else FullScanBackend(spec, (2, 2))
    for i in backend.all_ids():
        for j in backend.all_ids():
            a, b = backend.indecs[i], backend.indecs[j]
            ringel = backend._ringel_map(a, b)
            nrows = sum(b.dims[t] * a.dims[s] for s, t in spec.arrows)
            ncols = sum(ad * bd for ad, bd in zip(a.dims, b.dims))
            ext = nrows - nla.rank(nla.array(ringel, nrows, ncols), backend.p)  # dim coker
            assert ext == backend.hom_dim((i,), (j,)) - euler_form(backend.spec, a.dims, b.dims)
            assert ext == backend.ext_dim((i,), (j,))
            if not dynkin:
                continue  # a middle term may lie outside the table
            mids = backend.middle_terms((i,), (j,))
            assert tuple(sorted((i, j))) in mids
            assert (len(mids) == 1) == (ext == 0)


@pytest.mark.parametrize("spec", boxed_params(UNTRUNCATED))
def test_ringel_matrix_has_nullity_hom_and_corank_ext(spec):
    """On every pair of table entries, the one Ringel matrix (which
    ``_rep_hom_basis``, ``_rep_hom_dim`` and ``middle_terms`` share) has
    nullity hom_matrix[i][j] and corank ext_matrix[i][j], the Euler-form
    closed forms, with ranks by the numpy oracle; it is the np.kron-built
    matrix entry for entry, and ``_rep_hom_dim`` reads the same nullity."""
    backend, p = build_backend(spec), spec.field
    for i, a in enumerate(backend.indecs):
        for j, b in enumerate(backend.indecs):
            nrows = sum(b.dims[t] * a.dims[s] for s, t in spec.arrows)
            ncols = sum(ad * bd for ad, bd in zip(a.dims, b.dims))
            ringel = nla.array(backend._ringel_map(a, b), nrows, ncols)
            rank = nla.rank(ringel, p)
            assert ncols - rank == backend.hom_matrix[i][j], (i, j)
            assert nrows - rank == backend.ext_matrix[i][j], (i, j)
            assert np.array_equal(ringel, ringel_oracle(spec, a, b)), (i, j)
            assert backend._rep_hom_dim(a, b) == backend.hom_matrix[i][j], (i, j)


def test_middle_terms_store_nothing_but_their_results_and_operands():
    backend = build_backend(QuiverSpec(3, A3_LINEAR, 2))
    cands = [c for r in (1, 2) for c in itertools.combinations_with_replacement(backend.all_ids(), r)]
    for quot in cands:
        for sub in cands:
            backend.middle_terms(quot, sub)
    names = [key[0] for key in backend._memo]
    assert set(names) == {"middle_terms", "obj_rep", "_indec_homs"}
    assert names.count("_indec_homs") <= len(backend.indecs) ** 2


@pytest.mark.parametrize("spec", [
    QuiverSpec(2, ((0, 1),), 3),
    QuiverSpec(3, ((0, 1), (2, 1)), 3),
    QuiverSpec(4, D4_INTO_CENTRE, 2),
], ids=spec_id)
def test_block_hom_basis_spans_the_direct_one(spec):
    """``hom_basis`` (assembled from the blocks between indecomposables) is
    a basis of the Hom space that ``_rep_hom_basis`` solves for directly on
    the object reps: hom_dim elements, each commuting with every arrow,
    spanning the direct basis."""
    backend = build_backend(spec)
    p, cands = backend.p, core.candidates(core.full_mask(backend))
    for x in cands:
        a = backend.obj_rep(x)
        for y in cands:
            b = backend.obj_rep(y)
            basis = [arrays_of(f, b.dims, a.dims) for f in backend.hom_basis(x, y)]
            assert len(basis) == backend.hom_dim(x, y), (x, y)
            for f in basis:
                for i, (s, t) in enumerate(spec.arrows):
                    assert np.array_equal(nla.mm(nla.array(b.mats[i], b.dims[t], b.dims[s]), f[s], p),
                                          nla.mm(f[t], nla.array(a.mats[i], a.dims[t], a.dims[s]), p)), (x, y)
            if basis:
                flat = np.stack([np.concatenate([m.reshape(-1) for m in f]) for f in basis])
                direct = np.stack([np.concatenate([m.reshape(-1) for m in f])
                                   for f in hom_basis_oracle(spec, a, b)])
                assert nla.rank(flat, p) == nla.rank(np.vstack([flat, direct]), p) == len(basis), (x, y)


def all_morphism_part_sets(backend, x, y):
    """Reference oracle: the (kernel, image, cokernel) triples over every
    nonzero F_p combination of the Hom basis solved directly on the object
    reps, with no block assembly and no line reduction."""
    p = backend.p
    basis = backend._rep_hom_basis(backend.obj_rep(x), backend.obj_rep(y))
    return sorted({backend.morphism_parts(Morphism(x, y, _combine(basis, coeffs, p)))
                   for coeffs in itertools.product(range(p), repeat=len(basis)) if any(coeffs)})


@pytest.mark.parametrize("spec", [
    QuiverSpec(2, ((0, 1),), 2),
    QuiverSpec(2, ((0, 1),), 3),
    QuiverSpec(3, A3_LINEAR, 2),
    QuiverSpec(3, A3_LINEAR, 3),
], ids=spec_id)
def test_part_sets_over_lines_equal_all_morphisms(spec):
    backend = build_backend(spec)
    cands = core.candidates(core.full_mask(backend))
    for x in cands:
        for y in cands:
            assert backend.part_sets(x, y) == all_morphism_part_sets(backend, x, y), (x, y)


def test_closure_scans_memoise_hom_bases_between_indecomposables_only():
    backend = build_backend(QuiverSpec(3, A3_LINEAR, 3))
    for S in range(1 << len(backend.roots)):
        core.is_closed(backend, S, ("extensions", "cokernels", "kernels"))
    names = [key[0] for key in backend._memo]
    assert "hom_basis" not in names
    assert 0 < names.count("_indec_homs") <= len(backend.indecs) ** 2


def test_census_builds_no_representation():
    """``classify_subcat`` reads the Hom and Ext matrices alone: flagging
    every subset leaves the backend's representation memo empty."""
    backend = build_backend(QuiverSpec(3, A3_LINEAR, 3))
    for S in backend.subsets():
        core.classify_subcat(backend, S)
    assert backend._memo == {}
