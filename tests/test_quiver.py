import itertools
import json
import time

import numpy as np
import pytest

from tstructkit import core
from tstructkit import fplinalg as la
from tstructkit.quiver import (BackendError, QuiverBackend, QuiverSpec,
                               _has_cycle, _rational_inverse, build_backend, rep_from_arrays)
from conftest import id_by_dims

A3_LINEAR = ((0, 1), (1, 2))
A4_LINEAR = ((0, 1), (1, 2), (2, 3))
A5_LINEAR = ((0, 1), (1, 2), (2, 3), (3, 4))
D4_INTO_CENTRE = ((0, 1), (2, 1), (3, 1))  # vertex 1 is the centre
KRONECKER = ((0, 1), (0, 1))


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


@pytest.mark.parametrize("dim_bound", [(0, 1), (-1, 2), (1.5, 1), (True, 1), ("2", 1)])
def test_spec_rejects_dim_bound_entries_below_one_or_not_int(dim_bound):
    with pytest.raises(BackendError, match="dim_bound"):
        QuiverSpec(2, ((0, 1),), 2, dim_bound)


def test_spec_from_json(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1]], "field": 3}))
    spec = QuiverSpec.from_json(str(path))
    assert spec.vertices == 2 and spec.field == 3


def test_a2_indecomposable_table(a2):
    assert len(a2.indecs) == 3
    dims = sorted(tuple(i.dims) for i in a2.indecs)
    assert dims == [(0, 1), (1, 0), (1, 1)]


def test_a3_and_kronecker_tables(a3, kronecker):
    assert len(a3.indecs) == 6
    # bounded Kronecker table: two simples plus the three (1,1) classes
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
                assert backend.spec.euler_form(di, dj) == \
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
    assert set(a2.subobjects((P1,))) == {(), (S2,), (P1,)}
    assert set(a2.quotients((P1,))) == {(), (a2_ids["S1"],), (P1,)}


def test_decompose_rep_roundtrip(a2, a3):
    for backend in (a2, a3):
        ids = backend.all_ids()
        for i in ids:
            for j in ids:
                obj = tuple(sorted((i, j)))
                assert backend.decompose_rep(backend.obj_rep(obj)) == obj


def test_is_indecomposable_oracle_agrees_with_table(a2):
    for i in a2.all_ids():
        assert a2.is_indecomposable(a2.obj_rep((i,)))
    split = a2.obj_rep(tuple(sorted((a2_s1(a2), a2_s2(a2)))))
    assert not a2.is_indecomposable(split)


def a2_s1(a2):
    return id_by_dims(a2, (1, 0))


def a2_s2(a2):
    return id_by_dims(a2, (0, 1))


def test_mono_epi_detection(a2, a2_ids):
    S1, P1 = a2_ids["S1"], a2_ids["P1"]
    fs = list(a2.morphisms((P1,), (S1,)))
    assert len(fs) == 1
    assert a2.is_epi(fs[0]) and not a2.is_mono(fs[0])
    gs = list(a2.morphisms((a2_ids["S2"],), (P1,)))
    assert len(gs) == 1
    assert a2.is_mono(gs[0]) and not a2.is_epi(gs[0])


def test_hom_basis_dimension_matches_hom_dim(a3):
    ids = a3.all_ids()
    for i in ids:
        for j in ids:
            assert len(a3.hom_basis((i,), (j,))) == a3.hom_dim((i,), (j,))


def test_decompose_rejects_reps_outside_bound(kronecker):
    big = rep_from_arrays(kronecker.spec, (2, 2),
                          [np.eye(2, dtype=np.int64),
                           np.array([[0, 1], [0, 0]], dtype=np.int64)])
    with pytest.raises(BackendError):
        kronecker.decompose_rep(big)


def test_middle_terms_refuse_extensions_outside_truncated_table(kronecker):
    # Ext^1(S0, R) != 0 for each (1, 1) rep R; the nonsplit middle term has
    # dimension vector (2, 1), outside the (1, 1) box
    s0 = id_by_dims(kronecker, (1, 0))
    r = next(i for i, ind in enumerate(kronecker.indecs) if ind.dims == (1, 1))
    with pytest.raises(BackendError, match="does not decompose"):
        kronecker.middle_terms((s0,), (r,))


def test_subsets_bitmask_order(a2):
    subsets = list(a2.subsets())
    assert len(subsets) == 8
    assert subsets[0] == frozenset()
    assert subsets[1] == frozenset({0})
    assert subsets[3] == frozenset({0, 1})


class FullScanBackend(QuiverBackend):
    """Reference oracle: the table built from every dimension vector of the
    box by the split-summand and isomorphism scan, with no pruning to
    connected roots; its Hom matrix by linear algebra on each pair of
    entries and its inverse in Fractions, whatever the table."""

    def __init__(self, spec):
        super().__init__(spec)
        n = len(self.indecs)
        self.hom_matrix = np.array([[self._rep_hom_dim(a, b) for b in self.indecs] for a in self.indecs],
                                   dtype=np.int64).reshape(n, n)
        euler = np.array([[spec.euler_form(a.dims, b.dims) for b in self.indecs] for a in self.indecs],
                         dtype=np.int64).reshape(n, n)
        self.ext_matrix = self.hom_matrix - euler
        self.hom_inverse = _rational_inverse(self.hom_matrix)

    def _build_table(self):
        box = itertools.product(*(range(b + 1) for b in self.spec.dim_bound))
        for dv in sorted((d for d in box if any(d)), key=lambda d: (sum(d), d)):
            for rep in self._all_reps(dv):
                if self._is_new_indec(rep):
                    self.indecs.append(rep)


TABLE_SPECS = [
    QuiverSpec(1, (), 2),
    QuiverSpec(2, ((0, 1),), 2),
    QuiverSpec(2, ((0, 1),), 3),
    QuiverSpec(3, A3_LINEAR, 2),
    QuiverSpec(3, ((0, 1), (2, 1)), 2),
    QuiverSpec(3, A3_LINEAR, 3),
    QuiverSpec(3, ((1, 0), (1, 2)), 3),
    QuiverSpec(4, A4_LINEAR, 2, (1, 1, 1, 1)),
    QuiverSpec(4, A4_LINEAR, 3, (1, 1, 1, 1)),
    QuiverSpec(5, A5_LINEAR, 2, (1, 1, 1, 1, 1)),
    QuiverSpec(4, D4_INTO_CENTRE, 2, (1, 2, 1, 1)),
    QuiverSpec(4, D4_INTO_CENTRE, 2, (1, 1, 1, 2)),  # misses (1, 2, 1, 1)
    QuiverSpec(2, KRONECKER, 2, (1, 1)),
    QuiverSpec(2, KRONECKER, 2, (2, 1)),
    QuiverSpec(2, KRONECKER, 2, (2, 2)),
]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda spec: f"{spec.arrows}-F{spec.field}-{spec.dim_bound}")
def test_root_pruned_table_equals_full_box_scan(spec):
    pruned, full = build_backend(spec), FullScanBackend(spec)
    assert pruned.indecs == full.indecs  # same order, same matrices
    assert np.array_equal(pruned.hom_matrix, full.hom_matrix)
    assert np.array_equal(pruned.ext_matrix, full.ext_matrix)
    assert pruned.truncated == full.truncated
    if not pruned.truncated:
        assert pruned._hom_inv_int is not None
    if pruned._hom_inv_int is not None:
        assert pruned._hom_inv_int.tolist() == full.hom_inverse


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=lambda spec: f"{spec.arrows}-F{spec.field}-{spec.dim_bound}")
def test_only_truncated_tables_run_the_indecomposability_scan(spec, monkeypatch):
    def scan(self, rep):
        raise AssertionError("the split-summand and isomorphism scan ran")

    monkeypatch.setattr(QuiverBackend, "_is_new_indec", scan)
    if spec.truncated:
        with pytest.raises(AssertionError, match="scan ran"):
            build_backend(spec)
    else:
        assert not build_backend(spec).truncated


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
    assert all(backend.spec.euler_form(d, d) == 1 for d in dims)
    assert not backend.truncated


@pytest.mark.parametrize("spec, truncated", [
    (QuiverSpec(3, A3_LINEAR, 2, (1, 1, 1)), False),
    (QuiverSpec(4, D4_INTO_CENTRE, 2), False),
    (QuiverSpec(4, D4_INTO_CENTRE, 2, (1, 1, 1, 1)), True),  # misses (1, 2, 1, 1)
    (QuiverSpec(2, KRONECKER, 2, (1, 1)), True),  # not Dynkin: every box misses one
    (QuiverSpec(2, KRONECKER, 2, (2, 2)), True),
])
def test_truncated_iff_box_misses_an_indecomposable(spec, truncated):
    assert build_backend(spec).truncated == truncated


def box_scan_truncated(spec):
    """Reference oracle for ``QuiverSpec.truncated``: whether some vector of
    the box grown by one at every vertex, but outside the box, has connected
    support and q <= 1."""
    bound = spec.dim_bound
    return any(spec._may_be_indecomposable(dv)
               for dv in itertools.product(*(range(b + 2) for b in bound))
               if any(d > b for d, b in zip(dv, bound)))


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
    vertices, edges, dynkin = ORACLE_GRAPHS[name]
    bounds = {(1,) * vertices, (2,) * vertices}
    bounds |= {spec.dim_bound for spec in TABLE_SPECS if spec.vertices == vertices}
    for arrows in acyclic_orientations(vertices, edges):
        for bound in sorted(bounds):
            spec = QuiverSpec(vertices, arrows, 2, bound)
            assert spec.truncated == box_scan_truncated(spec), (arrows, bound)
            if not dynkin:
                assert spec.truncated
            if not spec.truncated:
                box = itertools.product(*(range(b + 1) for b in bound))
                assert spec.positive_roots == tuple(sorted(
                    (dv for dv in box if spec._may_be_indecomposable(dv)),
                    key=lambda dv: (sum(dv), dv)))


def test_root_walk_finds_the_known_root_counts():
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
        spec = QuiverSpec(vertices, arrows, 2, highest)
        roots = spec.positive_roots
        assert not spec.truncated
        assert len(roots) == len(set(roots)) == count
        assert all(spec.euler_form(d, d) == 1 for d in roots)
        assert tuple(map(max, zip(*roots))) == highest
        for v, h in enumerate(highest):
            if h > 1:
                lowered = highest[:v] + (h - 1,) + highest[v + 1:]
                assert QuiverSpec(vertices, arrows, 2, lowered).truncated, lowered
    assert time.perf_counter() - start < 1.0


def test_only_non_thin_roots_search_the_representations(monkeypatch):
    all_reps, searched = QuiverBackend._all_reps, []

    def guarded(self, dv):
        if max(dv) <= 1:
            raise AssertionError(f"the thin vector {dv} was searched")
        searched.append((self.spec, dv))
        return all_reps(self, dv)

    monkeypatch.setattr(QuiverBackend, "_all_reps", guarded)
    for spec in TABLE_SPECS:
        if not spec.truncated:
            build_backend(spec)
    assert searched == [(QuiverSpec(4, D4_INTO_CENTRE, 2, (1, 2, 1, 1)), (1, 2, 1, 1))]


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
        basis = backend.hom_basis(sub, mid)
        for coeffs in itertools.product(range(p), repeat=len(basis)):
            if next((c for c in coeffs if c), 0) != 1:
                continue
            f = [sum(c * g[v] for c, g in zip(coeffs, basis)) % p for v in range(len(sub_dims))]
            if all(la.rank(m, p) == d for m, d in zip(f, sub_dims)):
                ibases = [la.column_space(m, p) for m in f]
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
    cands = core.candidates(backend.all_ids(), bound)
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
    QuiverSpec(2, KRONECKER, 2, (2, 2)),
], ids=lambda spec: f"{spec.arrows}-F{spec.field}-{spec.dim_bound}")
def test_ringel_cokernel_has_the_euler_form_dimension(spec):
    """dim coker of Ringel's map = hom - <dim A, dim B> = ext_dim, on every
    pair of indecomposables (the truncated Kronecker table included)."""
    backend = build_backend(spec)
    for i in backend.all_ids():
        for j in backend.all_ids():
            a, b = backend.indecs[i], backend.indecs[j]
            ringel = backend._ringel_map(a, b)
            ext = ringel.shape[0] - la.rank(ringel, backend.p)  # dim coker
            assert ext == backend.hom_dim((i,), (j,)) - backend.spec.euler_form(a.dims, b.dims)
            assert ext == backend.ext_dim((i,), (j,))
            if backend.truncated:
                continue  # a middle term may lie outside the table
            mids = backend.middle_terms((i,), (j,))
            assert tuple(sorted((i, j))) in mids
            assert (len(mids) == 1) == (ext == 0)


def test_middle_terms_store_nothing_but_their_results_and_operands():
    backend = build_backend(QuiverSpec(3, A3_LINEAR, 2))
    cands = core.candidates(backend.all_ids(), 2)
    for quot in cands:
        for sub in cands:
            backend.middle_terms(quot, sub)
    assert {key[0] for key in backend._memo} == {"middle_terms", "obj_rep"}
