import contextlib
import math

import pytest

from conftest import full_subcat, injected, restrict, seq_of, shift, tilting_torsion_classes
from tstructkit import core, refined
from tstructkit.derived import (SubcatSeq, aisle_from_torsion,
                                derived_hom_dim, dobj, dobj_key,
                                enumerate_narrow_sequences,
                                is_narrow_sequence, mu,
                                star_membership, theta_membership,
                                window_objects)
from tstructkit.quiver import BackendError, QuiverSpec, build_backend


def truncate(x: dict, n: int, side: str) -> dict:
    """Keep homologies in degrees >= n ('above') or <= n ('below')."""
    x = dobj(x)
    if side == "above":
        return {k: v for k, v in x.items() if k >= n}
    if side == "below":
        return {k: v for k, v in x.items() if k <= n}
    raise BackendError("side must be 'above' or 'below'")


def test_dobj_normalization():
    assert dobj({0: (2, 1), 1: ()}) == {0: (1, 2)}
    assert shift({0: (1,)}, 2) == {2: (1,)}
    assert truncate({0: (1,), 1: (2,)}, 1, "above") == {1: (2,)}
    assert truncate({0: (1,), 1: (2,)}, 0, "below") == {0: (1,)}


def test_derived_hom_counts_hom_and_ext(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    # same degree: plain Hom
    assert derived_hom_dim(a2, {0: (P1,)}, {0: (S1,)}) == 1
    # shift the target up one degree: Ext
    assert derived_hom_dim(a2, {0: (S1,)}, {1: (S2,)}) == 1
    assert derived_hom_dim(a2, {0: (S2,)}, {1: (S1,)}) == 0
    # two-step shift vanishes in a hereditary category
    assert derived_hom_dim(a2, {0: (S1,)}, {2: (S2,)}) == 0
    # additivity over summands
    assert derived_hom_dim(a2, {0: (P1, S1)}, {0: (S1,), 1: (S2,)}) == 3


def test_seq_json_roundtrip(a2, a2_ids):
    seq = aisle_from_torsion(a2, {a2_ids["P1"], a2_ids["S1"]})
    back = SubcatSeq.from_json_dict(seq.to_json_dict(), a2)
    assert back.key() == seq.key()


def test_seq_rejects_bad_window(a2):
    with pytest.raises(BackendError):
        seq_of(a2, 1, 0, (), frozenset(), frozenset())


def test_aisle_from_torsion_is_narrow(a2, a2_ids):
    seq = aisle_from_torsion(a2, {a2_ids["P1"], a2_ids["S1"]})
    ok, report = is_narrow_sequence(a2, seq)
    assert ok, report
    assert core.subcat(seq.mask_at(-1)) == frozenset()
    assert core.subcat(seq.mask_at(0)) == frozenset({a2_ids["P1"], a2_ids["S1"]})
    assert core.subcat(seq.mask_at(5)) == full_subcat(a2)


def test_constant_sequences(a2, a2_ids):
    S1, P1 = a2_ids["S1"], a2_ids["P1"]
    wide = frozenset({S1})
    seq = seq_of(a2, 0, 0, (wide,), wide, wide)
    ok, _ = is_narrow_sequence(a2, seq)
    assert ok  # constant at a wide subcategory
    nw = frozenset({P1, S1})
    seq = seq_of(a2, 0, 0, (nw,), nw, nw)
    ok, report = is_narrow_sequence(a2, seq)
    assert not ok  # kernel of P1 -> S1 escapes into the lower level
    assert any("kernel" in r for r in report)


def test_nonmonotone_rejected(a2, a2_ids):
    S1 = a2_ids["S1"]
    seq = seq_of(a2, 0, 1, (full_subcat(a2), frozenset({S1})),
                 frozenset(), full_subcat(a2))
    ok, report = is_narrow_sequence(a2, seq)
    assert not ok and any("monoton" in r for r in report)


def test_theta_membership(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    seq = aisle_from_torsion(a2, {P1, S1})
    assert theta_membership(a2, seq, {0: (P1,), 1: (S2,)})
    assert theta_membership(a2, seq, {})
    assert not theta_membership(a2, seq, {0: (S2,)})
    assert not theta_membership(a2, seq, {-1: (S1,)})


def test_mu_recovers_entries_of_enumerated_sequences(a2):
    for seq in enumerate_narrow_sequences(a2, 0, 1):
        got = mu(a2, lambda x, s=seq: theta_membership(a2, s, x), 0, 1)
        assert got.entries == seq.entries


def test_restrict(a2, a2_ids):
    S1, P1 = a2_ids["P1"], a2_ids["S1"]
    seq = aisle_from_torsion(a2, {a2_ids["P1"], a2_ids["S1"]})
    r = restrict(a2, seq, 0, 0)
    assert r.mask_at(-1) == 0
    assert r.mask_at(0) == seq.mask_at(0)
    # above the cut the value is the wide closure of the level-0 value
    assert core.subcat(r.mask_at(1)) == full_subcat(a2)


def test_window_objects_counts(a2):
    objs = list(window_objects(a2, 0, 0, size_bound=1))
    assert len(objs) == 4  # zero plus three indecomposables
    objs2 = list(window_objects(a2, 0, 1, size_bound=1))
    assert len(objs2) == 7


@pytest.mark.parametrize("size_bound", [1, 2, 3])
def test_window_objects_are_distinct(a2, a3, size_bound):
    """No object repeats, so the count is the number of multisets of at
    most size_bound (degree, id) slots; a repeated id in the pool adds none."""
    for backend in (a2, a3):
        slots = 2 * len(backend.indecs)
        objs = window_objects(backend, 0, 1, size_bound=size_bound)
        assert len({dobj_key(x) for x in objs}) == len(objs) == \
            sum(math.comb(slots + r - 1, r) for r in range(size_bound + 1))
        ids = backend.all_ids()
        assert window_objects(backend, 0, 1, size_bound, ids=ids + ids[:2]) == objs


def test_star_membership_basics(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    left = aisle_from_torsion(a2, {S1})
    right = aisle_from_torsion(a2, {P1, S1})
    # P1 sits in an extension S2 -> P1 -> S1 with S1 in left(0), S2 in right(0)?
    # star: triangle L -> x -> R with L in left, R in right
    assert star_membership(a2, left, right, {0: (S1,)}, 0, 1)
    assert star_membership(a2, left, right, {}, 0, 1)
    # an object below the window of both factors is not in the product
    zero_left = seq_of(a2, 0, 0, (frozenset(),), frozenset(), frozenset())
    assert not star_membership(a2, zero_left, zero_left, {0: (S1,)}, 0, 1)


def test_subcat_seq_right_factor_is_its_own_envelope(a2):
    """A SubcatSeq right factor prunes by its own values; the same factor as
    a plain membership callable, with no envelope, gives the same answers
    (on the one-degree slices of criterion 6)."""
    for seq in enumerate_narrow_sequences(a2, 0, 1):
        left = restrict(a2, seq, 1, 1)
        right = SubcatSeq(0, 0, (0, seq.mask_at(0), 0))
        for x in window_objects(a2, 0, 1, size_bound=2):
            assert star_membership(a2, left, right, x, 0, 2) == star_membership(
                a2, left, lambda b: theta_membership(a2, right, b), x, 0, 2), (seq.key(), x)


def test_enumerate_narrow_sequence_counts(a2, a3):
    assert len(enumerate_narrow_sequences(a2, 0, 2)) == 25
    seqs = enumerate_narrow_sequences(a2, 0, 1)
    keys = [s.key() for s in seqs]
    assert len(keys) == len(set(keys))
    for s in seqs:
        ok, report = is_narrow_sequence(a2, s)
        assert ok, report


def test_results_do_not_depend_on_fault_history():
    """One backend answers as a cold one would under every fault set, even
    after it has memoised results under another."""
    spec = QuiverSpec(2, ((0, 1),), 2)
    warm = build_backend(spec)  # not the session fixture: its memo is shared

    def answers(b):
        subsets = range(1 << len(b.roots))
        return (len(enumerate_narrow_sequences(b, 0, 1)),
                tilting_torsion_classes(b, core.full_mask(b)),
                [r.key() for r in refined.enumerate_refined(b, 0, 1)],
                sum(core.is_closed(b, S, ("extensions", "cokernels")) for S in subsets),
                sum(core.is_closed(b, S, ("kernels",)) for S in subsets),
                sum(core.closure(b, S, core.WIDE_RULES).bit_count() for S in subsets),
                sum(core.subcat_flags(b, S).is_narrow for S in subsets))

    # (fault, narrow sequences and refined t-sequences on the window 0:1,
    # subsets the scan finds closed under extensions and cokernels, and
    # under kernels, the total size of the wide-rule closures of every
    # subset, and the subsets the matrix flag calls narrow); every faulted
    # row differs from the clean one
    steps = [(None, 14, 14, 6, 7, 15, 6), ("drop-extension-closure", 14, 14, 7, 7, 14, 6),
             ("perp-ignores-ext", 10, 15, 6, 7, 15, 5),
             ("wide-closure-skips-kernels", 14, 14, 6, 8, 14, 6), (None, 14, 14, 6, 7, 15, 6)]
    assert all(step[1:] != steps[0][1:] for step in steps if step[0])  # memo isolation shows
    for fault, count, refined_count, scan_count, kernel_count, closure_size, narrow_count in steps:
        with injected(fault) if fault else contextlib.nullcontext():
            got, cold = answers(warm), answers(build_backend(spec))
        assert got[0] == cold[0] == count, fault
        assert got[1] == cold[1], fault
        assert got[2] == cold[2] and len(got[2]) == refined_count, fault
        assert got[3] == cold[3] == scan_count, fault
        assert got[4] == cold[4] == kernel_count, fault
        assert got[5] == cold[5] == closure_size, fault
        assert got[6] == cold[6] == narrow_count, fault
