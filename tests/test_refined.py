import itertools
import random
import re
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import (full_subcat, quotients_leaving, restrict, scan_census, seq_of,
                      tilting_torsion_classes)
from tstructkit import cli, core, derived
from tstructkit.derived import (aisle_from_torsion,
                                enumerate_narrow_sequences,
                                theta_membership, window_objects)
from tstructkit.quiver import BackendError, QuiverSpec, build_backend
from tstructkit.refined import (RefinedTSeq, TStructRecord, enumerate_refined,
                                enumerate_tstructures, gap, narrow_cut, psi,
                                star_oracle_membership, validate_refined,
                                verify_roundtrips, xi)


def test_xi_of_standard_aisle(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    u = aisle_from_torsion(a2, {P1, S1})
    r = xi(a2, u)
    # wide closure of the torsion class {P1, S1} is everything
    assert core.subcat(r.f_mask(0)) == full_subcat(a2)
    assert core.subcat(r.f_mask(1)) == full_subcat(a2)
    assert core.subcat(r.tf_mask(0)) == frozenset({P1, S1})
    # f(0) already everything, so no gap survives at level 1
    assert core.subcat(r.tf_mask(1)) == frozenset()


def test_psi_inverts_xi_on_standard_aisles(a2):
    for t in a2.subsets():
        from tstructkit.core import classify_subcat
        if not classify_subcat(a2, frozenset(t)).is_torsion_class:
            continue
        u = aisle_from_torsion(a2, t)
        assert psi(a2, xi(a2, u)).key() == u.key()


def test_no_wide_closure_outside_verify_searches(a2_ids, monkeypatch):
    """With the closure search gone, the roundtrips and ``restrict`` still
    give their answers: every wide closure they take is
    ``core.wide_closure``."""
    def refuse(*args):
        raise AssertionError("core.closure called")

    monkeypatch.setattr(core, "closure", refuse)
    a3 = build_backend(QuiverSpec(3, ((0, 1), (1, 2)), 2))
    assert verify_roundtrips(a3, 0, 2)["failures"] == []
    a2 = build_backend(QuiverSpec(2, ((0, 1),), 2))
    seq = aisle_from_torsion(a2, {a2_ids["P1"], a2_ids["S1"]})
    r = restrict(a2, seq, 0, 0)
    assert (r.mask_at(-1), r.mask_at(0), r.mask_at(1)) == (0, seq.mask_at(0), core.full_mask(a2))


def test_xi_widens_the_window_where_the_tail_jumps(a2):
    """The shift aisle, zero at degree 0 and everything from degree 1 on,
    is cut on the window 0:1: its tail at 1 is not the wide closure of its
    value at 0, and the cut there is the tilting class of everything in its
    gap over the zero f(0)."""
    everything = core.full_mask(a2)
    u = seq_of(a2, 0, 0, (frozenset(),), frozenset(), full_subcat(a2))
    r = xi(a2, u)
    assert (r.lo, r.hi, r.f, r.tf) == (0, 1, (0, everything), (0, everything))
    assert validate_refined(a2, r) == (True, [])
    v = psi(a2, r)
    assert all(v.mask_at(k) == u.mask_at(k) for k in range(-2, 4))


def test_xi_refuses_what_psi_never_glues(a2, a2_ids):
    """psi glues only zero below-tails, so the constant wide sequence {S1}
    is refused, and so is a sequence whose cut glues to another one."""
    S1 = frozenset({a2_ids["S1"]})
    with pytest.raises(BackendError, match=r"xi needs a narrow sequence; .*another N\(-1\)"):
        xi(a2, seq_of(a2, 0, 0, (S1,), S1, S1))
    bad = seq_of(a2, 0, 1, (frozenset({0, 1}), frozenset({0, 1})), frozenset(), full_subcat(a2))
    with pytest.raises(BackendError, match="xi needs a narrow sequence; t_f"):
        xi(a2, bad)


def test_gap(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    everything = core.full_mask(a2)
    assert gap(a2, everything, core.mask_of({S2})) == core.mask_of({P1})
    assert gap(a2, everything, 0) == everything


def test_validate_refined_negative_witness(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    everything = core.full_mask(a2)
    # t_f(1) = {S1} is not perpendicular to f(0): Hom(S1, S1) != 0
    bad = RefinedTSeq(0, 1, (everything, everything),
                      (core.mask_of({P1, S1}), core.mask_of({S1})))
    ok, report = validate_refined(a2, bad)
    assert not ok and report


def test_tilting_torsion_classes(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    whole = tilting_torsion_classes(a2, core.full_mask(a2))
    assert core.mask_of({P1, S1}) in whole
    assert core.full_mask(a2) in whole
    assert core.mask_of({S1}) not in whole  # S2 does not embed into S1-sums
    assert tilting_torsion_classes(a2, core.mask_of({S1})) == [core.mask_of({S1})]


def test_enumerate_refined_matches_aisle_count(a2):
    assert len(enumerate_refined(a2, 0, 2)) == 25
    for r in enumerate_refined(a2, 0, 1):
        ok, report = validate_refined(a2, r)
        assert ok, report


def test_verify_roundtrips_a2(a2):
    out = verify_roundtrips(a2, 0, 2)
    assert out["aisles"] == 25 and out["refined"] == 25
    assert out["failures"] == []


def test_enumerate_tstructures_records(a2):
    recs = enumerate_tstructures(a2, 0, 1)
    assert len(recs) == len(enumerate_refined(a2, 0, 1))
    d = recs[0].to_json_dict()
    assert d["checks"] == {"narrow-sequence": True, "is-aisle": True}
    assert set(d) == {"sequence", "refined", "checks"}


def test_star_oracle_agrees_with_theta_on_small_window(a2, monkeypatch):
    """The oracle's envelope pruning is exact: the unpruned search (the
    envelope dropped) gives the same answers, and every member it finds of
    an approximant V(n, m) has its homology in f(m), the lemma the pruning
    rests on."""
    objs = [x for x in window_objects(a2, 0, 1, size_bound=1) if x]
    cases = [(r, x) for r in enumerate_refined(a2, 0, 1) for x in objs]
    assert len(cases) == 84
    pruned = [star_oracle_membership(a2, r, 0, 2, x) for r, x in cases]
    assert pruned == [theta_membership(a2, psi(a2, r), x) for r, x in cases]

    search = derived.star_membership
    monkeypatch.setattr(derived, "star_membership",
                        lambda *args, envelope=None, **kwargs: search(*args, **kwargs))
    unpruned = []
    for r in enumerate_refined(a2, 0, 1):
        memo = {}
        unpruned.extend(star_oracle_membership(a2, r, 0, 2, x, memo=memo) for x in objs)
        for (n, m, key), member in memo.items():
            if member:
                assert all(core.obj_in_mask(r.f_mask(m), xk) for _, xk in key), (r.key(), n, m, key)
    assert unpruned == pruned


@pytest.mark.parametrize("field, star_size_bound", [
    (3, derived.STAR_SIZE_BOUND),      # the glue formula over a second field
    (2, derived.STAR_SIZE_BOUND + 1),  # the star search's bound certified by bound + 1
], ids=["a2-field-3", "a2-star-bound-plus-1"])
def test_glue_formula_matches_star_oracle(field, star_size_bound, monkeypatch):
    """Criterion 3's comparison on A2 over F3, and on A2 over F2 with left
    factors of one more summand; the bound is read by a fresh backend's
    memo, so the constant is patched before the backend is built."""
    monkeypatch.setattr(derived, "STAR_SIZE_BOUND", star_size_bound)
    b = build_backend(QuiverSpec(2, ((0, 1),), field))
    asked = disagreements = 0
    for r in enumerate_refined(b, 0, 1):
        u = psi(b, r)
        memo = {}
        for x in window_objects(b, 0, 1, size_bound=2):
            asked += 1
            disagreements += (theta_membership(b, u, x)
                              != star_oracle_membership(b, r, 0, 2, x, memo=memo))
    assert (asked, disagreements) == (392, 0)


A3_LINEAR = ((0, 1), (1, 2))
A3_INTO_MIDDLE = ((0, 1), (2, 1))


def scan_wides(spec):
    """The masks of the wide subcategories by the closure scans, sorted by
    members."""
    return sorted((S for S, (_, wide) in scan_census(spec).items() if wide), key=core.members)


A4 = QuiverSpec(4, ((0, 1), (1, 2), (2, 3)), 2)
D4 = QuiverSpec(4, ((0, 3), (1, 3), (2, 3)), 2, (1, 1, 1, 2))  # vertex 3 is the centre


@pytest.mark.parametrize("spec", [
    QuiverSpec(2, ((0, 1),), 2),
    QuiverSpec(3, A3_LINEAR, 2),
    QuiverSpec(3, A3_INTO_MIDDLE, 2),
    QuiverSpec(3, A3_LINEAR, 3),
    A4,
    D4,
])
def test_census_equals_the_scans(spec):
    """The wide and tilting censuses equal the subset scans: the closure
    scans over every subset (``scan_flags``), and the torsion and tilting
    tests over every subset of each wide subcategory
    (``tilting_torsion_classes``)."""
    b = build_backend(spec)
    wides = core.wide_census(b)
    assert wides == scan_wides(spec)
    for w in wides:
        assert core.tilting_census(b, w) == tilting_torsion_classes(b, w)


@pytest.mark.parametrize("spec, lo, hi, count", [
    (QuiverSpec(2, ((0, 1),), 2), 0, 2, 25),
    (QuiverSpec(3, A3_LINEAR, 2), 0, 2, 188),
    (QuiverSpec(3, A3_INTO_MIDDLE, 3), 0, 1, 79),
])
def test_enumerate_refined_equals_the_scan(spec, lo, hi, count, monkeypatch):
    got = [r.key() for r in enumerate_refined(build_backend(spec), lo, hi)]
    # the same chain assembly, fed by the subset scans
    monkeypatch.setattr(core, "wide_census", lambda b: scan_wides(b.spec))
    monkeypatch.setattr(core, "tilting_census", tilting_torsion_classes)
    want = [r.key() for r in enumerate_refined(build_backend(spec), lo, hi)]
    assert got == want and len(got) == count


def test_e6_enumeration_within_two_seconds():
    """``enumerate_tstructures`` on demos/quivers/e6.json over the window
    0:1: 60 718 t-structures in under 2 s, on a fresh backend.  A run takes
    about 1.2 s on a 2-core shared host, where one run in several reads
    half as much again, so the best of up to three runs is timed."""
    spec = QuiverSpec.from_json(Path(__file__).resolve().parent.parent / "demos" / "quivers" / "e6.json")
    took = []
    while len(took) < 3 and min(took, default=2.0) >= 2.0:
        b = build_backend(spec)
        start = time.perf_counter()
        assert len(enumerate_tstructures(b, 0, 1)) == 60718
        took.append(time.perf_counter() - start)
    assert min(took) < 2.0, took


def test_enumerate_refined_on_a4():
    assert len(enumerate_refined(build_backend(A4), 0, 1)) == 494


def closure_psi(backend, r, closed):
    """psi by the bounded closure, the oracle of the perp formula: the value
    at k is the least superset of t_f(k) and f(k-1) closed under quotients
    and extensions, keeping only what lies in f(k).  closed memoises the
    closures of one backend."""

    def glue(seed, ambient):
        key = (seed, ambient)
        if key not in closed:
            S = seed
            while True:
                new = S | core.mask_of(itertools.chain(
                    *quotients_leaving(backend, S, ambient),
                    *(obj for _, obj in core._violations(backend, S, ("extensions",), ambient))))
                if new == S:
                    break
                S = new
            closed[key] = S
        return closed[key]

    def value(k):
        return glue(r.tf_mask(k) | r.f_mask(k - 1), r.f_mask(k))

    entries = tuple(value(k) for k in range(r.lo, r.hi + 1))
    return derived.SubcatSeq(r.lo, r.hi, (0, *entries, value(r.hi + 1)))


@pytest.mark.parametrize("spec, lo, hi, count", [
    (QuiverSpec(2, ((0, 1),), 2), 0, 2, 25),
    (QuiverSpec(3, A3_LINEAR, 2), 0, 2, 188),
    (QuiverSpec(3, A3_INTO_MIDDLE, 2), 0, 2, 188),
    (QuiverSpec(3, A3_LINEAR, 3), 0, 1, 79),
    (A4, 0, 1, 494),
])
def test_psi_equals_the_closure(spec, lo, hi, count):
    b = build_backend(spec)
    refineds = enumerate_refined(b, lo, hi)
    assert len(refineds) == count
    closed = {}
    for r in refineds:
        assert psi(b, r).key() == closure_psi(b, r, closed).key(), r.key()


@pytest.mark.parametrize("spec, lo, hi", [
    (QuiverSpec(2, ((0, 1),), 2), 0, 2),
    (QuiverSpec(3, A3_LINEAR, 2), 0, 2),
    (QuiverSpec(3, A3_LINEAR, 3), 0, 1),
])
def test_enumerate_tstructures_equals_the_narrow_scan(spec, lo, hi):
    b = build_backend(spec)
    got = [rec.to_json_dict() for rec in enumerate_tstructures(b, lo, hi)]
    checks = (("narrow-sequence", True), ("is-aisle", True))
    want = [TStructRecord(u, xi(b, u), checks).to_json_dict()
            for u in enumerate_narrow_sequences(b, lo, hi)]
    assert got == want


def wide_chain_count(backend, lo, hi):
    """Sum over chains of wide subcategories on the window of the product of
    the per-gap tilting counts (the top gap f(hi) cap perp f(hi) is zero)."""
    ways = {0: 1}  # chains ending at f(lo - 1) = 0
    for _ in range(lo, hi + 1):
        ways = {w: sum(n * len(core.tilting_census(backend, gap(backend, w, prev)))
                       for prev, n in ways.items() if not prev & ~w)
                for w in core.wide_census(backend)}
    return sum(ways.values())


@pytest.mark.parametrize("spec, lo, hi, count", [(A4, 0, 2, 1563), (D4, 0, 1, 656)])
def test_glued_enumeration_beyond_the_scan(spec, lo, hi, count):
    b = build_backend(spec)
    t0 = time.perf_counter()
    recs = enumerate_tstructures(b, lo, hi)
    assert time.perf_counter() - t0 < 5
    assert len({rec.sequence.key() for rec in recs}) == len(recs) == count
    assert wide_chain_count(b, lo, hi) == count


def classify_verdict(b, u):
    """``classify``'s verdict on u, with its violations."""
    verdict = cli._classify_quiver(b, u.to_json_dict())
    return verdict["valid_narrow_sequence"], verdict["violations"]


def nested_chains(ids, length):
    """Every chain S_1 <= ... <= S_length of subsets of ids: each id picks
    the first member it lies in, or none."""
    for first in itertools.product(range(length + 1), repeat=len(ids)):
        yield [frozenset(i for i, k in zip(ids, first) if k <= n) for n in range(length)]


def agree_with_the_search(b, u):
    """Assert that the decider of ``xi`` and ``classify`` (``narrow_cut``)
    and the bounded search ``is_narrow_sequence`` agree on u, that every
    violation names a degree, and that an accepted zero-below u is glued
    back from its cut; returns the verdict."""
    want = derived.is_narrow_sequence(b, u)[0]
    got, violations = classify_verdict(b, u)
    assert got == want and got != bool(violations), (u.key(), violations)
    assert all(re.search(r"\(-?\d+\)|degree -?\d+", v) for v in violations), violations
    if not u.below:
        r, report = narrow_cut(b, u)
        assert report == violations, u.key()
        if want:
            v = psi(b, r)
            assert all(v.mask_at(k) == u.mask_at(k) for k in range(u.lo - 2, r.hi + 3)), u.key()
    return want


@pytest.mark.parametrize("spec", [QuiverSpec(3, A3_LINEAR, 2), QuiverSpec(3, A3_INTO_MIDDLE, 3)],
                         ids=["a3-f2", "a3-into-middle-f3"])
def test_decider_agrees_with_the_search_on_every_zero_below_triple(spec):
    """Every nested (N(0), N(1), above-tail) on the window 0:1, below-tail
    zero: 4^6 sequences, among them those whose tail jumps at 2."""
    b = build_backend(spec)
    t0 = time.perf_counter()
    verdicts = Counter(agree_with_the_search(b, seq_of(b, 0, 1, (n0, n1), frozenset(), above))
                       for n0, n1, above in nested_chains(b.all_ids(), 3))
    assert verdicts == {True: 140, False: 3956}
    assert time.perf_counter() - t0 < 10


def test_decider_agrees_with_the_search_on_every_below_entry_above_triple():
    """Every nested (below-tail, N(0), above-tail) on the window 0:0: the
    nonzero below-tails go through ``classify``'s wide-tail reduction."""
    b = build_backend(QuiverSpec(3, A3_LINEAR, 2))
    t0 = time.perf_counter()
    verdicts = Counter(agree_with_the_search(b, seq_of(b, 0, 0, (n0,), below, above))
                       for below, n0, above in nested_chains(b.all_ids(), 3))
    assert verdicts == {True: 126, False: 3970}
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("spec", [
    A4,
    QuiverSpec(4, ((0, 3), (1, 3), (2, 3)), 2),
    QuiverSpec(4, ((3, 0), (3, 1), (3, 2)), 2),
], ids=["a4", "d4-centre-sink", "d4-centre-source"])
def test_decider_agrees_with_the_search_on_a_seeded_sample(spec):
    """Every narrow sequence of the scan on 0:1, each again with a seeded
    nonzero wide below-tail inside N(0), and seeded random nested sequences,
    a third of them with a nonzero below-tail.  Random draws are mostly not
    narrow, so the test asks for a least number of each verdict."""
    b = build_backend(spec)
    t0 = time.perf_counter()
    rng = random.Random(f"decider-{spec.arrows}")
    wides = [core.subcat(w) for w in core.wide_census(b) if w]
    sample = []
    for u in enumerate_narrow_sequences(b, 0, 1):
        sample.append(u)
        below = [w for w in wides if w <= u.entries[0]]
        if below:
            sample.append(seq_of(b, 0, 1, u.entries, rng.choice(below), u.above))
    ids = b.all_ids()
    for _ in range(300):
        first = [rng.randrange(5) for _ in ids]
        below, n0, n1, above = (frozenset(i for i, k in zip(ids, first) if k <= n)
                                for n in range(4))
        sample.append(seq_of(b, 0, 1, (n0, n1), below if rng.random() < 1 / 3 else (), above))
    verdicts = Counter(agree_with_the_search(b, u) for u in sample)
    assert min(verdicts[True], verdicts[False]) >= 300, verdicts
    assert time.perf_counter() - t0 < 30
