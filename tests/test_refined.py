import time

import pytest

from tstructkit import core
from tstructkit.derived import (SubcatSeq, aisle_from_torsion,
                                enumerate_narrow_sequences, full_subcat)
from tstructkit.quiver import BackendError, QuiverSpec, build_backend
from tstructkit.refined import (RefinedTSeq, TStructRecord, enumerate_refined,
                                enumerate_tstructures, gap, psi,
                                star_oracle_membership,
                                tilting_torsion_classes, validate_refined,
                                verify_roundtrips, xi)


def test_xi_of_standard_aisle(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    u = aisle_from_torsion(a2, {P1, S1})
    r = xi(a2, u)
    # wide closure of the torsion class {P1, S1} is everything
    assert r.f_at(0) == full_subcat(a2)
    assert r.f_at(1) == full_subcat(a2)
    assert r.tf_at(0) == frozenset({P1, S1})
    # f(0) already everything, so no gap survives at level 1
    assert r.tf_at(1) == frozenset()


def test_psi_inverts_xi_on_standard_aisles(a2):
    for t in a2.subsets():
        from tstructkit.core import classify_subcat
        if not classify_subcat(a2, frozenset(t)).is_torsion_class:
            continue
        u = aisle_from_torsion(a2, t)
        assert psi(a2, xi(a2, u)).key() == u.key()


def test_gap(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    assert gap(a2, full_subcat(a2), frozenset({S2})) == frozenset({P1})
    assert gap(a2, full_subcat(a2), frozenset()) == full_subcat(a2)


def test_validate_refined_negative_witness(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    everything = full_subcat(a2)
    # t_f(1) = {S1} is not perpendicular to f(0): Hom(S1, S1) != 0
    bad = RefinedTSeq(0, 1, (everything, everything),
                      (frozenset({P1, S1}), frozenset({S1})), frozenset())
    ok, report = validate_refined(a2, bad)
    assert not ok and report


def test_tilting_torsion_classes(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    whole = tilting_torsion_classes(a2, full_subcat(a2))
    assert frozenset({P1, S1}) in whole
    assert full_subcat(a2) in whole
    assert frozenset({S1}) not in whole  # S2 does not embed into S1-sums
    assert tilting_torsion_classes(a2, frozenset({S1})) == [frozenset({S1})]


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
    recs = enumerate_tstructures(a2, 0, 1, backend_id="quiver:a2")
    assert len(recs) == len(enumerate_refined(a2, 0, 1))
    d = recs[0].to_json_dict()
    assert d["backend"] == "quiver:a2"
    assert d["checks"] == {"narrow-sequence": True, "is-aisle": True}
    assert set(d) == {"backend", "window", "sequence", "refined", "checks"}


def test_star_oracle_agrees_with_theta_on_small_window(a2):
    from tstructkit.derived import theta_membership, window_objects
    for r in enumerate_refined(a2, 0, 1):
        u = psi(a2, r)
        for x in window_objects(a2, 0, 1, size_bound=1):
            want = theta_membership(a2, u, x)
            got = star_oracle_membership(a2, r, 0, 2, x)
            assert want == got, (r.key(), x)


A3_LINEAR = ((0, 1), (1, 2))
A3_INTO_MIDDLE = ((0, 1), (2, 1))


def by_members(sets):
    return sorted(sets, key=lambda s: tuple(sorted(s)))


@pytest.mark.parametrize("spec", [
    QuiverSpec(2, ((0, 1),), 2),
    QuiverSpec(3, A3_LINEAR, 2),
    QuiverSpec(3, A3_INTO_MIDDLE, 2),
    QuiverSpec(3, A3_LINEAR, 3),
])
def test_census_equals_the_scans(spec):
    b = build_backend(spec)
    wides = core.wide_census(b)
    assert wides == by_members(core.enumerate_subcats(b, ("is_wide",)))
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
    monkeypatch.setattr(core, "wide_census",
                        lambda b: by_members(core.enumerate_subcats(b, ("is_wide",))))
    monkeypatch.setattr(core, "tilting_census", tilting_torsion_classes)
    want = [r.key() for r in enumerate_refined(build_backend(spec), lo, hi)]
    assert got == want and len(got) == count


A4 = QuiverSpec(4, ((0, 1), (1, 2), (2, 3)), 2)
D4 = QuiverSpec(4, ((0, 3), (1, 3), (2, 3)), 2, (1, 1, 1, 2))  # vertex 3 is the centre


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
                new = S.union(*(obj for _, obj in core._violations(
                    backend, S, ("quotients", "extensions"), ambient)))
                if new == S:
                    break
                S = new
            closed[key] = S
        return closed[key]

    def value(k):
        return glue(r.tf_at(k) | r.f_at(k - 1), r.f_at(k))

    entries = tuple(value(k) for k in range(r.lo, r.hi + 1))
    return SubcatSeq(r.lo, r.hi, entries, frozenset(), value(r.hi + 1))


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
    want = [TStructRecord("quiver", (lo, hi), u, xi(b, u), checks).to_json_dict()
            for u in enumerate_narrow_sequences(b, lo, hi)]
    assert got == want


def wide_chain_count(backend, lo, hi):
    """Sum over chains of wide subcategories on the window of the product of
    the per-gap tilting counts (the top gap f(hi) cap perp f(hi) is zero)."""
    ways = {frozenset(): 1}  # chains ending at f(lo - 1) = 0
    for _ in range(lo, hi + 1):
        ways = {w: sum(n * len(core.tilting_census(backend, gap(backend, w, prev)))
                       for prev, n in ways.items() if prev <= w)
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


def test_truncated_table_refused_up_front(kronecker):
    with pytest.raises(BackendError, match=r"dim_bound \[1, 1\]"):
        enumerate_refined(kronecker, 0, 0)
    with pytest.raises(BackendError, match=r"dim_bound \[1, 1\]"):
        core.tilting_census(kronecker, kronecker.all_ids())
    zero = RefinedTSeq(0, 0, (frozenset(),), (frozenset(),))
    with pytest.raises(BackendError, match=r"dim_bound \[1, 1\]"):
        psi(kronecker, zero)
