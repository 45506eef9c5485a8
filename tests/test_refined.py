import pytest

from tstructkit import core
from tstructkit.derived import aisle_from_torsion, full_subcat
from tstructkit.quiver import BackendError, QuiverSpec, build_backend
from tstructkit.refined import (RefinedTSeq, enumerate_refined,
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


def test_enumerate_refined_on_a4():
    a4 = build_backend(QuiverSpec(4, ((0, 1), (1, 2), (2, 3)), 2))
    assert len(enumerate_refined(a4, 0, 1)) == 494


def test_truncated_table_refused_up_front(kronecker):
    with pytest.raises(BackendError, match=r"dim_bound \[1, 1\]"):
        enumerate_refined(kronecker, 0, 0)
    with pytest.raises(BackendError, match=r"dim_bound \[1, 1\]"):
        core.tilting_census(kronecker, kronecker.all_ids())
