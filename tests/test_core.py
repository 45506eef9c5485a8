import pytest

from tstructkit import core
from tstructkit.core import (classify_subcat, closure, enumerate_subcats,
                             ext_injectives, is_closed, is_tilting_in,
                             kernel_realizations, perp, split_injective_test,
                             tilting_census, torsion_decompose, wide_census)
from tstructkit.quiver import BackendError, QuiverSpec, build_backend


def all_ids(backend):
    return frozenset(backend.all_ids())


def test_closure_of_simples_under_extensions_is_everything(a2, a2_ids):
    S1, S2 = a2_ids["S1"], a2_ids["S2"]
    assert closure(a2, {S1, S2}, ("extensions",)) == all_ids(a2)


def test_closure_without_the_needed_rule_is_smaller(a2, a2_ids):
    S1, P1 = a2_ids["S1"], a2_ids["P1"]
    assert closure(a2, {P1, S1}, ("cokernels", "extensions")) == \
        frozenset({P1, S1})
    # adding kernels pulls in the socle
    assert closure(a2, {P1, S1}, ("cokernels", "kernels", "extensions")) == \
        all_ids(a2)


def test_is_closed_matches_closure(a2):
    for s in a2.subsets():
        for rules in (("extensions",), ("cokernels", "extensions"),
                      ("quotients", "extensions")):
            assert is_closed(a2, s, rules) == (closure(a2, s, rules) == s)


def test_classify_flags_on_a2(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    f = classify_subcat(a2, frozenset({P1, S1}))
    assert f.is_narrow and not f.is_wide
    f = classify_subcat(a2, frozenset({S1}))
    assert f.is_narrow and f.is_wide and f.is_nullity
    f = classify_subcat(a2, frozenset({P1, S1}))
    assert f.is_nullity and f.is_torsion_class
    f = classify_subcat(a2, frozenset({P1, S2}))
    assert not f.is_narrow and not f.is_nullity  # quotient S1 of P1 escapes
    f = classify_subcat(a2, frozenset({S2, S1}))
    assert not f.is_narrow  # not extension-closed: misses P1


def test_a2_census(a2):
    assert len(enumerate_subcats(a2, ("is_torsion_class",))) == 5
    assert len(enumerate_subcats(a2, ("is_wide",))) == 5
    assert len(enumerate_subcats(a2, ("is_narrow",))) == 6


def test_a3_census(a3):
    # linear A3: Tamari-style torsion-class count
    assert len(enumerate_subcats(a3, ("is_torsion_class",))) == 14


def test_enumerate_subcats_is_in_bitmask_order(a2):
    out = enumerate_subcats(a2, ())
    masks = [sum(1 << i for i in s) for s in out]
    assert masks == sorted(masks)


def test_perp_examples(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    assert perp(a2, {S2}, "right", "all") == frozenset({S1})
    # Hom(P1,S2)=0 and Ext(P1,S2)=0, so P1 survives on the left
    assert perp(a2, {S2}, "left", "all") == frozenset({P1})
    assert perp(a2, {S1}, "right", "zero_only") == frozenset({S2, P1})
    assert perp(a2, {P1, S1}, "right", "zero_only") == frozenset({S2})
    assert perp(a2, all_ids(a2), "left", "all") == frozenset()


def test_perp_universe_restriction(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    assert perp(a2, {S2}, "left", "all", universe=frozenset({S1, S2})) == \
        frozenset()


def test_torsion_decompose(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    # {S1} is a torsion class with torsionfree part {S2, P1}: Hom(S1, P1) = 0
    T = frozenset({S1})
    assert torsion_decompose(a2, (P1,), T) == ((), (P1,))
    assert torsion_decompose(a2, (S1, S2), T) == ((S1,), (S2,))
    T2 = frozenset({P1, S1})
    assert torsion_decompose(a2, (P1,), T2) == ((P1,), ())
    assert torsion_decompose(a2, (P1, S2), T2) == ((P1,), (S2,))


def test_ext_injectives(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    C = all_ids(a2)
    # injectives of the A2 module category: P1 (=injective envelope of S2) and S1
    assert ext_injectives(a2, C) == frozenset({P1, S1})
    assert ext_injectives(a2, frozenset({P1, S1})) == frozenset({P1, S1})


def test_search_bounds_are_read_at_call_time(monkeypatch):
    """A test varies a bound by monkeypatching its constant on a fresh
    backend, since memo keys do not carry the bound."""
    b = build_backend(QuiverSpec(2, ((0, 1),), 2))
    monkeypatch.setattr(core, "MULT_BOUND", 1)
    assert core.candidates(b.all_ids()) == [(i,) for i in b.all_ids()]
    monkeypatch.setattr(core, "MAX_SCAN_INDECS", 2)
    with pytest.raises(BackendError, match="too large"):
        enumerate_subcats(b)


def test_split_injective(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    assert split_injective_test(a2, all_ids(a2), S1)
    assert not split_injective_test(a2, all_ids(a2), S2)  # S2 -> P1 does not split


def test_tilting(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    W = all_ids(a2)
    assert is_tilting_in(a2, frozenset({P1, S1}), W)
    assert not is_tilting_in(a2, frozenset({S1}), W)  # S2 has no mono into S1-sums


def test_kernel_realizations(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    hits = list(kernel_realizations(a2, frozenset({P1, S1}), S2))
    assert hits  # S2 = ker(P1 -> S1)
    for src, tgt in hits:
        assert set(src) <= {P1, S1} and set(tgt) <= {P1, S1}
    assert not list(kernel_realizations(a2, frozenset({S1}), S2))


A4 = QuiverSpec(4, ((0, 1), (1, 2), (2, 3)), 2)
D4 = QuiverSpec(4, ((0, 3), (1, 3), (2, 3)), 2, (1, 1, 1, 2))  # vertex 3 is the centre
A5 = QuiverSpec(5, ((0, 1), (1, 2), (2, 3), (3, 4)), 2, (1,) * 5)


@pytest.mark.parametrize("spec, wides, tilting, narrow", [
    (A4, 42, 14, 90),  # A_n: Catalan(n + 1) wides, Catalan(n) tilting classes
    (D4, 50, 20, 120),
    (A5, 132, 42, 394),
])
def test_census_counts_without_the_scan(spec, wides, tilting, narrow):
    """Wide subcategories, tilting torsion classes of the whole category, and
    narrow subcategories counted as the sum over wides W of #tilting(W)."""
    b = build_backend(spec)
    assert not b.truncated
    census = wide_census(b)
    assert len(census) == wides
    assert len(tilting_census(b, b.all_ids())) == tilting
    assert sum(len(tilting_census(b, w)) for w in census) == narrow


def test_a5_is_beyond_the_subset_scan():
    b = build_backend(A5)
    assert len(b.indecs) == 15
    with pytest.raises(BackendError, match="too large"):
        enumerate_subcats(b, ("is_wide",))

