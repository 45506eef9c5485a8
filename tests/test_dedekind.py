import functools
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import left_perp_zero
from tstructkit import dedekind as dd
from tstructkit.quiver import BackendError

PRIMES = frozenset({2, 3})


def test_group_basics():
    g = dd.free_group(2).direct_sum(dd.cyclic(2, 3)).direct_sum(dd.cyclic(2, 1))
    assert g.rank == 2 and g.part(2) == (3, 1) and g.part(3) == ()
    assert g.support == frozenset({2})
    assert dd.FGGroup(0).is_zero
    with pytest.raises(BackendError):
        dd.FGGroup(-1)
    with pytest.raises(BackendError):
        dd.check_prime_set({4})


def test_hom_nonzero():
    Z, Z2, Z3 = dd.free_group(), dd.cyclic(2), dd.cyclic(3)
    assert dd.hom_nonzero(Z, Z2)
    assert not dd.hom_nonzero(Z2, Z)  # torsion has no map to a free group
    assert not dd.hom_nonzero(Z2, Z3)
    assert dd.hom_nonzero(Z2, Z2.direct_sum(Z))


def test_is_subgroup():
    Z, Z4 = dd.free_group(), dd.cyclic(2, 2)
    assert dd.is_subgroup(dd.cyclic(2, 1), Z4)
    assert not dd.is_subgroup(Z4, dd.cyclic(2, 1))
    assert dd.is_subgroup(Z, dd.free_group(2))
    assert not dd.is_subgroup(Z.direct_sum(Z), Z)
    # torsion cannot embed into a free group
    assert not dd.is_subgroup(dd.cyclic(2), dd.free_group(5))


def middle_term_types_per_pair(a, b):
    """``dd.middle_term_types`` as it was before ``dd._local_types``: the
    per-prime options, their product, then a sort and a pass that drops
    repeats."""
    primes = sorted(a.support | b.support)
    per_prime = []
    for p in primes:
        mu, nu = a.part(p), b.part(p)
        opts = set()
        for nu_cut in dd._quotients_by_few_generators(nu, a.rank):
            opts.update(dd.p_extension_types(mu, nu_cut))
        per_prime.append(sorted(opts))
    out = []
    for combo in itertools.product(*per_prime):
        tors = tuple((p, lam) for p, lam in zip(primes, combo) if lam)
        out.append(dd.FGGroup(a.rank + b.rank, tors))
    seen = set()
    uniq = []
    for x in sorted(out, key=lambda g: (g.rank, g.torsion)):
        if x not in seen:
            seen.add(x)
            uniq.append(x)
    return uniq


def test_middle_term_types_equal_the_per_pair_product():
    family = dd.ded_test_family(PRIMES)
    assert len(family) == 48
    for a in family:
        for b in family:
            assert dd.middle_term_types(a, b) == middle_term_types_per_pair(a, b), (a, b)


def test_middle_terms_of_p_group_extensions():
    Z2 = dd.cyclic(2)
    types = {g.part(2) for g in dd.middle_term_types(Z2, Z2)}
    assert types == {(1, 1), (2,)}
    # non-split type only: quotient Z/2 on sub Z/4 never splits off fully wrong
    types = {g.part(2) for g in dd.middle_term_types(dd.cyclic(2, 2), Z2)}
    assert (2, 1) in types and (3,) in types


def test_free_summand_absorption():
    # 0 -> Z -> Z -> Z/4 -> 0 realizes Z as a middle term
    mids = dd.middle_term_types(dd.free_group(), dd.cyclic(2, 2))
    keys = {(g.rank, g.torsion) for g in mids}
    assert (1, ()) in keys                      # the multiplication-by-4 extension
    assert (1, ((2, (2,)),)) in keys            # the split extension


def test_torsionfree_class_census():
    classes = dd.ded_torsionfree_classes(PRIMES)
    assert len(classes) == 2 ** len(PRIMES) + 1
    keys = {c.key() for c in classes}
    assert len(keys) == len(classes)
    assert sum(c.is_zero_class for c in classes) == 1
    assert sum(c.is_mod_class for c in classes) == 1


def test_membership_and_order_reversal():
    Z, Z2 = dd.free_group(), dd.cyclic(2)
    assert dd.ded_membership(Z, dd.mod_class(), PRIMES)
    assert not dd.ded_membership(Z2, dd.torsionfree_class({2}), PRIMES)
    assert dd.ded_membership(Z2, dd.torsionfree_class({3}), PRIMES)
    assert not dd.ded_membership(Z, dd.zero_class(), PRIMES)
    # larger support marks a smaller class
    family = dd.ded_test_family(PRIMES)
    small = dd.class_members(dd.torsionfree_class({2, 3}), family, PRIMES)
    big = dd.class_members(dd.torsionfree_class({2}), family, PRIMES)
    assert small < big


def test_every_nonzero_class_contains_the_ring():
    family = dd.ded_test_family(PRIMES)
    for c in dd.ded_torsionfree_classes(PRIMES):
        if not c.is_zero_class:
            assert dd.ded_membership(dd.free_group(), c, PRIMES)


def test_classes_are_exactly_perp_generated():
    family = dd.ded_test_family(PRIMES)
    want = {dd.class_members(c, family, PRIMES)
            for c in dd.ded_torsionfree_classes(PRIMES)}
    got = set(dd.perp_generated_classes(family))
    assert got == want


def test_finite_groups_are_sub_ext_closed_but_not_a_double_perp():
    family = dd.ded_test_family(PRIMES)
    finite = frozenset(x for x in family if x.rank == 0)
    # sub-closed within the family
    for x in finite:
        for y in family:
            if dd.is_subgroup(y, x):
                assert y.rank == 0
    # yet no torsionfree class: its double perp collapses to the zero class
    left = left_perp_zero(sorted(finite, key=lambda g: (g.rank, g.torsion)),
                             family)
    double = dd.right_perp_zero(sorted(left, key=lambda g: (g.rank, g.torsion)),
                                family)
    assert finite < double


def test_pivot_classification():
    c2 = dd.torsionfree_class({2})
    seq = {0: dd.MOD, 1: c2, 2: dd.ZERO}
    form = dd.ded_classify_sequence(seq, primes=PRIMES)
    assert isinstance(form, dd.CoNarrowSeq)
    assert form.n == 1 and form.cls.key() == c2.key()
    assert dd.ded_is_aisle(seq, primes=PRIMES)
    # roundtrip through value_at
    for k in range(-1, 4):
        assert dd.entry_membership(form.value_at(k), dd.free_group(), PRIMES) == \
            dd.entry_membership(seq.get(k, dd.MOD if k < 0 else dd.ZERO),
                                dd.free_group(), PRIMES)


def test_constant_mod_is_the_degenerate_pivot():
    form = dd.ded_classify_sequence({0: dd.MOD}, below=dd.MOD, above=dd.MOD,
                                    primes=PRIMES)
    assert isinstance(form, dd.CoNarrowSeq) and form.n == dd.POS_INF


def validate_quickly(seq, **kwargs):
    """``ded_co_narrow_validate`` over the full test family, which must take
    under 0.2 s."""
    start = time.perf_counter()
    out = dd.ded_co_narrow_validate(seq, **kwargs)
    assert time.perf_counter() - start < 0.2
    return out


def test_finite_length_entry_is_co_narrow_but_no_aisle():
    seq = {0: dd.MOD, 1: dd.FINITE_GROUPS, 2: dd.ZERO}
    out = dd.ded_classify_sequence(seq, primes=PRIMES)
    assert isinstance(out, dd.DedInvalid)
    ok, report = validate_quickly(seq, primes=PRIMES)
    assert ok, report


def test_co_narrow_validator_rejects_nonclosed_entries():
    seq = {0: dd.MOD, 1: dd.torsionfree_class({2}), 2: dd.torsionfree_class({3})}
    ok, report = validate_quickly(seq, primes=PRIMES)
    assert not ok  # entries must be nonincreasing
    assert report == ["cokernel condition fails at degree 1",
                      "sequence is increasing at degree 1"]


# ---------------------------------------------------------------------------
# the loop validator that the table of ``ded_co_narrow_validate`` replaced

# The oracle re-derives every middle term it needs; the memo only spares it
# the repeats, and ``ded_co_narrow_validate`` does not see it.
middle_term_types = functools.cache(dd.middle_term_types)


def subquotient_pairs(x, candidates):
    """Pairs (sub, quot) with 0 -> sub -> x -> quot -> 0 exact, both drawn
    from the candidate pool."""
    out = []
    for sub in candidates:
        if not dd.is_subgroup(sub, x):
            continue
        for quot in candidates:
            if quot.rank != x.rank - sub.rank:
                continue
            if x in middle_term_types(sub, quot):
                out.append((sub, quot))
    return out


def quotient_types(x, candidates):
    """Quotient types of x within the candidate pool."""
    return sorted({q for _, q in subquotient_pairs(x, candidates)},
                  key=lambda g: (g.rank, g.torsion))


def validate_by_search(seq, below, above, primes, family):
    """The oracle of ``ded_co_narrow_validate``: each test searches the
    subquotient pairs of the family again, level by level."""
    ks = sorted(seq)
    lo, hi = ks[0], ks[-1]

    def value(k):
        if k < lo:
            return below
        if k > hi:
            return above
        return seq[k]

    def members(k):
        return frozenset(x for x in family if dd.entry_membership(value(k), x, primes))

    report = []
    degrees = range(lo - 2, hi + 3)
    for k in degrees:
        if not members(k + 1) <= members(k):
            report.append(f"sequence is increasing at degree {k}")
    for k in degrees:
        cur, up, dn = members(k), members(k + 1), members(k - 1)
        for a in cur:
            for b in cur:
                for mid in middle_term_types(a, b):
                    if mid in family and mid not in cur:
                        report.append(f"level {k} is not closed under extensions")
                        break
                else:
                    continue
                break
            else:
                continue
            break
        for x in cur:
            for sub, _ in subquotient_pairs(x, family):
                if sub not in cur:
                    report.append(f"level {k} is not closed under subobjects")
                    break
            else:
                continue
            break
        # kernels of maps from level k into level k-1 stay at level k
        bad = False
        for d in cur:
            for sub, quot in subquotient_pairs(d, family):
                if sub in cur:
                    continue
                if any(dd.is_subgroup(quot, e) for e in dn):
                    report.append(f"kernel condition fails at degree {k}")
                    bad = True
                    break
            if bad:
                break
        # cokernels of maps from level k+1 into level k stay at level k
        bad = False
        for b in cur:
            for img, cok in subquotient_pairs(b, family):
                if cok in cur:
                    continue
                if any(img in quotient_types(a, family) for a in up):
                    report.append(f"cokernel condition fails at degree {k}")
                    bad = True
                    break
            if bad:
                break
    report = sorted(set(report))
    return (not report), report


def sample_sequences(primes, family, rng):
    """Valid sequences first (every pivot form, finite-groups levels, and a
    finite-groups level between ``MOD`` and zero), then sequences of random
    entries, and pivot and finite-groups sequences whose member sets lose or
    gain one member at one degree, as (entries, below, above)."""
    classes = dd.ded_torsionfree_classes(primes)
    valid = [({k: cn.value_at(k) for k in range(-1, 2)}, dd.MOD, dd.ZERO)
             for cn in (dd.CoNarrowSeq(c, rng.randint(-1, 1)) for c in classes)]
    valid.append(({0: dd.FINITE_GROUPS, 1: dd.FINITE_GROUPS}, dd.FINITE_GROUPS, dd.FINITE_GROUPS))
    valid.append(({0: dd.MOD, 1: dd.FINITE_GROUPS, 2: dd.ZERO}, dd.MOD, dd.ZERO))
    entries = classes + [dd.MOD, dd.ZERO, dd.FINITE_GROUPS]
    out = list(valid)
    for _ in range(4):
        lo = rng.randint(-1, 1)
        out.append(({k: rng.choice(entries) for k in range(lo, lo + rng.randint(1, 3))},
                    rng.choice(entries), rng.choice(entries)))
    for _ in range(30):
        seq, below, above = rng.choice(valid)
        levels = {k: frozenset(x for x in family if dd.entry_membership(v, x, primes))
                  for k, v in seq.items()}
        k = rng.choice(sorted(levels))
        levels[k] ^= {rng.choice(family)}
        out.append((levels, below, above))
    return out


@pytest.mark.parametrize("primes", [frozenset({2, 3}), frozenset({2, 5})], ids=["2,3", "2,5"])
def test_table_validator_equals_the_loop_validator(primes, monkeypatch):
    """On a seeded sample over the groups of rank <= 2 with at most one
    cyclic torsion summand: levels may also be explicit member sets, so that
    the closure and kernel tests, which every class and tag passes, are
    exercised too."""
    tagged = dd.entry_membership
    monkeypatch.setattr(dd, "entry_membership", lambda entry, x, primes:
                        x in entry if isinstance(entry, frozenset) else tagged(entry, x, primes))
    family = [g for g in dd.ded_test_family(primes) if sum(map(len, dict(g.torsion).values())) <= 1]
    sample = sample_sequences(primes, family, random.Random(f"validator:{sorted(primes)}"))
    reports = []
    for seq, below, above in sample:
        got = dd.ded_co_narrow_validate(seq, below, above, primes, family)
        assert got == validate_by_search(seq, below, above, primes, family), (seq, below, above)
        reports.append(got)
    assert all(ok for ok, _ in reports[:len(dd.ded_torsionfree_classes(primes)) + 2])
    assert {re.sub(r"-?\d+", "k", line) for _, report in reports for line in report} == {
        "sequence is increasing at degree k", "level k is not closed under extensions",
        "level k is not closed under subobjects", "kernel condition fails at degree k",
        "cokernel condition fails at degree k"}


def one_cyclic_summand(group):
    return sum(map(len, dict(group.torsion).values())) <= 1


@pytest.mark.parametrize("primes, keep", [
    (frozenset({2, 3}), None), (frozenset({2, 5}), None),
    (frozenset({2, 3}), one_cyclic_summand), (frozenset({2, 5}), one_cyclic_summand),
], ids=["2,3", "2,5", "2,3-one-summand", "2,5-one-summand"])
def test_middle_term_table_equals_the_per_pair_table(primes, keep):
    """The table that ``ded_co_narrow_validate`` reads, against the bitmasks
    of ``middle_term_types`` on every ordered pair of family members."""
    family = list(filter(keep, dd.ded_test_family(primes)))
    index = {x: i for i, x in enumerate(family)}
    want = [[sum(1 << index[m] for m in middle_term_types(a, b) if m in index) for b in family]
            for a in family]
    assert dd._middle_term_table(family) == want


def test_validator_reports_hold_on_the_family_one_larger():
    """The default test family (rank <= 2, at most 2 cyclic summands per
    prime) gives the same reports as the family with both bounds raised by
    one, on seeded sequences of the entries the CLI accepts."""
    larger = dd.ded_test_family(PRIMES, max_rank=3, max_torsion=3)
    assert len(larger) == 196
    rng = random.Random("family-bound")
    classes = dd.ded_torsionfree_classes(PRIMES)
    entries = classes + [dd.MOD, dd.ZERO, dd.FINITE_GROUPS]
    pivot = dd.CoNarrowSeq(rng.choice([c for c in classes if c.support.primes]),
                           rng.randint(-1, 1))
    sample = [({k: pivot.value_at(k) for k in range(-1, 2)}, dd.MOD, dd.ZERO),
              ({0: dd.MOD, 1: dd.FINITE_GROUPS, 2: dd.ZERO}, dd.MOD, dd.ZERO)]
    for _ in range(4):
        lo = rng.randint(-1, 1)
        sample.append(({k: rng.choice(entries) for k in range(lo, lo + rng.randint(1, 3))},
                       rng.choice(entries), rng.choice(entries)))
    start = time.perf_counter()
    reports = []
    for seq, below, above in sample:
        got = dd.ded_co_narrow_validate(seq, below, above, PRIMES, larger)
        assert got == dd.ded_co_narrow_validate(seq, below, above, PRIMES), (seq, below, above)
        reports.append(got)
    assert time.perf_counter() - start < 5
    assert reports[0][0] and reports[1][0] and not all(ok for ok, _ in reports)


def test_enumeration_counts():
    records, degenerate = dd.ded_enumerate_tstructures({2}, 0, 0)
    assert len(records) == 3 and len(degenerate) == 2
    records, degenerate = dd.ded_enumerate_tstructures(PRIMES, 0, 1)
    keys = {r.key() for r in records}
    assert len(keys) == len(records)
    # per extra degree: one pivot per nonzero class (2^2 = 4 of them)
    assert len(records) == 5 + 4


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_middle_terms_are_symmetric_for_finite_p_groups(data):
    parts = st.lists(st.integers(1, 3), min_size=0, max_size=2)
    a = dd.FGGroup(0, ((2, tuple(data.draw(parts))),))
    b = dd.FGGroup(0, ((2, tuple(data.draw(parts))),))
    # Hall: the middle-term types of (a, b) and (b, a) coincide
    left = {g.part(2) for g in dd.middle_term_types(a, b)}
    right = {g.part(2) for g in dd.middle_term_types(b, a)}
    assert left == right
