import functools
import hashlib
import io
import itertools
import json
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import left_perp_zero
from test_cli import DEDEKIND_ARGS, DEDEKIND_SEQUENCES, SYMBOLIC_STDOUT_SHA256
from tstructkit import cli, dedekind as dd
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


def is_subgroup(y, x):
    """Whether y embeds into x: rank at most the ambient rank (torsion must
    land in the torsion subgroup) and, per prime, the partition of y lies
    componentwise below the partition of x."""
    if y.rank > x.rank:
        return False
    for p in y.support | x.support:
        yp, xp = y.part(p), x.part(p)
        if len(yp) > len(xp):
            return False
        if any(a > b for a, b in zip(yp, xp)):
            return False
    return True


def test_is_subgroup():
    Z, Z4 = dd.free_group(), dd.cyclic(2, 2)
    assert is_subgroup(dd.cyclic(2, 1), Z4)
    assert not is_subgroup(Z4, dd.cyclic(2, 1))
    assert is_subgroup(Z, dd.free_group(2))
    assert not is_subgroup(Z.direct_sum(Z), Z)
    # torsion cannot embed into a free group
    assert not is_subgroup(dd.cyclic(2), dd.free_group(5))


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
            if is_subgroup(y, x):
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


def test_classes_marked_outside_the_prime_set_read_as_mod():
    """A class marks its primes modulo the prime set: marked only by 7, it
    holds every group with torsion at 2 and 3, which is the mod class, for
    the classifier as for the validator."""
    seven = dd.torsionfree_class({7})
    form = dd.ded_classify_sequence({0: seven}, below=dd.MOD, above=dd.MOD, primes=PRIMES)
    assert form == dd.CoNarrowSeq(dd.mod_class(), dd.POS_INF)
    assert dd.ded_co_narrow_validate({0: seven}, below=dd.MOD, above=dd.MOD, primes=PRIMES) == (True, [])
    form = dd.ded_classify_sequence({0: dd.MOD, 1: seven, 2: dd.ZERO}, primes=PRIMES)
    assert form.key() == (("maximals", ()), 1)
    assert form == dd.ded_classify_sequence({0: dd.MOD, 1: dd.MOD, 2: dd.ZERO}, primes=PRIMES)
    form = dd.ded_classify_sequence({0: dd.MOD, 1: dd.torsionfree_class({2, 7}), 2: dd.ZERO},
                                    primes=PRIMES)
    assert form.key() == (("maximals", (2,)), 1)


@pytest.mark.parametrize("entry", [dd.MOD, dd.ZERO, dd.FINITE_GROUPS, dd.mod_class(),
                                   dd.zero_class(), dd.torsionfree_class({2})])
def test_entry_membership_refuses_torsion_outside_the_prime_set(entry):
    """Tags and classes alike refuse a group with torsion outside the prime
    set, and accept Z/2 by their own rule."""
    with pytest.raises(BackendError, match="outside the configured prime set"):
        dd.entry_membership(entry, dd.cyclic(7), PRIMES)
    assert dd.entry_membership(entry, dd.cyclic(2), PRIMES) == (entry in (dd.MOD, dd.FINITE_GROUPS)
                                                                 or entry == dd.mod_class())


def validate_quickly(seq, **kwargs):
    """``ded_co_narrow_validate``, which must take under 0.2 s."""
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
# the searches that the closed form of ``ded_co_narrow_validate`` replaced:
# the loop validator, and the table validator that replaced it in turn

# The oracles re-derive every middle term they need; the memo only spares
# them the repeats, and ``ded_co_narrow_validate`` does not see it.
middle_term_types = functools.cache(dd.middle_term_types)


def subquotient_pairs(x, candidates):
    """Pairs (sub, quot) with 0 -> sub -> x -> quot -> 0 exact, both drawn
    from the candidate pool."""
    out = []
    for sub in candidates:
        if not is_subgroup(sub, x):
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
                if any(is_subgroup(quot, e) for e in dn):
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


def bits(mask):
    """The positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def middle_term_table(family):
    """``mids[i][j]``: the bitmask of the members of ``family`` (distinct
    groups) among ``middle_term_types(family[i], family[j])``.

    Those types are the groups of rank a.rank + b.rank whose p-part lies in
    ``_local_types(a_p, b_p, a.rank)`` at each prime p of a.support |
    b.support; any other prime contributes ``_local_types((), (), r) ==
    [()]``.  So a member m is one iff it has that rank and, at every prime
    p of the family's supports (which hold those of m, a and b), m_p lies
    in ``_local_types(a_p, b_p, a.rank)``: an AND of one rank mask with, per
    prime, an OR of p-part masks that depends on (p, a_p, b_p, a.rank)."""
    primes = sorted({p for x in family for p in x.support})
    parts = [[(p, x.part(p)) for p in primes] for x in family]
    masks = {}  # rank, or (prime, p-part) -> the members that have it
    for i, x in enumerate(family):
        for key in [x.rank, *parts[i]]:
            masks[key] = masks.get(key, 0) | 1 << i
    local = {}
    mids = []
    for a, a_parts in zip(family, parts):
        row = []
        for b, b_parts in zip(family, parts):
            mask = masks.get(a.rank + b.rank, 0)
            for (p, mu), (_, nu) in zip(a_parts, b_parts):
                key = (p, mu, nu, a.rank)
                if mask and key not in local:
                    # each member has one p-part, so this sum is an OR
                    local[key] = sum(masks.get((p, lam), 0) for lam in dd._local_types(*key[1:]))
                mask = mask and mask & local[key]
            row.append(mask)
        mids.append(row)
    return mids


@functools.cache
def family_tables(family):
    """What the table validator reads, for a tuple of distinct groups:
    ``mids`` (``middle_term_table``), ``pairs[x]`` (the (sub, quot) pairs
    of x within the family), ``subs[x]`` (the subs of x), ``quotient_of[q]``
    (the members with a quotient q) and ``embeds[q]`` (the members that q
    embeds into).  A short exact sequence 0 -> sub -> x -> quot -> 0 within
    the family is a bit x of ``mids[sub][quot]``: a middle term holds its
    sub (rank adds, and per prime the Littlewood-Richardson rule keeps mu
    inside lam), so no separate subgroup test is needed."""
    ids = range(len(family))
    mids = middle_term_table(list(family))
    pairs = [[] for _ in ids]
    for s in ids:
        for q in ids:
            for x in bits(mids[s][q]):
                pairs[x].append((s, q))
    subs, quotient_of = [0] * len(family), [0] * len(family)
    for x in ids:
        for s, q in pairs[x]:
            subs[x] |= 1 << s
            quotient_of[q] |= 1 << x
    embeds = [sum(1 << e for e in ids if is_subgroup(family[q], family[e])) for q in ids]
    return mids, pairs, subs, quotient_of, embeds


def validate_by_table(seq, below, above, primes, family):
    """The fast oracle of ``ded_co_narrow_validate``: the five tests of the
    loop validator, read off ``family_tables``."""
    ks = sorted(seq)
    lo, hi = ks[0], ks[-1]
    family = tuple(dict.fromkeys(family))
    ids = range(len(family))

    def value(k):
        if k < lo:
            return below
        if k > hi:
            return above
        return seq[k]

    members = {k: sum(1 << i for i in ids if dd.entry_membership(value(k), family[i], primes))
               for k in range(lo - 3, hi + 4)}
    mids, pairs, subs, quotient_of, embeds = family_tables(family)
    report = []
    for k in range(lo - 2, hi + 3):
        cur, up, dn = members[k], members[k + 1], members[k - 1]
        inside = bits(cur)
        if up & ~cur:
            report.append(f"sequence is increasing at degree {k}")
        if any(mids[a][b] & ~cur for a in inside for b in inside):
            report.append(f"level {k} is not closed under extensions")
        if any(subs[x] & ~cur for x in inside):
            report.append(f"level {k} is not closed under subobjects")
        # kernels of maps from level k into level k-1 stay at level k
        if any(not cur >> sub & 1 and embeds[quot] & dn
               for d in inside for sub, quot in pairs[d]):
            report.append(f"kernel condition fails at degree {k}")
        # cokernels of maps from level k+1 into level k stay at level k
        if any(not cur >> cok & 1 and quotient_of[img] & up
               for b in inside for img, cok in pairs[b]):
            report.append(f"cokernel condition fails at degree {k}")
    report = sorted(report)
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
        got = validate_by_table(seq, below, above, primes, family)
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
    """The table that ``validate_by_table`` reads, against the bitmasks of
    ``middle_term_types`` on every ordered pair of family members."""
    family = list(filter(keep, dd.ded_test_family(primes)))
    index = {x: i for i, x in enumerate(family)}
    want = [[sum(1 << index[m] for m in middle_term_types(a, b) if m in index) for b in family]
            for a in family]
    assert middle_term_table(family) == want


# ---------------------------------------------------------------------------
# the closed form against the table oracle

def vocabulary(primes):
    """Every kind of entry the CLI and the API accept over the prime set:
    its torsionfree classes, the three tags, and two classes marked by
    supports that leave the prime set."""
    return dd.ded_torsionfree_classes(primes) + [
        dd.MOD, dd.ZERO, dd.FINITE_GROUPS,
        dd.torsionfree_class({7}), dd.torsionfree_class(set(primes) | {7})]


def report_kinds(reports):
    return {re.sub(r"-?\d+", "k", line) for _, report in reports for line in report}


def assert_closed_form_equals_the_table(sample, primes, family):
    """Compare on (entries, below, above) triples; returns the reports."""
    reports = []
    for seq, below, above in sample:
        got = dd.ded_co_narrow_validate(seq, below, above, primes)
        assert got == validate_by_table(seq, below, above, primes, family), (seq, below, above)
        reports.append(got)
    return reports


def test_closed_form_equals_the_table_on_every_width_1_sequence():
    """All 512 sequences over the prime 3 of one entry and two tails drawn
    from the 8 entries of ``vocabulary``: every pair of adjacent levels."""
    primes = frozenset({3})
    entries = vocabulary(primes)
    sample = [({0: entry}, below, above)
              for entry, below, above in itertools.product(entries, repeat=3)]
    assert len(sample) == 512
    start = time.perf_counter()
    reports = assert_closed_form_equals_the_table(sample, primes, dd.ded_test_family(primes))
    assert time.perf_counter() - start < 10
    assert any(ok for ok, _ in reports)
    assert report_kinds(reports) == {"sequence is increasing at degree k",
                                     "cokernel condition fails at degree k"}


@pytest.mark.parametrize("primes", [frozenset({2, 3}), frozenset({2, 5})], ids=["2,3", "2,5"])
def test_closed_form_equals_the_table_on_seeded_samples(primes):
    """120 seeded sequences of widths 1-3 over two primes, where a class can
    hold some but not all of the Z/p."""
    entries = vocabulary(primes)
    rng = random.Random(f"closed-form:{sorted(primes)}")
    sample = []
    for _ in range(120):
        lo = rng.randint(-1, 1)
        sample.append(({k: rng.choice(entries) for k in range(lo, lo + rng.randint(1, 3))},
                       rng.choice(entries), rng.choice(entries)))
    start = time.perf_counter()
    reports = assert_closed_form_equals_the_table(sample, primes, dd.ded_test_family(primes))
    assert time.perf_counter() - start < 5
    assert any(ok for ok, _ in reports)
    assert report_kinds(reports) == {"sequence is increasing at degree k",
                                     "cokernel condition fails at degree k"}


def test_closed_form_equals_the_table_on_the_family_one_larger():
    """The family with rank and torsion length raised to 3 (196 groups) on
    every pivot form and 30 seeded sequences."""
    larger = dd.ded_test_family(PRIMES, max_rank=3, max_torsion=3)
    assert len(larger) == 196
    entries = vocabulary(PRIMES)
    rng = random.Random("family-bound")
    sample = [({k: cn.value_at(k) for k in range(-1, 2)}, dd.MOD, dd.ZERO)
              for cn in (dd.CoNarrowSeq(c, 0) for c in dd.ded_torsionfree_classes(PRIMES))]
    sample.append(({0: dd.MOD, 1: dd.FINITE_GROUPS, 2: dd.ZERO}, dd.MOD, dd.ZERO))
    for _ in range(30):
        lo = rng.randint(-1, 1)
        sample.append(({k: rng.choice(entries) for k in range(lo, lo + rng.randint(1, 3))},
                       rng.choice(entries), rng.choice(entries)))
    start = time.perf_counter()
    reports = assert_closed_form_equals_the_table(sample, PRIMES, larger)
    assert time.perf_counter() - start < 10
    assert all(ok for ok, _ in reports[:6]) and not all(ok for ok, _ in reports)


def test_closed_form_reads_no_family_and_no_middle_terms(monkeypatch, tmp_path):
    """With the test family and the middle-term computations made to raise,
    the validator still runs, and so does ``classify`` on every pinned
    Dedekind sequence file, with the pinned output."""
    def refuse(*args, **kwargs):
        raise AssertionError("the co-narrow validator reads no family and no middle terms")

    for name in ("ded_test_family", "middle_term_types", "_local_types"):
        monkeypatch.setattr(dd, name, refuse)
    assert validate_quickly({0: dd.MOD, 1: dd.FINITE_GROUPS, 2: dd.ZERO}) == (True, [])
    parser = cli.build_parser()
    for name, seq in DEDEKIND_SEQUENCES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(seq))
        out = io.StringIO()
        assert cli.cmd_classify(parser.parse_args(["classify", *DEDEKIND_ARGS, str(path)]), out) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == SYMBOLIC_STDOUT_SHA256["classify", "dedekind", name], name


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
