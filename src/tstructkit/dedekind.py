"""Desk-scale model of finitely generated abelian groups.

Groups are pairs (free rank, torsion partitions per prime) with torsion
supported on a fixed finite prime set.  Torsionfree classes correspond to
specialization-closed subsets of the spectrum; aisles are co-narrow
sequences with a single pivot degree.  Because the category has enough
projectives rather than enough injectives, sequence validation runs the
formal opposite of the narrow-sequence axioms.

Middle terms of short exact sequences (``middle_term_types``) work
prime-locally: extensions of finite p-groups are governed by
Littlewood-Richardson positivity, and free summands of the subgroup can
absorb a bounded-generator quotient of the torsion of the quotient group
(as in 0 -> Z -> Z -> Z/n -> 0).  The co-narrow validator needs none of
them: each sequence entry is the class fixed by which of Z and the Z/p it
holds, and ``ded_co_narrow_validate`` is a closed form on those, with its
proof.  The finite test family (``ded_test_family``) serves the class
checks of ``verify`` and the search oracles of the tests.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .quiver import BackendError, _is_int, _is_prime

DEFAULT_PRIMES = frozenset({2, 3})


def check_prime_set(primes) -> frozenset:
    primes = frozenset(int(p) for p in primes)
    if not primes or not all(_is_prime(p) for p in primes):
        raise BackendError("prime set must be a nonempty set of primes")
    return primes


# ---------------------------------------------------------------------------
# groups

@dataclass(frozen=True)
class FGGroup:
    """A finitely generated abelian group: free rank plus, per prime, the
    partition of exponents of its cyclic p-torsion summands."""

    rank: int = 0
    torsion: tuple = ()  # sorted ((prime, sorted-descending partition), ...)

    def __post_init__(self):
        if self.rank < 0:
            raise BackendError("rank must be nonnegative")
        tors = []
        items = self.torsion.items() if isinstance(self.torsion, dict) else self.torsion
        for p, parts in items:
            parts = tuple(sorted((int(x) for x in parts), reverse=True))
            if any(x <= 0 for x in parts):
                raise BackendError("torsion partition parts must be positive")
            if parts:
                tors.append((int(p), parts))
        object.__setattr__(self, "torsion", tuple(sorted(tors)))

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def support(self) -> frozenset:
        return frozenset(p for p, _ in self.torsion)

    def part(self, p: int) -> tuple:
        return dict(self.torsion).get(p, ())

    def direct_sum(self, other: "FGGroup") -> "FGGroup":
        tors = {p: list(parts) for p, parts in self.torsion}
        for p, parts in other.torsion:
            tors.setdefault(p, []).extend(parts)
        return FGGroup(self.rank + other.rank, tuple((p, tuple(v)) for p, v in tors.items()))


def free_group(rank: int = 1) -> FGGroup:
    return FGGroup(rank)


def cyclic(p: int, exponent: int = 1) -> FGGroup:
    return FGGroup(0, ((p, (exponent,)),))


def hom_nonzero(x: FGGroup, y: FGGroup) -> bool:
    """Hom(x, y) != 0 iff x has a free summand and y is nonzero, or the
    torsion supports meet."""
    if x.rank > 0 and not y.is_zero:
        return True
    return bool(x.support & y.support)


# ---------------------------------------------------------------------------
# extensions of finite p-groups: Littlewood-Richardson positivity

def _lr_positive(lam: tuple, mu: tuple, nu: tuple) -> bool:
    """Whether a p-group of type lam has a subgroup of type mu with
    quotient of type nu; by Hall's theorem this is Littlewood-Richardson
    positivity of c^lam_{mu,nu}, decided by searching for a lattice filling
    of the skew shape lam/mu with content nu."""
    if sum(lam) != sum(mu) + sum(nu):
        return False
    rows = len(lam)
    mu = tuple(mu) + (0,) * (rows - len(mu))
    if any(m > l for m, l in zip(mu, lam)):
        return False
    cells = [(r, c) for r in range(rows) for c in range(mu[r], lam[r])]
    cells.sort(key=lambda rc: (rc[0], -rc[1]))  # reading order: rows, right to left
    placed = [0] * len(nu)

    def fits(fill, r, c, v):
        # lattice word along the reading order (values stored 0-based)
        if v > 0 and placed[v] + 1 > placed[v - 1]:
            return False
        right = fill.get((r, c + 1))
        if right is not None and v > right:
            return False  # weakly increasing along rows
        up = fill.get((r - 1, c))
        if up is not None and up >= v:
            return False  # strictly increasing down columns
        return True

    def rec(i, fill):
        if i == len(cells):
            return True
        r, c = cells[i]
        for v in range(min(len(nu), r + 1)):
            if placed[v] == nu[v] or not fits(fill, r, c, v):
                continue
            placed[v] += 1
            fill[(r, c)] = v
            if rec(i + 1, fill):
                return True
            placed[v] -= 1
            del fill[(r, c)]
        return False

    return len(cells) == sum(nu) and rec(0, {})


def _partitions_up_to(total: int, max_part: int):
    def rec(total, max_part):
        if total == 0:
            yield ()
            return
        for first in range(min(total, max_part), 0, -1):
            for rest in rec(total - first, first):
                yield (first,) + rest
    yield from rec(total, max_part)


def p_extension_types(mu: tuple, nu: tuple):
    """All partition types of middle terms of a short exact sequence of
    finite p-groups with sub of type mu and quotient of type nu."""
    total = sum(mu) + sum(nu)
    top = (mu[0] if mu else 0) + (nu[0] if nu else 0)
    return [lam for lam in _partitions_up_to(total, max(top, 1) if total else 1)
            if _lr_positive(lam, mu, nu)]


def _quotients_by_few_generators(nu: tuple, r: int):
    """Quotient types of a p-group of type nu by a subgroup needing at most
    r generators: componentwise-smaller partitions shrinking at most r
    parts."""
    nu = tuple(nu)
    out = set()
    for cut in itertools.product(*(range(part + 1) for part in nu)):
        if sum(1 for c, part in zip(cut, nu) if c < part) > r:
            continue
        q = tuple(sorted((c for c in cut if c), reverse=True))
        out.add(q)
    return sorted(out)


def _local_types(mu: tuple, nu: tuple, r: int) -> list:
    """The p-parts of the middle terms of extensions of a quotient with
    p-part nu by a sub of free rank r with p-part mu."""
    return sorted({lam for nu_cut in _quotients_by_few_generators(nu, r)
                   for lam in p_extension_types(mu, nu_cut)})


def middle_term_types(a: FGGroup, b: FGGroup):
    """Isomorphism types of middle terms X of extensions 0 -> a -> X -> b -> 0.

    The free rank of b splits off; free summands of a may absorb a quotient
    of b's torsion generated by at most rank(a) elements; the remaining
    torsion extends prime-locally by the Littlewood-Richardson rule."""
    primes = sorted(a.support | b.support)
    per_prime = [_local_types(a.part(p), b.part(p), a.rank) for p in primes]
    return sorted((FGGroup(a.rank + b.rank, tuple(zip(primes, combo)))
                   for combo in itertools.product(*per_prime)),
                  key=lambda g: (g.rank, g.torsion))


# ---------------------------------------------------------------------------
# torsionfree classes

MAXIMALS, ALLSPEC = "maximals", "all"


@dataclass(frozen=True)
class SpecClosedSet:
    """A specialization-closed subset of the spectrum: a set of closed
    points (maximal ideals), labelled by primes and refused unless each
    label is a prime int, or the whole spectrum."""

    tag: str
    primes: frozenset = frozenset()

    def __post_init__(self):
        if self.tag not in (MAXIMALS, ALLSPEC):
            raise BackendError(f"unknown spectrum tag {self.tag!r}")
        for p in self.primes:
            if not (_is_int(p) and _is_prime(p)):
                raise BackendError("support labels are prime integers, "
                                   f"got {json.dumps(p, default=repr)}")
        object.__setattr__(self, "primes", frozenset(self.primes))

    def key(self):
        return (self.tag, tuple(sorted(self.primes)))


@dataclass(frozen=True)
class TorsionFreeClass:
    """The torsionfree class with the given support of its right
    perpendicular: the whole spectrum marks the zero class, a set of closed
    points P marks the groups whose torsion avoids P."""

    support: SpecClosedSet

    def key(self):
        return self.support.key()

    @property
    def is_zero_class(self) -> bool:
        return self.support.tag == ALLSPEC

    @property
    def is_mod_class(self) -> bool:
        return self.support.tag == MAXIMALS and not self.support.primes

    def to_json_dict(self):
        if self.is_zero_class:
            return {"support": "all"}
        return {"support": sorted(self.support.primes)}


def mod_class() -> TorsionFreeClass:
    return TorsionFreeClass(SpecClosedSet(MAXIMALS))


def zero_class() -> TorsionFreeClass:
    return TorsionFreeClass(SpecClosedSet(ALLSPEC))


def torsionfree_class(primes) -> TorsionFreeClass:
    return TorsionFreeClass(SpecClosedSet(MAXIMALS, primes))


def ded_membership(x: FGGroup, c: TorsionFreeClass, primes=DEFAULT_PRIMES) -> bool:
    """Membership in a torsionfree class: torsion support disjoint from the
    marked closed points; the zero class contains only zero."""
    primes = check_prime_set(primes)
    if not x.support <= primes:
        raise BackendError("group has torsion outside the configured prime set")
    if c.is_zero_class:
        return x.is_zero
    return not (x.support & c.support.primes)


def ded_torsionfree_classes(primes=DEFAULT_PRIMES):
    """One torsionfree class per specialization-closed subset: all subsets
    of the prime set, then the whole spectrum (the zero class); count is
    2^|primes| + 1."""
    primes = sorted(check_prime_set(primes))
    out = []
    for r in range(len(primes) + 1):
        for combo in itertools.combinations(primes, r):
            out.append(torsionfree_class(combo))
    out.append(zero_class())
    return out


def ded_test_family(primes=DEFAULT_PRIMES, max_rank: int = 2, max_torsion: int = 2):
    """Generating test family: all groups with rank <= max_rank and torsion
    length <= max_torsion per prime."""
    primes = sorted(check_prime_set(primes))
    per_prime = [list(itertools.chain.from_iterable(
        _partitions_up_to(t, max_torsion) for t in range(max_torsion + 1)))
        for _ in primes]
    per_prime = [sorted(set(parts)) for parts in per_prime]
    out = []
    for rank in range(max_rank + 1):
        for combo in itertools.product(*per_prime):
            tors = tuple((p, parts) for p, parts in zip(primes, combo) if parts)
            out.append(FGGroup(rank, tors))
    return sorted(set(out), key=lambda g: (g.rank, g.torsion))


def right_perp_zero(objs, family):
    """Family members with vanishing Hom out of every listed object."""
    return frozenset(x for x in family if not any(hom_nonzero(g, x) for g in objs))


def class_members(c: TorsionFreeClass, family, primes=DEFAULT_PRIMES) -> frozenset:
    return frozenset(x for x in family if ded_membership(x, c, primes))


def perp_generated_classes(family):
    """All subcategories of the family arising as right perpendiculars:
    single-object perpendiculars closed under intersection, plus the whole
    family.  These are exactly the torsionfree classes."""
    basics = {right_perp_zero([g], family) for g in family if not g.is_zero}
    classes = {frozenset(family)}
    frontier = set(basics)
    while frontier:
        classes |= frontier
        frontier = {a & b for a in classes for b in classes} - classes
    return sorted(classes, key=lambda s: (len(s), sorted(g.rank for g in s)))


# ---------------------------------------------------------------------------
# co-narrow sequences

MOD, ZERO, FINITE_GROUPS = "mod", "zero", "finite-groups"

NEG_INF = float("-inf")
POS_INF = float("inf")


def entry_membership(entry, x: FGGroup, primes=DEFAULT_PRIMES) -> bool:
    """Membership for a sequence entry: a torsionfree class, or one of the
    tags 'mod' (everything), 'zero', 'finite-groups' (rank zero); each
    refuses a group with torsion outside the prime set."""
    if isinstance(entry, TorsionFreeClass):
        return ded_membership(x, entry, primes)
    if entry == MOD:
        return ded_membership(x, mod_class(), primes)
    if entry == ZERO:
        return ded_membership(x, zero_class(), primes)
    if entry == FINITE_GROUPS:
        return ded_membership(x, mod_class(), primes) and x.rank == 0
    raise BackendError(f"unknown sequence entry {entry!r}")


@dataclass(frozen=True)
class CoNarrowSeq:
    """Normal form of an aisle: the whole module category below the pivot
    degree n, a nonzero torsionfree class at n, zero above; n = +inf and
    n = -inf mark the two degenerate structures."""

    cls: TorsionFreeClass
    n: object  # int or +-inf

    def key(self):
        return (self.cls.key(), self.n)

    def value_at(self, k: int):
        if k < self.n:
            return MOD
        if k == self.n:
            return self.cls
        return ZERO

    def to_json_dict(self):
        n = {NEG_INF: "-inf", POS_INF: "+inf"}.get(self.n, self.n)
        return {"class": self.cls.to_json_dict(), "pivot": n}


@dataclass(frozen=True)
class DedInvalid:
    reason: str


def ded_classify_sequence(seq: dict, below=MOD, above=ZERO, primes=DEFAULT_PRIMES):
    """Match a windowed sequence (constant tails, by default the whole
    category below and zero above) against the pivot normal form.  Returns
    a CoNarrowSeq or DedInvalid naming the violated zone.  A class marks
    its primes modulo the prime set: the groups carry no torsion at the
    others, so a class marked only there is the mod class."""
    ks = sorted(seq)
    if not ks or ks != list(range(ks[0], ks[-1] + 1)):
        raise BackendError("sequence window must be a contiguous degree range")
    lo, hi = ks[0], ks[-1]
    primes = check_prime_set(primes)

    def norm(e):
        if e == MOD:
            return mod_class()
        if e == ZERO:
            return zero_class()
        if isinstance(e, TorsionFreeClass) and not e.is_zero_class:
            return torsionfree_class(e.support.primes & primes)
        return e

    values = {k: norm(seq[k]) for k in ks}
    values[lo - 1] = norm(below)
    values[hi + 1] = norm(above)
    for v in values.values():
        if not isinstance(v, TorsionFreeClass):
            return DedInvalid("sequence entry is not a torsionfree class")
    if values[lo - 1].is_zero_class and all(values[k].is_zero_class for k in ks):
        return CoNarrowSeq(mod_class(), NEG_INF)
    if values[hi + 1].is_mod_class and all(values[k].is_mod_class for k in ks):
        return CoNarrowSeq(mod_class(), POS_INF)
    if not values[hi + 1].is_zero_class:
        return DedInvalid("the zone above the pivot must be zero")
    if not values[lo - 1].is_mod_class:
        return DedInvalid("the zone below the pivot must be the whole module category")
    nonzero = [k for k in ks if not values[k].is_zero_class]
    if not nonzero:
        return CoNarrowSeq(mod_class(), lo - 1)
    n = max(nonzero)
    for k in ks:
        if k < n and not values[k].is_mod_class:
            return DedInvalid("the zone below the pivot must be the whole module category")
    return CoNarrowSeq(values[n], n)


def ded_is_aisle(seq: dict, below=MOD, above=ZERO, primes=DEFAULT_PRIMES) -> bool:
    """A sequence is an aisle exactly when it matches the pivot normal
    form."""
    return isinstance(ded_classify_sequence(seq, below, above, primes), CoNarrowSeq)


def ded_co_narrow_validate(seq: dict, below=MOD, above=ZERO, primes=DEFAULT_PRIMES):
    """Validate the formal opposite of the narrow-sequence axioms at the
    degrees lo-2..hi+2: entries nonincreasing, each closed under extensions
    and subobjects (hence kernels), kernels of maps from level k into level
    k-1 staying at level k, cokernels of maps from level k+1 into level k
    staying at level k.  Returns (ok, report).

    Every entry is a class L(f, S): the groups whose torsion lies at primes
    in S and whose rank is 0 unless f.  The zero class and ``ZERO`` are
    L(no, {}), ``FINITE_GROUPS`` is L(no, primes), ``MOD`` is L(yes, primes)
    and ``torsionfree_class(P)`` is L(yes, primes - P).  So f says whether Z
    is a member and S which Z/p are, and each level is read that way.  With
    L(f, S) at k and L(f', S') at k+1, the sequence is increasing at k iff
    f' and not f, or S' is not inside S; the cokernel condition fails at k
    iff f' and f and S != primes.  No other test can fail.

    Proof.  L(f, S) is closed under subgroups (a subgroup of a finite group
    is finite, with torsion at primes dividing its order) and under
    extensions (in 0 -> A -> X -> B -> 0, rank X = rank A + rank B, and
    tors X / tors A embeds into tors B).  So the extension and subobject
    tests never fail, and neither does the kernel test, whose kernel is a
    subgroup of a level-k member.  Increasing: L(f', S') is inside L(f, S)
    unless Z or some Z/p with p in S' - S witnesses otherwise.  Cokernel:
    let b in L(f, S) have a subgroup I that is a quotient of a member of
    L(f', S'), with b/I outside L(f, S).  If not f, b is finite with torsion
    at S, and so is b/I; hence f.  Write b = Z^r + T; if I were finite,
    b/I = Z^r + T/I would lie in L(f, S), so I has positive rank, and so
    has any group mapping onto it: f'.  And b/I has torsion at a prime of
    the prime set outside S, so S != primes.  Conversely, given f, f' and a
    prime p outside S, Z --p--> Z has image Z in L(f', S') and cokernel Z/p
    outside L(f, S).

    The witnesses Z and Z/p lie in every test family (``ded_test_family``),
    so the verdict equals the search over any family and over all finitely
    generated groups with torsion at the prime set.  ``tests/test_dedekind.py``
    keeps that search as the oracle."""
    ks = sorted(seq)
    if not ks or ks != list(range(ks[0], ks[-1] + 1)):
        raise BackendError("sequence window must be a contiguous degree range")
    lo, hi = ks[0], ks[-1]
    primes = check_prime_set(primes)

    def level(k):  # (f, S) of the entry at degree k
        entry = below if k < lo else above if k > hi else seq[k]
        return (entry_membership(entry, free_group(), primes),
                frozenset(p for p in primes if entry_membership(entry, cyclic(p), primes)))

    levels = {k: level(k) for k in range(lo - 2, hi + 4)}
    report = []
    for k in range(lo - 2, hi + 3):
        (f, s), (f_up, s_up) = levels[k], levels[k + 1]
        if f_up > f or not s_up <= s:
            report.append(f"sequence is increasing at degree {k}")
        if f_up and f and s != primes:
            report.append(f"cokernel condition fails at degree {k}")
    report = sorted(report)
    return (not report), report


def ded_enumerate_tstructures(primes=DEFAULT_PRIMES, lo: int = 0, hi: int = 0):
    """All aisles visible on the window: per degree one pivot record per
    torsionfree class (the zero-class pivot encodes the boundary shift and
    is kept only at the bottom degree, where it is not a duplicate), plus
    the two degenerate structures."""
    classes = ded_torsionfree_classes(primes)
    records = []
    for n in range(lo, hi + 1):
        for c in classes:
            if c.is_zero_class and n > lo:
                continue  # same aisle as the mod-class pivot at n - 1
            records.append(CoNarrowSeq(c, n))
    degenerate = [CoNarrowSeq(mod_class(), POS_INF), CoNarrowSeq(mod_class(), NEG_INF)]
    return records, degenerate
