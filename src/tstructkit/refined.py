"""Refined t-sequences and the bijection with aisles.

An aisle (stored as a narrow SubcatSeq) is cut up into a refined
t-sequence: a nondecreasing chain of wide subcategories f(n) plus a tilting
torsion class t_f(n) inside each perpendicular gap f(n) cap perp f(n-1).
The inverse map glues the pieces back; its degreewise closed form is
cross-checked against a star-product oracle that replays the iterated
approximant construction literally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import core, derived
from .quiver import BackendError


@dataclass(frozen=True)
class RefinedTSeq:
    """Windowed refined t-sequence.

    f is zero below the window and constant equal to f(hi) above it; tf is
    zero below the window and tf_above above it.  On a valid sequence
    tf_above is zero, since it lies in the gap f(hi) cap perp f(hi) = 0;
    ``xi`` makes it nonzero only when the aisle's above-tail leaves the
    wide closure of its value at hi, which ``validate_refined`` reports."""

    lo: int
    hi: int
    f: tuple   # wide Subcat per degree lo..hi
    tf: tuple  # tilting torsion class per degree lo..hi
    tf_above: frozenset = frozenset()

    def __post_init__(self):
        if self.hi < self.lo or len(self.f) != self.hi - self.lo + 1 or len(self.tf) != len(self.f):
            raise BackendError("window and entry lengths disagree")
        object.__setattr__(self, "f", tuple(frozenset(x) for x in self.f))
        object.__setattr__(self, "tf", tuple(frozenset(x) for x in self.tf))
        object.__setattr__(self, "tf_above", frozenset(self.tf_above))

    def f_at(self, n):
        if n < self.lo:
            return frozenset()
        if n > self.hi:
            return self.f[-1]
        return self.f[n - self.lo]

    def tf_at(self, n):
        if n < self.lo:
            return frozenset()
        if n > self.hi:
            return self.tf_above
        return self.tf[n - self.lo]

    def key(self):
        return (self.lo, self.hi, tuple(tuple(sorted(x)) for x in self.f),
                tuple(tuple(sorted(x)) for x in self.tf), tuple(sorted(self.tf_above)))

    def to_json_dict(self):
        return {"lo": self.lo, "hi": self.hi,
                "f": [sorted(x) for x in self.f],
                "tf": [sorted(x) for x in self.tf],
                "tf_above": sorted(self.tf_above)}


def gap(backend, w_cur, w_prev) -> frozenset:
    """The perpendicular gap: w_cur cap perp(w_prev) (Hom and Ext vanishing)."""
    return core.perp(backend, w_prev, "left", "all", universe=w_cur)


def xi(backend, u: derived.SubcatSeq) -> RefinedTSeq:
    """Cut an aisle into a refined t-sequence: f(n) is the wide closure
    ``core.wide_closure`` of the degree-n value, and t_f(n) its gap over
    f(n-1), for n = lo..hi and for the above-tail at hi + 1."""
    ok, report = derived.is_narrow_sequence(backend, u)
    if not ok:
        raise BackendError("xi needs a narrow sequence; " + "; ".join(report))
    wide = [core.wide_closure(backend, u.at(n)) for n in range(u.lo - 1, u.hi + 1)]
    tf = [gap(backend, u.at(n), w) for n, w in zip(range(u.lo, u.hi + 2), wide)]
    return RefinedTSeq(u.lo, u.hi, wide[1:], tf[:-1], tf[-1])


def psi(backend, r: RefinedTSeq) -> derived.SubcatSeq:
    """Glue a refined t-sequence back into an aisle, degreewise: the value
    at k is the torsion class that t_f(k) together with f(k-1) generates
    in f(k), ``core.generated_torsion``, and the above-tail is the same
    with f and t_f at hi + 1.

    That is the closure of t_f(k) and f(k-1) under quotients and extensions
    taken inside f(k), keeping only what lies in f(k): f(k) is wide, so the
    proof of ``generated_torsion`` applies.  The tests check it against that
    closure, searched over bounded sums inside f(k)."""

    def value(k):
        return core.generated_torsion(backend, r.tf_at(k) | r.f_at(k - 1), r.f_at(k))

    entries = tuple(value(k) for k in range(r.lo, r.hi + 1))
    return derived.SubcatSeq(r.lo, r.hi, entries, frozenset(), value(r.hi + 1))


def validate_refined(backend, r: RefinedTSeq):
    """Check all refined t-sequence invariants; returns (ok, report).

    The torsion and tilting tests of t_f(n) read the Hom and Ext matrices
    and hold for a wide gap; a gap of wide f(n-1) within wide f(n) is
    wide, and a non-wide f(n) is reported first."""
    report = []
    for n in range(r.lo, r.hi + 1):
        w = r.f_at(n)
        if not core.classify_subcat(backend, w).is_wide:
            report.append(f"f({n}) is not wide")
        if not r.f_at(n - 1) <= w:
            report.append(f"f is decreasing at degree {n}")
    for n in range(r.lo, r.hi + 2):
        t = r.tf_at(n)
        g = gap(backend, r.f_at(n), r.f_at(n - 1))
        if not t <= g:
            report.append(f"t_f({n}) is not inside f({n}) cap perp f({n - 1})")
            continue
        if core.generated_torsion(backend, t, g) != t:
            report.append(f"t_f({n}) is not a nullity class in its gap")
        if not core.is_tilting_in(backend, t, g):
            report.append(f"t_f({n}) is not tilting in its gap")
    return (not report), report


def enumerate_refined(backend, lo, hi):
    """All refined t-sequences on the window (zero below, constant above),
    in deterministic order.  The wide subcategories and the tilting torsion
    classes of each gap come from ``core.wide_census`` and
    ``core.tilting_census``."""
    wides = core.wide_census(backend)
    results = []

    def rec(chain):
        if len(chain) == hi - lo + 1:
            gaps = [gap(backend, w, prev) for w, prev in zip(chain, [frozenset()] + chain)]
            for tfs in itertools.product(*(core.tilting_census(backend, g) for g in gaps)):
                results.append(RefinedTSeq(lo, hi, chain, tfs))
            return
        prev = chain[-1] if chain else frozenset()
        for w in wides:
            if prev <= w:
                rec(chain + [w])

    rec([])
    results.sort(key=lambda r: r.key())
    return results


# ---------------------------------------------------------------------------
# the star-product oracle for psi

def _level_seq(backend, r: RefinedTSeq, m: int) -> derived.SubcatSeq:
    """The one-level preaisle: zero below m, t_f(m) at m, the gap above."""
    g = gap(backend, r.f_at(m), r.f_at(m - 1))
    return derived.SubcatSeq(m, m, (r.tf_at(m),), frozenset(), g)


def star_oracle_membership(backend, r: RefinedTSeq, n: int, m: int, x: dict,
                           memo=None) -> bool:
    """Membership in the approximant V(n, m), replaying the construction
    V(n,n) = V^(n) * T(n-1), V(n,m+1) = V^(m+1) * V(n,m) by exhaustive
    triangle search; T(n-1) is everything with homologies in f(n-1).

    Every search is pruned by the right factor's envelope: a homology of R
    outside f(m-1) is skipped at the degree where it is chosen.  Write D_W
    for the complexes with every homology in W.  Then V(n, m) lies in
    D_f(m), so every member of the right factor V(n, m-1) has its
    homology in f(m-1), and at m == n the envelope is T(n-1) itself:
    - V^(m) lies in D_f(m), since t_f(m) lies in the gap, inside f(m);
    - T(n-1) = D_f(n-1) lies in D_f(n);
    - in a triangle L -> X -> R each homology of X is an extension of a
      cokernel of a map into a homology of L by a kernel of a map out of a
      homology of R; a wide W is closed under all three, so L and R in
      D_W put X in D_W (D_W is thick: Bruning 2007, *Thick subcategories
      of the derived category of a hereditary algebra*);
    - by induction on m, f being nondecreasing, V(n, m) lies in D_f(m).
    This reads only that f is wide and nondecreasing, which
    ``validate_refined`` checks, and never the glue formula: the recursive
    factor is still decided by a leaf call, and only choices that
    provably fail it are skipped."""
    def in_t(y):  # zero homologies lie in every subcategory: no need to normalise
        return all(core.obj_in(r.f_at(n - 1), yk) for yk in y.values())

    if m < n:
        return in_t(x)
    x = derived.dobj(x)
    if memo is None:
        memo = {}
    key = (n, m, derived.dobj_key(x))
    if key in memo:
        return memo[key]
    left = _level_seq(backend, r, m)

    if m == n:  # the right factor is T(n-1): answered here, not by a call
        rmember = in_t
    else:
        def rmember(b):
            return star_oracle_membership(backend, r, n, m - 1, b, memo)

    f_prev = r.f_at(m - 1)

    def envelope(k, obj):
        return core.obj_in(f_prev, obj)

    hi = max([m, r.hi] + list(x)) + 1
    ans = derived.star_membership(backend, left, rmember, x, lo=min(n, r.lo), hi=hi,
                                  envelope=envelope)
    memo[key] = ans
    return ans


# ---------------------------------------------------------------------------
# records, enumeration, roundtrips

@dataclass(frozen=True)
class TStructRecord:
    backend_id: str
    window: tuple
    sequence: derived.SubcatSeq
    refined: RefinedTSeq
    checks: tuple      # ((check name, bool), ...) in a fixed order

    def to_json_dict(self):
        return {"backend": self.backend_id, "window": list(self.window),
                "sequence": self.sequence.to_json_dict(),
                "refined": self.refined.to_json_dict(), "checks": dict(self.checks)}


def enumerate_tstructures(backend, lo, hi, backend_id="quiver"):
    """All t-structures on the window of a finite quiver backend, glued
    from the refined t-sequences: ``psi`` of each ``enumerate_refined``
    sequence, paired with it, in the order of the aisles' keys.  psi is a
    bijection onto the narrow sequences with zero below-tail and wide
    above-tail (``verify_roundtrips`` checks both directions), and each of
    those is an aisle at finite length.  The narrow-sequence scan
    (``derived.enumerate_narrow_sequences`` with ``xi``) is the oracle."""
    checks = (("narrow-sequence", True), ("is-aisle", True))
    records = [TStructRecord(backend_id, (lo, hi), psi(backend, r), r, checks)
               for r in enumerate_refined(backend, lo, hi)]
    records.sort(key=lambda rec: rec.sequence.key())
    return records


def verify_roundtrips(backend, lo, hi):
    """Check psi(xi(U)) = U on every enumerated aisle and xi(psi(r)) = r on
    every enumerated refined t-sequence; returns a report dict.  A sequence
    that ``xi`` refuses is a failure of its roundtrip, recorded with the
    refusal's message."""
    failures = []
    aisles = derived.enumerate_narrow_sequences(backend, lo, hi)
    for u in aisles:
        try:
            cut = xi(backend, u)
        except BackendError as exc:
            failures.append(("psi-xi", u.key(), str(exc)))
            continue
        v = psi(backend, cut)
        if v.key() != u.key():
            failures.append(("psi-xi", u.key(), v.key()))
    refineds = enumerate_refined(backend, lo, hi)
    for r in refineds:
        ok, rep = validate_refined(backend, r)
        if not ok:
            failures.append(("refined-invalid", r.key(), tuple(rep)))
            continue
        glued = psi(backend, r)
        try:
            r2 = xi(backend, glued)
        except BackendError as exc:
            failures.append(("xi-psi", r.key(), str(exc)))
            continue
        if r2.key() != r.key():
            failures.append(("xi-psi", r.key(), r2.key()))
    return {"aisles": len(aisles), "refined": len(refineds), "failures": failures}
