"""Refined t-sequences and the bijection with aisles.

An aisle (stored as a narrow SubcatSeq) is cut up into a refined
t-sequence: a nondecreasing chain of wide subcategories f(n) plus a tilting
torsion class t_f(n) inside each perpendicular gap f(n) cap perp f(n-1).
The inverse map glues the pieces back; its degreewise closed form is
cross-checked against a star-product oracle that replays the iterated
approximant construction literally.  A sequence is narrow exactly when its
cut is valid and glues back to it (``narrow_cut``).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from . import core, derived
from .quiver import BackendError


@dataclass(frozen=True)
class RefinedTSeq:
    """Windowed refined t-sequence: f and tf hold the masks of f(lo) ..
    f(hi) and t_f(lo) .. t_f(hi).

    f is zero below the window and constant equal to f(hi) above it; tf is
    zero outside the window.  That is no restriction: above the window t_f
    lies in the gap f(hi) cap perp f(hi), which is zero."""

    lo: int
    hi: int
    f: tuple   # wide subcategory per degree lo..hi
    tf: tuple  # tilting torsion class per degree lo..hi

    def __post_init__(self):
        if self.hi < self.lo or len(self.f) != self.hi - self.lo + 1 or len(self.tf) != len(self.f):
            raise BackendError("window and entry lengths disagree")

    def f_mask(self, n):
        if n < self.lo:
            return 0
        return self.f[n - self.lo] if n <= self.hi else self.f[-1]

    def tf_mask(self, n):
        return self.tf[n - self.lo] if self.lo <= n <= self.hi else 0

    def key(self):
        return self.lo, self.hi, tuple(map(core.members, self.f)), tuple(map(core.members, self.tf))

    def to_json_dict(self):
        # "tf_above" is the zero tail of t_f, kept so the JSON keeps its shape
        return {"lo": self.lo, "hi": self.hi,
                "f": [list(core.members(x)) for x in self.f],
                "tf": [list(core.members(x)) for x in self.tf],
                "tf_above": []}


def gap(backend, w_cur: int, w_prev: int) -> int:
    """The perpendicular gap of two masks: w_cur cap perp(w_prev) (Hom and
    Ext vanishing)."""
    return core.perp(backend, w_prev, "left", "all", universe=w_cur)


def narrow_cut(backend, u: derived.SubcatSeq):
    """Decide whether u is a narrow sequence: returns (cut, report), and u
    is narrow iff the report is empty.

    The cut of u on [lo, hi] is f(n) = ``core.wide_closure`` of N(n) and
    t_f(n) = N(n) cap perp f(n-1).  u is narrow iff that cut is valid
    (``validate_refined``) and ``psi`` glues it back to u.  psi is a
    bijection from the refined t-sequences onto the narrow sequences with
    zero below-tail, and the cut is its inverse (the paper's main theorem).
    So a narrow u has a valid cut that glues back to u, and a u that a
    valid cut glues back to is narrow, being a value of psi.  The cut must
    see the whole of u: if the above-tail A is not the wide closure of
    N(hi), the window is widened by one degree with A at hi + 1, which is
    the same Z-indexed sequence.  Then A = N(hi) is wide, and above the
    window f is A and t_f is A cap perp A = 0, as a refined t-sequence
    has it.  psi glues zero below the window, so a nonzero below-tail is
    reported as a glued value that differs at lo - 1.  The report also
    names each degree where u decreases.  Every step reads only the Hom
    and Ext matrices."""
    core.check_ids(backend, core.members(functools.reduce(operator.or_, u.masks)))
    lo, hi = u.lo, u.hi
    below, *entries, above = u.masks
    if above != core.wide_closure(backend, entries[-1]):
        hi += 1
        entries.append(above)
    seq = [below, *entries, above]  # N(lo - 1) .. N(hi + 1)
    f = [core.wide_closure(backend, e) for e in entries]
    r = RefinedTSeq(lo, hi, tuple(f), tuple(gap(backend, e, w) for e, w in zip(entries, [0, *f])))
    glued = [0, *_glue(backend, r), f[-1]]
    report = [f"monotonicity fails at degree {k}: N({k}) not within N({k + 1})"
              for k, (a, b) in enumerate(zip(seq, seq[1:]), lo - 1) if a & ~b]
    report += validate_refined(backend, r)[1] + [
        f"the cut glues to another N({k})" for k, (a, b) in enumerate(zip(glued, seq), lo - 1) if a != b]
    return r, report


def xi(backend, u: derived.SubcatSeq) -> RefinedTSeq:
    """Cut a narrow sequence into its refined t-sequence, the inverse of
    ``psi``: the cut of ``narrow_cut``, on the window of u, or on one more
    degree where the above-tail of u is not the wide closure of N(hi).  A
    sequence that is not narrow is refused with the reasons."""
    r, report = narrow_cut(backend, u)
    if report:
        raise BackendError("xi needs a narrow sequence; " + "; ".join(report))
    return r


def psi(backend, r: RefinedTSeq) -> derived.SubcatSeq:
    """Glue a refined t-sequence back into an aisle, degreewise: the value
    at k is the torsion class that t_f(k) together with f(k-1) generates
    in f(k), ``core.generated_torsion``.  Above the window that is f(hi),
    the above-tail, since t_f is zero there and f(hi) is a torsion class
    of itself.

    That is the closure of t_f(k) and f(k-1) under quotients and extensions
    taken inside f(k), keeping only what lies in f(k): f(k) is wide, so the
    proof of ``generated_torsion`` applies.  The tests check it against that
    closure, searched over bounded sums inside f(k)."""
    return derived.SubcatSeq(r.lo, r.hi, (0, *_glue(backend, r), r.f_mask(r.hi)))


def _glue(backend, r: RefinedTSeq) -> list:
    """The masks of psi(r) on the window of r."""
    return [core.generated_torsion(backend, t | prev, w) for t, w, prev in zip(r.tf, r.f, (0, *r.f))]


def validate_refined(backend, r: RefinedTSeq):
    """Check all refined t-sequence invariants; returns (ok, report).

    The torsion and tilting tests of t_f(n) read the Hom and Ext matrices
    and hold for a wide gap; a gap of wide f(n-1) within wide f(n) is
    wide, and a non-wide f(n) is reported first."""
    report = []
    for n in range(r.lo, r.hi + 1):
        w = r.f_mask(n)
        if not core.subcat_flags(backend, w).is_wide:
            report.append(f"f({n}) is not wide")
        if r.f_mask(n - 1) & ~w:
            report.append(f"f is decreasing at degree {n}")
    for n in range(r.lo, r.hi + 1):
        t = r.tf_mask(n)
        g = gap(backend, r.f_mask(n), r.f_mask(n - 1))
        if t & ~g:
            report.append(f"t_f({n}) is not inside f({n}) cap perp f({n - 1})")
            continue
        if core.generated_torsion(backend, t, g) != t:
            report.append(f"t_f({n}) is not a nullity class in its gap")
        if not core.is_tilting_in(backend, t, g):
            report.append(f"t_f({n}) is not tilting in its gap")
    return (not report), report


def _chains(backend, lo, hi):
    """Yield each nondecreasing chain f(lo) .. f(hi) of wide subcategories
    (``core.wide_census``), a tuple of masks, with the list of the tilting
    torsion classes of each of its gaps f(n) cap perp f(n-1)
    (``core.tilting_census``)."""
    wides = core.wide_census(backend)

    def rec(chain):
        if len(chain) == hi - lo + 1:
            yield chain, [core.tilting_census(backend, gap(backend, w, prev))
                          for w, prev in zip(chain, (0, *chain))]
            return
        prev = chain[-1] if chain else 0
        for w in wides:
            if not prev & ~w:
                yield from rec((*chain, w))

    return rec(())


def enumerate_refined(backend, lo, hi):
    """All refined t-sequences on the window (zero below, constant above),
    sorted by their keys: a chain of ``_chains`` with one tilting torsion
    class per gap."""
    results = [RefinedTSeq(lo, hi, chain, tfs)
               for chain, censuses in _chains(backend, lo, hi)
               for tfs in itertools.product(*censuses)]
    results.sort(key=RefinedTSeq.key)
    return results


# ---------------------------------------------------------------------------
# the star-product oracle for psi

def _level(backend, r: RefinedTSeq, m: int):
    """The one-level preaisle as a degreewise predicate: zero below m,
    t_f(m) at m, the gap above."""
    t, g = r.tf_mask(m), gap(backend, r.f_mask(m), r.f_mask(m - 1))

    def member(k, obj):
        return core.obj_in_mask(0 if k < m else t if k == m else g, obj)
    return member


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
    t = r.f_mask(n - 1)

    def in_t(y):  # zero homologies lie in every subcategory: no need to normalise
        return all(core.obj_in_mask(t, yk) for yk in y.values())

    if m < n:
        return in_t(x)
    x = derived.dobj(x)
    if memo is None:
        memo = {}
    key = (n, m, derived.dobj_key(x))
    if key in memo:
        return memo[key]
    left = _level(backend, r, m)

    if m == n:  # the right factor is T(n-1): answered here, not by a call
        rmember = in_t
    else:
        def rmember(b):
            return star_oracle_membership(backend, r, n, m - 1, b, memo)

    f_prev = r.f_mask(m - 1)

    def envelope(k, obj):
        return core.obj_in_mask(f_prev, obj)

    hi = max([m, r.hi] + list(x)) + 1
    ans = derived.star_membership(backend, left, rmember, x, lo=min(n, r.lo), hi=hi,
                                  envelope=envelope)
    memo[key] = ans
    return ans


# ---------------------------------------------------------------------------
# records, enumeration, roundtrips

@dataclass(frozen=True)
class TStructRecord:
    sequence: derived.SubcatSeq
    refined: RefinedTSeq
    checks: tuple      # ((check name, bool), ...) in a fixed order

    def to_json_dict(self):
        return {"sequence": self.sequence.to_json_dict(),
                "refined": self.refined.to_json_dict(), "checks": dict(self.checks)}


def enumerate_tstructures(backend, lo, hi):
    """All t-structures on the window of a finite quiver backend, glued
    from the refined t-sequences: ``psi`` of each ``enumerate_refined``
    sequence, paired with it, in the order of the aisles' keys.  psi is a
    bijection onto the narrow sequences with zero below-tail and wide
    above-tail (``verify_roundtrips`` checks both directions), and each of
    those is an aisle at finite length.  The narrow-sequence scan
    (``derived.enumerate_narrow_sequences`` with ``xi``) is the oracle.

    psi's value at degree k reads t_f(k), f(k-1) and f(k) alone, so it is
    glued once per chain and tilting class of the gap at k, and the records
    of a chain pair the products of the two."""
    checks = (("narrow-sequence", True), ("is-aisle", True))
    records = []
    for chain, censuses in _chains(backend, lo, hi):
        glued = [[core.generated_torsion(backend, t | prev, w) for t in ts]
                 for ts, w, prev in zip(censuses, chain, (0, *chain))]
        for tfs, entries in zip(itertools.product(*censuses), itertools.product(*glued)):
            records.append(TStructRecord(derived.SubcatSeq(lo, hi, (0, *entries, chain[-1])),
                                         RefinedTSeq(lo, hi, chain, tfs), checks))
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
            xi(backend, u)  # accepts u only if psi glues its cut back to u
        except BackendError as exc:
            failures.append(("psi-xi", u.key(), str(exc)))
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
