"""Symbolic backend for coherent sheaves on the projective line.

Sheaves split as a sum of line bundles O(n) and finite-length torsion
sheaves supported on a fixed finite set of abstract closed points; this is
all the data the classification of narrow subcategories, narrow sequences,
and aisles depends on.  Subcategories, sequences, and their normal forms
are represented by closed-form tags rather than object sets.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .quiver import BackendError, _is_int

NEG_INF = float("-inf")
POS_INF = float("inf")


# ---------------------------------------------------------------------------
# sheaves

@dataclass(frozen=True)
class SheafObj:
    """A coherent sheaf: a multiset of line-bundle degrees plus, per point,
    a partition recording the torsion summands O_P / m^part."""

    line: tuple = ()      # sorted line-bundle degrees
    torsion: tuple = ()   # sorted ((point, sorted-descending partition), ...)

    def __post_init__(self):
        object.__setattr__(self, "line", tuple(sorted(int(d) for d in self.line)))
        tors = []
        for point, parts in dict(self.torsion).items() if isinstance(self.torsion, dict) else self.torsion:
            parts = tuple(sorted((int(x) for x in parts), reverse=True))
            if any(x <= 0 for x in parts):
                raise BackendError("torsion partition parts must be positive")
            if parts:
                tors.append((int(point), parts))
        object.__setattr__(self, "torsion", tuple(sorted(tors)))

    @property
    def rank(self) -> int:
        return len(self.line)

    @property
    def degree(self) -> int:
        return sum(self.line) + sum(sum(parts) for _, parts in self.torsion)

    @property
    def is_zero(self) -> bool:
        return not self.line and not self.torsion

    @property
    def torsion_support(self) -> frozenset:
        return frozenset(p for p, _ in self.torsion)

    def direct_sum(self, other: "SheafObj") -> "SheafObj":
        tors = {p: list(parts) for p, parts in self.torsion}
        for p, parts in other.torsion:
            tors.setdefault(p, []).extend(parts)
        return SheafObj(self.line + other.line, tuple((p, tuple(v)) for p, v in tors.items()))


def line_bundle(n: int, copies: int = 1) -> SheafObj:
    return SheafObj((n,) * copies)


def skyscraper(point: int, length: int = 1) -> SheafObj:
    return SheafObj((), ((point, (length,)),))


# ---------------------------------------------------------------------------
# subcategory tags

ZERO, TOR, LINE, GEN, ALL = "zero", "tor", "line", "gen", "all"


@dataclass(frozen=True)
class P1Narrow:
    """A narrow subcategory of coh P1: zero, torsion sheaves on a nonempty
    point set, the additive hull of one line bundle O(n), the quotient
    closure Gen(O(n)), or the whole category."""

    tag: str
    points: frozenset = frozenset()
    n: int = 0

    def __post_init__(self):
        if self.tag not in (ZERO, TOR, LINE, GEN, ALL):
            raise BackendError(f"unknown narrow tag {self.tag!r}")
        _check_points(self.points)
        object.__setattr__(self, "points", frozenset(self.points))
        if not _is_int(self.n):
            raise BackendError(f"twist level 'n' is not an integer: {self.n!r}")
        if self.tag == TOR and not self.points:
            raise BackendError("torsion narrow subcategory needs a nonempty support")

    def key(self):
        return (self.tag, tuple(sorted(self.points)), self.n)

    def to_json_dict(self):
        out = {"tag": self.tag}
        if self.tag == TOR:
            out["points"] = sorted(self.points)
        if self.tag in (LINE, GEN):
            out["n"] = self.n
        return out


def p1_zero() -> P1Narrow:
    return P1Narrow(ZERO)


def p1_tor(points) -> P1Narrow:
    return P1Narrow(TOR, frozenset(points))


def p1_line(n: int) -> P1Narrow:
    return P1Narrow(LINE, n=n)


def p1_gen(n: int) -> P1Narrow:
    return P1Narrow(GEN, n=n)


def p1_all() -> P1Narrow:
    return P1Narrow(ALL)


def _check_points(labels, points=None):
    """Refuse a point label that is not an int in 0..points-1 (any int >= 0
    when points is None; a bool is not a label)."""
    for x in labels:
        if not (_is_int(x) and 0 <= x and (points is None or x < points)):
            bound = "" if points is None else f" in 0..{points - 1}"
            raise BackendError(f"point labels in 'points' are integers{bound}, "
                               f"got {json.dumps(x, default=repr)}")


def narrow_from_json(d, points: int) -> P1Narrow:
    """The narrow subcategory of a JSON entry, on a P1 with the given number
    of closed points.  The raw labels are checked before the frozenset is
    formed: it would merge true into 1."""
    labels = d.get("points", ())
    _check_points(labels, points)
    return P1Narrow(d["tag"], frozenset(labels), d.get("n", 0))


def p1_membership(x: SheafObj, s: P1Narrow) -> bool:
    """Closed-form membership; the Gen rule (all line-bundle degrees >= n,
    torsion unrestricted) restates that every such sheaf is a quotient of
    copies of O(n)."""
    if s.tag == ALL:
        return True
    if s.tag == ZERO:
        return x.is_zero
    if s.tag == TOR:
        return not x.line and x.torsion_support <= s.points
    if s.tag == LINE:
        return not x.torsion and all(d == s.n for d in x.line)
    return all(d >= s.n for d in x.line)


def p1_narrow_contains(big: P1Narrow, small: P1Narrow) -> bool:
    """Symbolic inclusion between narrow subcategories."""
    if small.tag == ZERO or big.tag == ALL:
        return True
    if big.tag == ZERO or small.tag == ALL:
        return False
    if small.tag == TOR:
        return (big.tag == TOR and small.points <= big.points) or big.tag == GEN
    if small.tag == LINE:
        if big.tag == LINE:
            return small.n == big.n
        return big.tag == GEN and small.n >= big.n
    # small is GEN
    return big.tag == GEN and small.n >= big.n


def enumerate_p1_narrow(points: int, deg_lo: int, deg_hi: int):
    """All narrow subcategories with Line/Gen levels in [deg_lo, deg_hi],
    in deterministic order."""
    pts = range(points)
    out = [p1_zero()]
    for r in range(1, points + 1):
        for combo in itertools.combinations(pts, r):
            out.append(p1_tor(combo))
    for n in range(deg_lo, deg_hi + 1):
        out.append(p1_line(n))
    for n in range(deg_lo, deg_hi + 1):
        out.append(p1_gen(n))
    out.append(p1_all())
    return out


def p1_narrowness_audit(s: P1Narrow, deg_lo: int, deg_hi: int, points: int) -> bool:
    """Audit closure of s against the generating short exact sequences
    0 -> O(n) -> O(n+1) -> k(P) -> 0 over the degree window and all points:
    cokernel direction (both bundles in s force the skyscraper in) and
    extension direction (sub bundle and skyscraper in s force the larger
    bundle in)."""
    for n in range(deg_lo, deg_hi):
        for p in range(points):
            sub, quot = line_bundle(n), skyscraper(p)
            mid = line_bundle(n + 1)
            if p1_membership(sub, s) and p1_membership(mid, s) and not p1_membership(quot, s):
                return False
            if p1_membership(sub, s) and p1_membership(quot, s) and not p1_membership(mid, s):
                return False
    return True


def p1_test_sheaves(points: int, max_rank: int = 2, deg_bound: int = 2,
                    max_torsion: int = 2):
    """Generating test family: all sheaves with rank <= max_rank, line
    degrees bounded by deg_bound, torsion length <= max_torsion."""
    degs = range(-deg_bound, deg_bound + 1)
    lines = [()]
    for r in range(1, max_rank + 1):
        lines.extend(itertools.combinations_with_replacement(degs, r))
    slots = [(p, l) for p in range(points) for l in (1, 2)]
    torsions = [()]
    for r in range(1, max_torsion + 1):
        for combo in itertools.combinations_with_replacement(slots, r):
            if sum(l for _, l in combo) > max_torsion:
                continue
            tors = {}
            for p, l in combo:
                tors.setdefault(p, []).append(l)
            torsions.append(tuple((p, tuple(v)) for p, v in tors.items()))
    return [SheafObj(line, tors) for line in lines for tors in torsions]


# ---------------------------------------------------------------------------
# narrow-sequence normal forms

@dataclass(frozen=True)
class P1SeqForm:
    """Normal form of a narrow sequence on coh P1.

    Form I:   zero below l1, torsion sheaves on nondecreasing supports for
              l1 <= k < l2, everything from l2 on.
    Form II:  zero below l1, the additive hull of O(n) for l1 <= k < l2,
              Gen(O(n)) at l2, everything above (l2 = +inf: no Gen level).
    Form III: zero below l, Gen(O(n)) at l, everything above.
    Form IV:  zero below l, everything from l on.
    """

    form: str                    # "I", "II", "III", "IV"
    l1: object = None            # int or -inf (forms I, II)
    l2: object = None            # int or +inf (forms I, II)
    n: int = 0                   # twist level (forms II, III)
    l: object = None             # int or +-inf (forms III, IV)
    supports: tuple = ()         # nondecreasing nonempty point sets (form I)
    supports_start: int = 0      # degree of supports[0] (form I)

    def __post_init__(self):
        object.__setattr__(self, "supports",
                           tuple(frozenset(p) for p in self.supports))
        if self.form not in ("I", "II", "III", "IV"):
            raise BackendError(f"unknown sequence form {self.form!r}")
        if self.form in ("I", "II") and not self.l1 < self.l2:
            raise BackendError("sequence form needs l1 < l2")
        if self.form == "I":
            if not self.supports or any(not p for p in self.supports):
                raise BackendError("form I needs nonempty supports")
            for a, b in zip(self.supports, self.supports[1:]):
                if not a <= b:
                    raise BackendError("form I supports must be nondecreasing")

    def key(self):
        return (self.form, self.l1, self.l2, self.n, self.l,
                tuple(tuple(sorted(p)) for p in self.supports), self.supports_start)

    def value_at(self, k: int) -> P1Narrow:
        if self.form == "IV":
            return p1_all() if k >= self.l else p1_zero()
        if self.form == "III":
            if k < self.l:
                return p1_zero()
            return p1_gen(self.n) if k == self.l else p1_all()
        if self.form == "II":
            if k < self.l1:
                return p1_zero()
            if k < self.l2:
                return p1_line(self.n)
            return p1_gen(self.n) if k == self.l2 else p1_all()
        if k < self.l1:
            return p1_zero()
        if k >= self.l2:
            return p1_all()
        idx = min(max(int(k) - self.supports_start, 0), len(self.supports) - 1)
        return p1_tor(self.supports[idx])

    def to_json_dict(self):
        def enc(v):
            if v == NEG_INF:
                return "-inf"
            if v == POS_INF:
                return "+inf"
            return v
        out = {"form": self.form}
        if self.form in ("I", "II"):
            out["l1"], out["l2"] = enc(self.l1), enc(self.l2)
        if self.form in ("II", "III"):
            out["n"] = self.n
        if self.form in ("III", "IV"):
            out["l"] = enc(self.l)
        if self.form == "I":
            out["supports"] = [sorted(p) for p in self.supports]
            out["supports_start"] = self.supports_start
        return out


@dataclass(frozen=True)
class P1Invalid:
    reason: str


def p1_sequence_window(form: P1SeqForm, lo: int, hi: int):
    """Explicit window view: (entries dict, below tail, above tail)."""
    entries = {k: form.value_at(k) for k in range(lo, hi + 1)}
    return entries, form.value_at(lo - 1), form.value_at(hi + 1)


def classify_p1_sequence(seq: dict, below: P1Narrow | None = None,
                         above: P1Narrow | None = None):
    """Match a windowed sequence (constant tails; by default the boundary
    values repeat) against the four normal forms.  Returns the unique
    P1SeqForm, or P1Invalid naming the violated condition."""
    ks = sorted(seq)
    if not ks or ks != list(range(ks[0], ks[-1] + 1)):
        raise BackendError("sequence window must be a contiguous degree range")
    lo, hi = ks[0], ks[-1]
    below = seq[lo] if below is None else below
    above = seq[hi] if above is None else above
    values = {k: seq[k] for k in ks}
    values[lo - 1] = below
    values[hi + 1] = above
    for k in range(lo - 1, hi + 1):
        if not p1_narrow_contains(values[k + 1], values[k]):
            return P1Invalid(f"sequence is not nondecreasing at degree {k}")
    if below.tag == GEN:
        return P1Invalid("more than one Gen level")
    if above.tag == GEN:
        return P1Invalid("more than one Gen level")

    tags = {v.tag for v in values.values()}

    if TOR in tags:
        if LINE in tags or GEN in tags:
            return P1Invalid("a torsion level below a bundle level forces the whole category")
        tor_ks = [k for k in ks if values[k].tag == TOR]
        l1 = NEG_INF if below.tag == TOR else min(tor_ks)
        if above.tag == TOR:
            l2 = POS_INF
        else:
            all_ks = [k for k in ks if values[k].tag == ALL]
            l2 = min(all_ks) if all_ks else hi + 1
        start = max(l1, lo)
        supports = tuple(values[k].points for k in range(int(start), int(min(l2 - 1, hi)) + 1))
        return P1SeqForm("I", l1=l1, l2=l2, supports=supports, supports_start=int(start))

    if LINE in tags:
        levels = {values[k].n for k in values if values[k].tag == LINE}
        if len(levels) > 1:
            return P1Invalid("two distinct line-bundle levels")
        n = levels.pop()
        gen_ks = [k for k in ks if values[k].tag == GEN]
        if len(gen_ks) > 1:
            return P1Invalid("more than one Gen level")
        line_ks = [k for k in ks if values[k].tag == LINE]
        l1 = NEG_INF if below.tag == LINE else min(line_ks)
        if gen_ks:
            if values[gen_ks[0]].n != n:
                return P1Invalid("Gen level does not match the line-bundle level")
            return P1SeqForm("II", l1=l1, l2=gen_ks[0], n=n)
        if ALL in tags or above.tag == ALL:
            return P1Invalid("a Gen level must sit between the line bundle and the whole category")
        return P1SeqForm("II", l1=l1, l2=POS_INF, n=n)

    if GEN in tags:
        gen_ks = [k for k in ks if values[k].tag == GEN]
        if len(gen_ks) > 1:
            return P1Invalid("more than one Gen level")
        return P1SeqForm("III", n=values[gen_ks[0]].n, l=gen_ks[0])

    all_ks = [k for k in ks if values[k].tag == ALL]
    if below.tag == ALL:
        return P1SeqForm("IV", l=NEG_INF)
    if not all_ks:
        if above.tag == ALL:
            return P1SeqForm("IV", l=hi + 1)
        return P1SeqForm("IV", l=POS_INF)
    return P1SeqForm("IV", l=min(all_ks))


def p1_is_aisle(form: P1SeqForm) -> bool:
    """Every normal form is an aisle except form I with more than one
    torsion degree: the degree right above a torsion level must already be
    the whole category."""
    if form.form != "I":
        return True
    return form.l1 != NEG_INF and form.l2 != POS_INF and form.l2 == form.l1 + 1


def p1_enumerate_sequences(points: int, lo: int, hi: int,
                           deg_lo: int, deg_hi: int):
    """All narrow-sequence normal forms whose non-forced behavior is
    visible on the window [lo, hi], with twist levels in [deg_lo, deg_hi],
    sorted by the repr of their keys."""
    return sorted(p1_sequence_forms(points, lo, hi, deg_lo, deg_hi),
                  key=lambda f: repr(f.key()))


def p1_sequence_forms(points: int, lo: int, hi: int, deg_lo: int, deg_hi: int):
    """The forms of ``p1_enumerate_sequences``, generated one at a time in
    construction order.  Each loop below varies the parameters its form's
    key carries, so no form is built twice."""
    bounds = list(range(lo, hi + 1))
    # form IV
    yield P1SeqForm("IV", l=NEG_INF)
    for l in bounds + [hi + 1]:
        yield P1SeqForm("IV", l=l)
    yield P1SeqForm("IV", l=POS_INF)
    # form III
    for l in bounds:
        for n in range(deg_lo, deg_hi + 1):
            yield P1SeqForm("III", n=n, l=l)
    # form II
    for n in range(deg_lo, deg_hi + 1):
        for l2 in bounds + [POS_INF]:
            l1s = [NEG_INF] + [k for k in bounds if k < l2]
            for l1 in l1s:
                yield P1SeqForm("II", l1=l1, l2=l2, n=n)
    # form I
    nonempty = []
    for r in range(1, points + 1):
        nonempty.extend(frozenset(c) for c in itertools.combinations(range(points), r))
    nonempty.sort(key=lambda s: tuple(sorted(s)))
    for l1 in [NEG_INF] + bounds:
        for l2 in [k for k in bounds if k > l1] + [hi + 1, POS_INF]:
            start = int(max(l1, lo))
            stop = int(min(l2 - 1, hi))
            if start > stop:
                continue
            width = stop - start + 1

            def chains(prefix, width=width):
                if len(prefix) == width:
                    yield tuple(prefix)
                    return
                for s in nonempty:
                    if not prefix or prefix[-1] <= s:
                        yield from chains(prefix + [s])

            for supports in chains([]):
                yield P1SeqForm("I", l1=l1, l2=l2, supports=supports, supports_start=start)


# ---------------------------------------------------------------------------
# Euler form

def euler_form(x, y, g: int = 0) -> int:
    """Euler pairing of (rank, degree) pairs on a genus-g curve, from the
    Riemann-Roch matrix [[1 - g, 1], [-1, 0]]."""
    rx, dx = x
    ry, dy = y
    return rx * ((1 - g) * ry + dy) - dx * ry
