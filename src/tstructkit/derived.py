"""Graded model of the bounded derived category of a hereditary backend.

A derived object is a finitely supported map degree -> Obj (its homology);
heredity makes this model complete.  Preaisles that are determined by their
homologies are stored as windowed sequences of subcategories (SubcatSeq);
this module validates the narrow-sequence axioms, converts between the two
presentations, computes restrictions and truncations, and answers star
product membership by exhaustive triangle search.

The exactness conditions search sums of at most ``core.MULT_BOUND``
indecomposables; the star search takes its left factor's objects from the
sums of at most ``STAR_SIZE_BOUND`` indecomposables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import core, faults
from .quiver import BackendError, Obj


# ---------------------------------------------------------------------------
# derived objects: plain dicts degree -> Obj, normalized to drop zeros

def dobj(parts) -> dict:
    """Normalize a degree -> Obj mapping, dropping zero homologies."""
    return {int(k): tuple(sorted(v)) for k, v in dict(parts).items() if v}


def dobj_key(x: dict):
    return tuple(sorted(x.items()))


def shift(x: dict, n: int) -> dict:
    return {k + n: v for k, v in x.items()}


def derived_hom_dim(backend, x: dict, y: dict) -> int:
    """dim Hom in the derived category: degreewise Hom plus one-step Ext."""
    x, y = dobj(x), dobj(y)
    ext_shift = -1 if faults.is_active("swap-ext-direction") else 1
    total = 0
    for k, xk in x.items():
        total += backend.hom_dim(xk, y.get(k, ()))
        total += backend.ext_dim(xk, y.get(k + ext_shift, ()))
    return total


def truncate(x: dict, n: int, side: str) -> dict:
    """Keep homologies in degrees >= n ('above') or <= n ('below')."""
    x = dobj(x)
    if side == "above":
        return {k: v for k, v in x.items() if k >= n}
    if side == "below":
        return {k: v for k, v in x.items() if k <= n}
    raise BackendError("side must be 'above' or 'below'")


# ---------------------------------------------------------------------------
# windowed subcategory sequences

@dataclass(frozen=True)
class SubcatSeq:
    """A nondecreasing Z-indexed sequence of subcategories, stored on a
    window [lo, hi] with constant tails below and above."""

    lo: int
    hi: int
    entries: tuple  # one Subcat per degree lo..hi
    below: frozenset
    above: frozenset

    def __post_init__(self):
        if self.hi < self.lo or len(self.entries) != self.hi - self.lo + 1:
            raise BackendError("window and entries length disagree")
        object.__setattr__(self, "entries", tuple(frozenset(e) for e in self.entries))
        object.__setattr__(self, "below", frozenset(self.below))
        object.__setattr__(self, "above", frozenset(self.above))

    def at(self, k: int) -> frozenset:
        if k < self.lo:
            return self.below
        if k > self.hi:
            return self.above
        return self.entries[k - self.lo]

    def key(self):
        return (self.lo, self.hi, tuple(tuple(sorted(e)) for e in self.entries),
                tuple(sorted(self.below)), tuple(sorted(self.above)))

    def to_json_dict(self):
        def enc(s):
            return sorted(s)
        return {"lo": self.lo, "hi": self.hi, "below": enc(self.below),
                "entries": [enc(e) for e in self.entries], "above": enc(self.above)}

    @staticmethod
    def from_json_dict(d):
        return SubcatSeq(int(d["lo"]), int(d["hi"]),
                         tuple(frozenset(e) for e in d["entries"]),
                         frozenset(d["below"]), frozenset(d["above"]))


def full_subcat(backend) -> frozenset:
    return frozenset(backend.all_ids())


def aisle_from_torsion(backend, T) -> SubcatSeq:
    """The Happel-style aisle: zero below degree 0, the torsion class at 0,
    the whole category above."""
    T = frozenset(T)
    if not core.classify_subcat(backend, T).is_torsion_class:
        raise BackendError("subcategory is not a torsion class")
    allc = full_subcat(backend)
    return SubcatSeq(0, 1, (T, allc), frozenset(), allc)


# ---------------------------------------------------------------------------
# narrow-sequence validation

def _part_condition(backend, source, target, part):
    """part(f) in its subcategory for every morphism f: A -> B with A in
    source and B in target: ker(f) in source for part 'kernel', coker(f)
    in target for part 'cokernel'."""
    cache = core.memo(backend)
    key = (part, source, target)
    if key not in cache:
        holder, at = (source, 0) if part == "kernel" else (target, 2)
        cache[key] = all(core.obj_in(holder, parts[at])
                         for a in core.candidates(source)
                         for b in core.candidates(target)
                         for parts in backend.part_sets(a, b))
    return cache[key]


def is_narrow_sequence(backend, seq: SubcatSeq):
    """Validate the narrow-sequence axioms: monotonicity, plus the exactness
    condition split into extension closure, a cokernel condition against the
    next level, and a kernel condition against the previous level.  The
    window is extended by two degrees so each constant tail is exercised
    against itself once.  Returns (ok, list of violation strings)."""
    report = []
    degrees = range(seq.lo - 2, seq.hi + 3)
    for k in degrees:
        if not seq.at(k) <= seq.at(k + 1):
            report.append(f"monotonicity fails at degree {k}: N({k}) not within N({k + 1})")
    for k in degrees:
        if not core.is_closed(backend, seq.at(k), ("extensions",)):
            report.append(f"N({k}) is not closed under extensions")
        if not _part_condition(backend, seq.at(k + 1), seq.at(k), "cokernel"):
            report.append(f"cokernel condition fails at degree {k}: "
                          f"a map from N({k + 1}) into N({k}) has cokernel outside N({k})")
        if faults.is_active("skip-kernel-condition"):
            continue
        if not _part_condition(backend, seq.at(k), seq.at(k - 1), "kernel"):
            report.append(f"kernel condition fails at degree {k}: "
                          f"a map from N({k}) into N({k - 1}) has kernel outside N({k})")
    return (not report), report


# ---------------------------------------------------------------------------
# theta / mu

def theta_membership(backend, seq: SubcatSeq, x: dict) -> bool:
    """Membership in the homology-determined preaisle of a sequence."""
    x = dobj(x)
    return all(core.obj_in(seq.at(k), xk) for k, xk in x.items())


def window_objects(backend, lo: int, hi: int, size_bound: int = 2, ids=None):
    """All derived objects supported in [lo, hi] with at most size_bound
    indecomposable summands in total, zero object included, in a
    deterministic order."""
    pool = sorted(ids) if ids is not None else list(backend.all_ids())
    slots = [(k, i) for k in range(lo, hi + 1) for i in pool]
    out = []
    for r in range(0, size_bound + 1):
        for combo in itertools.combinations_with_replacement(slots, r):
            parts = {}
            for k, i in combo:
                parts.setdefault(k, []).append(i)
            out.append(dobj(parts))
    seen = set()
    uniq = []
    for x in out:
        key = dobj_key(x)
        if key not in seen:
            seen.add(key)
            uniq.append(x)
    return uniq


def mu(backend, seq_or_member, lo=None, hi=None):
    """Degreewise homologies of a preaisle.

    Preaisles represented as SubcatSeq are their own homology sequences, so
    mu is the identity there.  A membership callable is sampled over all
    window objects (``window_objects`` with its default size bound) and the
    homologies of accepted objects are collected."""
    if isinstance(seq_or_member, SubcatSeq):
        return seq_or_member
    if lo is None or hi is None:
        raise BackendError("mu of a membership oracle needs an explicit window")
    member = seq_or_member
    entries = [set() for _ in range(lo, hi + 1)]
    for x in window_objects(backend, lo, hi):
        if member(x):
            for k, xk in x.items():
                entries[k - lo].update(xk)
    entries = tuple(frozenset(e) for e in entries)
    return SubcatSeq(lo, hi, entries, frozenset(), entries[-1])


# ---------------------------------------------------------------------------
# restrictions

def restrict(backend, seq: SubcatSeq, k=None, l=None) -> SubcatSeq:
    """The restriction of a preaisle to degrees [k, l]: zero below k, the
    original values on [k, l], the wide closure of the value at l above."""
    if k is not None and l is not None and k > l:
        raise BackendError("restriction needs k <= l")

    def value(n):
        if k is not None and n < k:
            return frozenset()
        if l is not None and n > l:
            return core.closure(backend, seq.at(l), core.WIDE_RULES)
        return seq.at(n)

    entries = tuple(value(n) for n in range(seq.lo, seq.hi + 1))
    return SubcatSeq(seq.lo, seq.hi, entries, value(seq.lo - 1), value(seq.hi + 1))


# ---------------------------------------------------------------------------
# star products

STAR_OPTION_LIMIT = 20000
STAR_SIZE_BOUND = 3  # summands of each left-factor object the star search tries


def _graded_options(backend, xk: Obj, allowed):
    """Choices (A_k, ker, coker) at one degree: A_k runs over the allowed
    objects, the map over Hom(A_k, x_k)."""
    opts = {((), (), xk)}  # A_k = 0, zero map
    for a in allowed:
        if not a:
            continue
        if not xk:
            opts.add((a, a, ()))
            continue
        opts.add((a, a, xk))  # zero morphism
        for ker, _, cok in backend.part_sets(a, xk):
            opts.add((a, ker, cok))
    return sorted(opts)


def star_membership(backend, left, right, x: dict, lo=None, hi=None):
    """Does x lie in left * right (objects in a triangle L -> x -> R)?

    `left` is a SubcatSeq or a degreewise predicate (degree, Obj) -> bool
    that must vanish below the search window; `right` is a SubcatSeq or a
    membership callable on derived objects.  The search enumerates the
    homology long exact sequence degreewise: per degree an exact sequence
    0 -> s_k -> A_k -> x_k -> t_k -> 0, with the right piece's homology at k
    a middle term of (quotient s_{k-1}, sub t_k)."""
    x = dobj(x)
    if isinstance(left, SubcatSeq):
        lseq = left
        lo = lseq.lo if lo is None else lo
        hi = lseq.hi if hi is None else hi

        def lpred(k, obj):
            return core.obj_in(lseq.at(k), obj)
    else:
        lpred = left
        if lo is None or hi is None:
            raise BackendError("star search with a predicate left factor needs a window")
    if isinstance(right, SubcatSeq):
        rseq = right

        def rmember(b):
            return theta_membership(backend, rseq, b)
    else:
        rmember = right

    kmin = min([lo] + list(x)) if x else lo
    kmax = max([hi] + list(x)) if x else hi
    if any(lpred(kmin - 1, (i,)) for i in backend.all_ids()):
        raise BackendError("left factor of star search is not bounded below the window")

    pools = {}
    for k in range(kmin, kmax + 1):
        allowed = [m for m in _all_multisets(backend) if lpred(k, m)]
        pools[k] = _graded_options(backend, x.get(k, ()), allowed)
        if len(pools[k]) > STAR_OPTION_LIMIT:
            raise BackendError("star search budget exceeded")

    mids = {}  # (s_prev, t_k) -> middle terms, asked once per pair

    def dfs(k, s_prev, bparts):
        if k > kmax:
            # already a dobj: int keys, and every value a sorted nonzero
            # tuple from middle_terms, part_sets or _all_multisets
            if s_prev:
                bparts = dict(bparts)
                bparts[k] = s_prev
            return rmember(bparts)
        for a_k, s_k, t_k in pools[k]:
            pair = (s_prev, t_k)
            if pair not in mids:
                mids[pair] = backend.middle_terms(s_prev, t_k)
            for b_k in mids[pair]:
                nb = bparts
                if b_k:
                    nb = dict(bparts)
                    nb[k] = b_k
                if dfs(k + 1, s_k, nb):
                    return True
        return False

    return dfs(kmin, (), {})


def _all_multisets(backend):
    cache = core.memo(backend)
    if "multisets" not in cache:
        ids = list(backend.all_ids())
        out = [()]
        for r in range(1, STAR_SIZE_BOUND + 1):
            out.extend(itertools.combinations_with_replacement(ids, r))
        cache["multisets"] = out
    return cache["multisets"]


# ---------------------------------------------------------------------------
# enumeration of narrow sequences

def enumerate_narrow_sequences(backend, lo: int, hi: int):
    """All narrow sequences on the window with zero below-tail and constant
    (hence wide) above-tail, in deterministic order."""
    subsets = [frozenset(s) for s in backend.subsets()]
    subsets.sort(key=lambda s: tuple(sorted(s)))
    narrow_subsets = [s for s in subsets if core.classify_subcat(backend, s).is_narrow]
    results = []

    def rec(chain):
        if len(chain) == hi - lo + 1:
            # beyond the window the values are forced: the next entry must
            # contain the wide closure of the top entry yet stay inside the
            # (constant) wide closure, so the tail is that wide closure
            seq = SubcatSeq(lo, hi, tuple(chain), frozenset(),
                            core.closure(backend, chain[-1], core.WIDE_RULES))
            ok, _ = is_narrow_sequence(backend, seq)
            if ok:
                results.append(seq)
            return
        prev = chain[-1] if chain else frozenset()
        for s in narrow_subsets:
            if prev <= s and core.closure(backend, prev, core.WIDE_RULES) <= s:
                rec(chain + [s])

    rec([])
    results.sort(key=lambda q: q.key())
    return results
