"""Graded model of the bounded derived category of a hereditary backend.

A derived object is a finitely supported map degree -> Obj (its homology);
heredity makes this model complete.  Preaisles that are determined by their
homologies are stored as windowed sequences of subcategories (SubcatSeq);
this module validates the narrow-sequence axioms, converts between the two
presentations, and answers star product membership by exhaustive triangle
search.

The exactness conditions search sums of at most ``core.MULT_BOUND``
indecomposables; the star search takes its left factor's objects from the
sums of at most ``STAR_SIZE_BOUND`` indecomposables.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from . import core, faults
from .quiver import BackendError, Obj, _is_int, memoized_in


# ---------------------------------------------------------------------------
# derived objects: plain dicts degree -> Obj, normalized to drop zeros

def dobj(parts) -> dict:
    """Normalize a degree -> Obj mapping, dropping zero homologies."""
    return {int(k): tuple(sorted(v)) for k, v in dict(parts).items() if v}


def dobj_key(x: dict):
    return tuple(sorted(x.items()))


def derived_hom_dim(backend, x: dict, y: dict) -> int:
    """dim Hom in the derived category: degreewise Hom plus one-step Ext."""
    x, y = dobj(x), dobj(y)
    ext_shift = -1 if faults.is_active("swap-ext-direction") else 1
    total = 0
    for k, xk in x.items():
        total += backend.hom_dim(xk, y.get(k, ()))
        total += backend.ext_dim(xk, y.get(k + ext_shift, ()))
    return total


# ---------------------------------------------------------------------------
# windowed subcategory sequences

@dataclass(frozen=True)
class SubcatSeq:
    """A nondecreasing Z-indexed sequence of subcategories, stored on a
    window [lo, hi] with constant tails below and above: ``masks`` is
    (below, N(lo), ..., N(hi), above), one mask per subcategory."""

    lo: int
    hi: int
    masks: tuple

    def __post_init__(self):
        if self.hi < self.lo or len(self.masks) != self.hi - self.lo + 3:
            raise BackendError("window and entries length disagree")

    @property
    def entries(self) -> tuple:
        """N(lo), ..., N(hi) as frozensets of ids."""
        return tuple(map(core.subcat, self.masks[1:-1]))

    @property
    def below(self) -> frozenset:
        return core.subcat(self.masks[0])

    @property
    def above(self) -> frozenset:
        return core.subcat(self.masks[-1])

    def mask_at(self, k: int) -> int:
        if k < self.lo:
            return self.masks[0]
        return self.masks[k - self.lo + 1] if k <= self.hi else self.masks[-1]

    def key(self):
        below, *entries, above = map(core.members, self.masks)
        return self.lo, self.hi, tuple(entries), below, above

    def to_json_dict(self):
        below, *entries, above = (list(core.members(m)) for m in self.masks)
        return {"lo": self.lo, "hi": self.hi, "below": below, "entries": entries, "above": above}

    @staticmethod
    def from_json_dict(d, backend):
        """The record of a JSON dict whose ids index the backend's table:
        ``core.check_ids`` refuses any other id in the raw lists (a bool too,
        which a mask would merge into id 1) before it forms their masks."""
        for key in ("lo", "hi"):
            if not _is_int(d[key]):
                raise BackendError(f"window bound {key!r} is not an integer: {d[key]!r}")
        *entries, below, above = (core.check_ids(backend, ids)
                                  for ids in (*d["entries"], d["below"], d["above"]))
        return SubcatSeq(d["lo"], d["hi"], (below, *entries, above))


def aisle_from_torsion(backend, T) -> SubcatSeq:
    """The Happel-style aisle: zero below degree 0, the torsion class at 0,
    the whole category above."""
    t = core.check_ids(backend, T)
    if not core.subcat_flags(backend, t).is_torsion_class:
        raise BackendError("subcategory is not a torsion class")
    allc = core.full_mask(backend)
    return SubcatSeq(0, 1, (0, t, allc, allc))


# ---------------------------------------------------------------------------
# narrow-sequence validation

def is_narrow_sequence(backend, seq: SubcatSeq):
    """Validate the narrow-sequence axioms: monotonicity, plus the exactness
    condition split into extension closure, a cokernel condition against the
    next level, and a kernel condition against the previous level.  The
    window is extended by two degrees so each constant tail is exercised
    against itself once.  Returns (ok, list of violation strings); an id
    outside the table is refused (``core.check_ids``).  The exact decider
    is ``refined.narrow_cut``; this bounded search is its cross-check in
    ``verify``."""
    core.check_ids(backend, core.members(functools.reduce(operator.or_, seq.masks)))
    report = []
    degrees = range(seq.lo - 2, seq.hi + 3)
    for k in degrees:
        if seq.mask_at(k) & ~seq.mask_at(k + 1):
            report.append(f"monotonicity fails at degree {k}: N({k}) not within N({k + 1})")
    for k in degrees:
        if not core.is_closed(backend, seq.mask_at(k), ("extensions",)):
            report.append(f"N({k}) is not closed under extensions")
        if not core.parts_within(backend, seq.mask_at(k + 1), seq.mask_at(k), ("cokernels",)):
            report.append(f"cokernel condition fails at degree {k}: "
                          f"a map from N({k + 1}) into N({k}) has cokernel outside N({k})")
        if faults.is_active("skip-kernel-condition"):
            continue
        if not core.parts_within(backend, seq.mask_at(k), seq.mask_at(k - 1), ("kernels",)):
            report.append(f"kernel condition fails at degree {k}: "
                          f"a map from N({k}) into N({k - 1}) has kernel outside N({k})")
    return (not report), report


# ---------------------------------------------------------------------------
# theta / mu

def theta_membership(backend, seq: SubcatSeq, x: dict) -> bool:
    """Membership in the homology-determined preaisle of a sequence."""
    for k, xk in dobj(x).items():
        if not core.obj_in_mask(seq.mask_at(k), xk):
            return False
    return True


def window_objects(backend, lo: int, hi: int, size_bound: int = 2, ids=None):
    """All derived objects supported in [lo, hi] with at most size_bound
    indecomposable summands in total, zero object included, in a
    deterministic order.  Each multiset of distinct (degree, id) slots is a
    different object, so none repeats."""
    pool = sorted(set(ids)) if ids is not None else list(backend.all_ids())
    slots = [(k, i) for k in range(lo, hi + 1) for i in pool]
    out = []
    for r in range(0, size_bound + 1):
        for combo in itertools.combinations_with_replacement(slots, r):
            parts = {}
            for k, i in combo:
                parts.setdefault(k, []).append(i)
            out.append(dobj(parts))
    return out


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
    entries = [0] * (hi - lo + 1)
    for x in window_objects(backend, lo, hi):
        if member(x):
            for k, xk in x.items():
                entries[k - lo] |= core.mask_of(xk)
    return SubcatSeq(lo, hi, (0, *entries, entries[-1]))


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


def star_membership(backend, left, right, x: dict, lo=None, hi=None, envelope=None):
    """Does x lie in left * right (objects in a triangle L -> x -> R)?

    `left` is a SubcatSeq or a degreewise predicate (degree, Obj) -> bool
    that must vanish below the search window; `right` is a SubcatSeq or a
    membership callable on derived objects.  The search enumerates the
    homology long exact sequence degreewise: per degree an exact sequence
    0 -> s_k -> A_k -> x_k -> t_k -> 0, with the right piece's homology at k
    a middle term of (quotient s_{k-1}, sub t_k).

    `envelope(k, obj)`, optional, is a degreewise condition that every
    member of a callable `right` satisfies at each degree k.  A middle term
    b_k that fails it is skipped where it is chosen: it is R's homology at
    k, which no later degree overwrites, so every completion holding it
    would be refused by `right`.  A SubcatSeq `right` is its own envelope,
    exactly, since ``theta_membership`` is degreewise."""
    x = dobj(x)
    if isinstance(left, SubcatSeq):
        lseq = left
        lo = lseq.lo if lo is None else lo
        hi = lseq.hi if hi is None else hi

        def lpred(k, obj):
            return core.obj_in_mask(lseq.mask_at(k), obj)
    else:
        lpred = left
        if lo is None or hi is None:
            raise BackendError("star search with a predicate left factor needs a window")
    if isinstance(right, SubcatSeq):
        rseq = right

        def rmember(b):
            return theta_membership(backend, rseq, b)

        def envelope(k, obj):
            return core.obj_in_mask(rseq.mask_at(k), obj)
    else:
        rmember = right
        if envelope is None:
            def envelope(k, obj):
                return True

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
                if not envelope(k, b_k):
                    continue
                nb = bparts
                if b_k:
                    nb = dict(bparts)
                    nb[k] = b_k
                if dfs(k + 1, s_k, nb):
                    return True
        return False

    return dfs(kmin, (), {})


@memoized_in(core.memo)
def _all_multisets(backend):
    ids = backend.all_ids()
    return [()] + [combo for r in range(1, STAR_SIZE_BOUND + 1)
                   for combo in itertools.combinations_with_replacement(ids, r)]


# ---------------------------------------------------------------------------
# enumeration of narrow sequences

def enumerate_narrow_sequences(backend, lo: int, hi: int):
    """All narrow sequences on the window with zero below-tail and the wide
    closure of the top entry as above-tail, in deterministic order.  The
    narrow subcategories come from ``core.enumerate_subcats``, which
    refuses a table beyond ``core.MAX_SCAN_INDECS``; each entry holds the
    wide closure (``core.wide_closure``) of the one below it, and so holds
    that entry too."""
    narrow_subsets = sorted(core.enumerate_subcats(backend, ("is_narrow",)), key=core.members)
    results = []

    def rec(chain):
        if len(chain) == hi - lo + 1:
            # the above-tail is the least the chain allows, W(N(hi)); a tail
            # that jumps past it at hi + 1 needs a wider window
            seq = SubcatSeq(lo, hi, (0, *chain, core.wide_closure(backend, chain[-1])))
            ok, _ = is_narrow_sequence(backend, seq)
            if ok:
                results.append(seq)
            return
        floor = core.wide_closure(backend, chain[-1] if chain else 0)
        for s in narrow_subsets:
            if not floor & ~s:
                rec(chain + [s])

    rec([])
    results.sort(key=lambda q: q.key())
    return results
