"""Subcategory calculus over a finite hereditary backend.

A subcategory of a finite backend is an additively-closed set of
indecomposable ids.  Every function here reads and returns it as an int
mask, bit i set for id i (``mask_of``, ``members`` and ``subcat`` convert),
except the two that take ids from a caller (``classify_subcat``,
``torsion_decompose``), which form the mask with ``check_ids``.

The closure scans (``closure``, ``is_closed``, ``parts_within``) try direct
sums of at most ``MULT_BOUND`` of the subcategory's indecomposables:
morphisms one per line through 0 (``c * f`` has the kernel, image and
cokernel of ``f``), not exhaustively; extensions by the backend's
``middle_terms``, which builds one middle term per Ext^1 class.  One scan,
``_violations``, serves all three and reads no fault: ``closure`` and
``is_closed`` drop the rules an injected fault switches off before they call
it, and ``parts_within``, the kernel and cokernel conditions between two
subcategories, keeps every rule.

The search depths (``MULT_BOUND``, ``MAX_SCAN_INDECS``) are module
constants, not parameters.  Memo keys do not carry them, so a caller that
varies one, by monkeypatching it, must use a fresh backend.

The narrow, wide and torsion flags of ``classify_subcat``, the wide census
(``wide_census``), the tilting torsion classes of a wide subcategory
(``tilting_census``), the torsion class a set generates in a wide
subcategory (``generated_torsion``, which ``refined.psi`` glues with) and
the tilting test (``is_tilting_in``) are read off the Hom and Ext matrices
of the table, with no closure and no representation; ``enumerate_subcats``
filters every subset by those flags.  The wide closure (``wide_closure``)
that ``refined.xi`` and ``derived.enumerate_narrow_sequences`` read is such
a formula too, and so ``xi``'s narrowness decider (``refined.narrow_cut``),
which quiver ``classify`` calls, reads no closure either.  The closure scans
serve ``derived.is_narrow_sequence``, a search that only ``verify`` runs,
and stay as the oracles that ``verify`` compares the flags and the wide
closure with.

Memo rule: every memo held on a backend is filled by functions decorated
with ``quiver.memoized_in``, keyed on (function name, *args).  This layer
and the two built on it (derived, refined) store in ``memo(backend)``, the
backend's dict for the active fault set, so a value computed under one set
of injected faults is never read under another; the backend's own memo
holds only pure representation-theoretic data (see QuiverBackend).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from . import faults
from . import fplinalg as la
from .quiver import BackendError, Obj, _is_int, memoized_in

RULES = ("cokernels", "kernels", "extensions", "images")

WIDE_RULES = ("kernels", "cokernels", "extensions")

MULT_BOUND = 2  # summands of each object the closure scans try
MAX_SCAN_INDECS = 14  # largest table enumerate_subcats scans (2^n subsets)


def mask_of(ids) -> int:
    """The mask of a collection of ids: bit i set for id i."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


@functools.lru_cache(maxsize=1 << 16)
def members(mask: int) -> tuple:
    """The ids of a mask, increasing.  Subcategories sort by this tuple,
    not by mask value, and the JSON lists it."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@functools.lru_cache(maxsize=1 << 16)
def subcat(mask: int) -> frozenset:
    """The frozenset of a mask's ids, one object shared by every caller
    that asks for that mask."""
    return frozenset(members(mask))


def full_mask(backend) -> int:
    return (1 << len(backend.roots)) - 1


def obj_in_mask(S: int, obj: Obj) -> bool:
    for i in obj:
        if not S >> i & 1:
            return False
    return True


def candidates(S: int):
    """Direct sums of up to MULT_BOUND indecomposables of the mask S, zero
    excluded; the bound is read at call time."""
    ids = members(S)
    return [combo for r in range(1, MULT_BOUND + 1)
            for combo in itertools.combinations_with_replacement(ids, r)]


def _violations(backend, S: int, rules, ambient=None, target=None):
    """Yield (rule, produced Obj) for every one-step rule application whose
    result leaves its subcategory.  Maps run from the sums of S to the sums
    of target (S if None): a kernel must lie in S, an image or a cokernel in
    target.  A middle term of two sums of S must lie in S.  With an ambient
    mask, results escaping the ambient do not count (they are not objects
    of the ambient subcategory)."""
    bad = set(rules) - set(RULES)
    if bad:
        raise BackendError(f"unknown closure rules: {sorted(bad)}")
    target = S if target is None else target
    parts = [(rule, at, within) for rule, at, within
             in (("kernels", 0, S), ("cokernels", 2, target), ("images", 1, target))
             if rule in rules]

    def leaves(obj, within):
        return (ambient is None or obj_in_mask(ambient, obj)) and not obj_in_mask(within, obj)

    cands = candidates(S)
    if parts:
        targets = candidates(target)
        for a in cands:
            for b in targets:
                for triple in backend.part_sets(a, b):
                    for rule, at, within in parts:
                        if leaves(triple[at], within):
                            yield rule, triple[at]
    if "extensions" in rules:
        for sub in cands:
            for quot in cands:
                for mid in backend.middle_terms(quot, sub):
                    if leaves(mid, S):
                        yield "extensions", mid


def _unfaulted(rules) -> list:
    """The rules that no injected fault switches off."""
    off = {"extensions": "drop-extension-closure", "kernels": "wide-closure-skips-kernels"}
    return [rule for rule in rules if not (rule in off and faults.is_active(off[rule]))]


def memo(backend) -> dict:
    """The backend's memo for the active fault set (see the module docstring)."""
    by_faults = vars(backend).setdefault("_memo_by_faults", {})
    return by_faults.setdefault(faults.snapshot(), {})


@memoized_in(memo)
def is_closed(backend, S: int, rules, ambient=None) -> bool:
    """Whether the mask S is closed under the selected rules (a tuple of
    ``RULES`` names): no one-step application leaves S, counting only what
    lies in the mask ambient if one is given."""
    return next(_violations(backend, S, _unfaulted(rules), ambient), None) is None


@memoized_in(memo)
def closure(backend, seed: int, rules) -> int:
    """The least superset of the mask seed closed under the selected rules
    (a tuple of ``RULES`` names), as a mask."""
    rules = _unfaulted(rules)
    S = seed
    while True:
        new = S
        for _, produced in _violations(backend, S, rules):
            new |= mask_of(produced)
        if new == S:
            return S
        S = new


@memoized_in(memo)
def parts_within(backend, S: int, target: int, rules) -> bool:
    """Whether every morphism from a sum of S to a sum of target has its
    kernel in S (rule "kernels") and its image or cokernel in target
    ("images", "cokernels"), for the selected rules (a tuple of ``RULES``
    names): the kernel and cokernel conditions between two levels of a
    narrow sequence.  Unlike ``is_closed`` it reads no fault."""
    return next(_violations(backend, S, rules, None, target), None) is None


@dataclass(frozen=True)
class SubcatFlags:
    is_narrow: bool
    is_wide: bool
    is_nullity: bool
    is_torsion_class: bool


def classify_subcat(backend, S) -> SubcatFlags:
    """Closure flags of an additively-closed set of ids: ``subcat_flags`` of
    their mask, which ``check_ids`` forms."""
    return subcat_flags(backend, check_ids(backend, S))


@memoized_in(memo)
def subcat_flags(backend, S: int) -> SubcatFlags:
    """Closure flags of the mask S, from the Hom and Ext matrices: S is wide
    iff S = wide_closure(S), narrow iff S = generated_torsion(P,
    wide_closure(P)) for P the Ext-projectives of S (the p in S with
    Ext(p, x) = 0 for every x in S), and a torsion class iff it is the
    torsion class it generates in the whole table.

    Proof.  Both sides of each test are sets of indecomposables, and every
    category here is closed under summands.  Wide: see ``wide_closure``.
    Narrow means closed under extensions and cokernels;
    such an S is closed under images too.  Let f: A -> B be a map in S with
    image I and kernel K; its cokernel Q lies in S, and Ext^2(Q, K) = 0
    makes Ext^1(B, K) -> Ext^1(I, K) onto, so 0 -> K -> A -> I -> 0 is the
    pullback along I -> B of some 0 -> K -> F -> B -> 0; then F is an
    extension of Q by A, so F lies in S, the pullback square gives
    0 -> A -> I + F -> B -> 0, so I + F lies in S, and I is a summand.  So
    S is ICE-closed, and an ICE-closed S of a hereditary category is the
    torsion class that its Ext-projectives P generate in their wide closure
    W(P) = wide_closure(P) (Enomoto 2022, *Rigid modules and ICE-closed
    subcategories in quiver representations*, arXiv:2005.05536).
    Conversely that torsion class T is narrow: the cokernel of a map in T
    lies in the wide W(P) and is a quotient there of an object of T, and an
    extension of objects of T lies in W(P), hence in T
    (``generated_torsion`` proves T the least torsion class of W(P)
    holding P).  Torsion: see ``generated_torsion`` (Dickson 1966).

    On a finite-length backend every nullity class is coreflective, so the
    torsion-class flag coincides with the nullity flag.  The closure scans
    (``is_closed`` with ("extensions", "cokernels"), then ("kernels",))
    decide the narrow and wide flags by search; ``verify`` compares them.
    """
    ext_proj = _ext_free(S, backend.homext_rows, backend.hom_rows)
    narrow = generated_torsion(backend, ext_proj, wide_closure(backend, ext_proj)) == S
    wide = narrow and wide_closure(backend, S) == S
    nullity = generated_torsion(backend, S, full_mask(backend)) == S
    return SubcatFlags(narrow, wide, nullity, nullity)


def _ext_free(S: int, homext, hom) -> int:
    """The members i of S whose Ext mask misses S: with the row masks, the
    Ext-projectives of S (Ext(i, x) = 0 for x in S); with the column masks,
    its Ext-injectives (Ext(x, i) = 0).  Hom and Ext between indecomposables
    are the positive and negative parts of the Euler form
    (``quiver._hom_ext_of_dynkin``), never both nonzero, so the Ext mask is
    the Hom-or-Ext mask without the Hom mask."""
    out = 0
    for i in members(S):
        if not homext[i] & ~hom[i] & S:
            out |= 1 << i
    return out


def check_ids(backend, ids) -> int:
    """The mask of ids, refusing any id that is not an int in 0..n-1 for a
    table of n indecomposables.  A bool is not an id: the check reads the
    ids before the mask, in which True would be id 1."""
    n = len(backend.roots)
    for i in ids:
        if not (_is_int(i) and 0 <= i < n):
            raise BackendError(f"indecomposable ids are integers in 0..{n - 1}, "
                               f"got {json.dumps(i, default=repr)}")
    return mask_of(ids)


def wide_closure(backend, S: int) -> int:
    """The least wide subcategory W(S) holding the mask S: perp(perp(S,
    right), left), both perps with Hom and Ext.  So S is wide iff
    wide_closure(S) = S.

    Proof.  Every category here is closed under summands, and Hom and Ext
    vanish summand by summand, so both perps are read off the matrices
    over the indecomposables.  For any Y, perp(Y, left) is closed under
    kernels, cokernels and extensions: the long exact Hom-Ext sequences of
    a map or a short exact sequence against y in Y stop at Ext^2 = 0
    (Geigle-Lenzing 1991, *Perpendicular categories*).  So
    perp(S^perp, left) is wide, and it holds S by the definition of S^perp.
    Each perp({y}, left) with y in S^perp is wide and holds S, so it holds
    W(S); hence S^perp = W(S)^perp.  A quiver table belongs to a Dynkin
    quiver (``QuiverBackend`` refuses any other by ``QuiverSpec.is_dynkin``),
    and a wide subcategory W of a Dynkin category is generated by an
    exceptional sequence, so W = perp(W^perp) (Geigle-Lenzing 1991;
    Ingalls-Thomas 2009).  Together perp(S^perp) = perp(W(S)^perp) = W(S),
    and S is wide iff it is this fixed point.
    """
    return perp(backend, perp(backend, S, "right", "all"), "left", "all")


def perp(backend, S: int, side, degrees="all", universe=None) -> int:
    """The mask of the indecomposables of universe (a mask; every id if
    None) with vanishing Hom (and Ext, if degrees='all') against every
    member of the mask S; side='left' vanishes maps into S, side='right'
    vanishes maps out of S.  That is universe & ~(the OR of the backend's
    column masks, or row masks, of S's members)."""
    if side not in ("left", "right"):
        raise BackendError("side must be 'left' or 'right'")
    if degrees not in ("all", "zero_only"):
        raise BackendError("degrees must be 'all' or 'zero_only'")
    if degrees == "all" and not faults.is_active("perp-ignores-ext"):
        masks = backend.homext_cols if side == "left" else backend.homext_rows
    else:
        masks = backend.hom_cols if side == "left" else backend.hom_rows
    hit = 0
    for s in members(S):
        hit |= masks[s]
    return (full_mask(backend) if universe is None else universe) & ~hit


def generated_torsion(backend, X: int, W: int) -> int:
    """The torsion class of the wide subcategory W generated by X within W
    (all three masks): W cap perp0(X^perp0 cap W), both perps with Hom
    alone.

    Proof.  W is closed under kernels, cokernels and extensions, so it is an
    abelian length category whose short exact sequences are those of the
    ambient category with all three terms in W.  Hence a quotient in the
    ambient category of an object of W that lies in W is a quotient in W,
    and the extensions in W are the ambient ones; the least subcategory of W
    holding X and closed under quotients and extensions in the ambient
    category, keeping only what lies in W, is the least torsion class of W
    holding X.  In a length category a subcategory closed under quotients
    and extensions is a torsion class, and its torsion-free class is its
    right Hom-perp (Dickson 1966, *A torsion theory for abelian
    categories*).  F = X^perp0 cap W is closed under subobjects and
    extensions, so it is a torsion-free class of W, and its torsion class
    perp0(F) cap W holds X.  Every torsion class T of W holding X has its
    torsion-free class inside F, so T contains perp0(F) cap W.  Hom vanishes
    summand by summand, so both perps are read off ``hom_matrix`` over the
    indecomposables of W.
    """
    free = perp(backend, X, "right", "zero_only", universe=W)
    return perp(backend, free, "left", "zero_only", universe=W)


def _grow_cliques(ids: int, compatible, visit, size=0):
    """Call visit on every mask of ids that are pairwise compatible
    (compatible[i] is the mask of the ids compatible with i) and has at
    least size members, growing each in increasing id order so it is
    visited once; a growth that cannot reach size members is cut."""
    def grow(chosen, rest):
        if (chosen | rest).bit_count() < size:
            return
        if chosen.bit_count() >= size:
            visit(chosen)
        while rest:
            low = rest & -rest
            rest ^= low
            grow(chosen | low, rest & compatible[low.bit_length() - 1])
    grow(0, ids)


@memoized_in(memo)
def wide_census(backend) -> list:
    """All wide subcategories as masks, from the Hom and Ext matrices: the
    distinct ``wide_closure(S)`` over the Hom-orthogonal sets S of
    indecomposables, sorted by members.

    Proof.  A quiver table belongs to a Dynkin quiver, whose
    indecomposables are exceptional: Ext^1(X, X) = 0 and End(X) = F_p.  So
    a Hom-orthogonal set of indecomposables is a semibrick, and
    S -> filt(S), the extension closure of S, is a bijection from
    semibricks onto wide subcategories; its inverse takes W to its simple
    objects (Ringel 1976, *Representations of K-species and bimodules*).
    Every wide subcategory holding S holds filt(S), so filt(S), being wide,
    is wide_closure(S): each wide subcategory is reached exactly once.
    The growth visits only Hom-orthogonal sets, one per wide subcategory.
    """
    full = full_mask(backend)
    orthogonal = [full & ~(r | c) for r, c in zip(backend.hom_rows, backend.hom_cols)]
    found = set()
    _grow_cliques(full, orthogonal, lambda S: found.add(wide_closure(backend, S)))
    return sorted(found, key=members)


@memoized_in(memo)
def tilting_census(backend, W: int) -> list:
    """The tilting torsion classes of the wide subcategory W as masks, from
    the Hom and Ext matrices: the distinct W cap perp0(R^perp0 cap W) over
    the Ext-rigid sets R within W with rank(W) members, sorted by members.
    rank(W) is the number of Ext-projectives of W (P in W with Ext(P, W) = 0).

    Proof.  W is equivalent to the representations of an acyclic quiver with
    rank(W) vertices whose Ext^1 is the ambient one (Ingalls-Thomas 2009), and
    its projectives are the Ext-projectives of W.  A torsion class T of W
    into whose objects every object of W embeds (``is_tilting_in``) holds
    the injectives of W, since such an embedding splits and T is closed
    under summands; a torsion class holding the injectives is Fac(M) for the
    tilting module M of its Ext-projectives, and M -> Fac(M) is a bijection
    from basic tilting modules onto these classes (Smalo 1984;
    Assem-Simson-Skowronski, *Elements*, VI.6).  Over a hereditary algebra
    a basic module with Ext^1(M, M) = 0 is tilting iff it has rank many
    summands (Bongartz 1981), so the basic tilting modules are the Ext-rigid
    sets R above.  Fac(R) is a torsion class, so it is the least one holding
    R: ``generated_torsion(backend, R, W)``.  An Ext-rigid set within W has
    at most rank(W) members, so the growth visits those of rank(W) alone.
    """
    rank = _ext_free(W, backend.homext_rows, backend.hom_rows).bit_count()
    rigid = {}  # each self-orthogonal id of W -> the ids of W it is Ext-orthogonal to
    for i in members(W):
        ext = (backend.homext_rows[i] & ~backend.hom_rows[i]
               | backend.homext_cols[i] & ~backend.hom_cols[i])
        if not ext >> i & 1:
            rigid[i] = W & ~ext
    found = set()
    _grow_cliques(mask_of(rigid), rigid,
                  lambda R: found.add(generated_torsion(backend, R, W)), rank)
    return sorted(found, key=members)


def torsion_decompose(backend, obj: Obj, T) -> tuple:
    """Split obj as (torsion part in T, free part in T^perp0), for T a set
    of ids.

    The torsion part is the trace of T in obj: the subrepresentation
    spanned by the images of all maps out of T's indecomposables.
    """
    T = check_ids(backend, T)
    if not subcat_flags(backend, T).is_torsion_class:
        raise BackendError("subcategory is not a torsion class")
    if not obj:
        return (), ()
    rep = backend.obj_rep(obj)
    cols = [[] for _ in range(backend.spec.vertices)]
    for t in members(T):
        for f in backend.hom_basis((t,), obj):
            for v, m in enumerate(f):
                cols[v].extend(zip(*m))
    bases = [la.rref(c, backend.p)[0] for c in cols]  # a basis of each span
    torsion = backend.decompose_rep(backend._sub_rep(rep, bases))
    free = backend.decompose_rep(backend._quot_rep(rep, bases))
    return torsion, free


def is_tilting_in(backend, N: int, W: int) -> bool:
    """True iff every object of the wide subcategory W embeds into a finite
    sum of objects of N (both masks): iff N holds every Ext-injective of W,
    an i in W with Ext(x, i) = 0 for every x in W.

    Proof.  W is wide, so it is an abelian length category whose short
    exact sequences are the ambient ones with all three terms in W, and it
    is equivalent to the representations of an acyclic quiver
    (Ingalls-Thomas 2009); its injectives are the Ext-injectives above and
    every object of W embeds into a sum of them.  So if N holds them, every
    object of W embeds into a sum of objects of N.  Conversely, a
    monomorphism from an Ext-injective I into a sum of objects of N has its
    cokernel in W, so it splits, and I, indecomposable, is a summand of one
    of them (Krull-Schmidt): I lies in N.  Ext vanishes summand by summand,
    so the test reads the Ext masks of the indecomposables of W.
    """
    if N & ~W:
        raise BackendError("N must be contained in W")
    return not _ext_free(W, backend.homext_cols, backend.hom_cols) & ~N


def enumerate_subcats(backend, flags=()):
    """The masks of all additively-closed subsets passing ``subcat_flags``
    with every requested flag, in bitmask order; a table of more than
    MAX_SCAN_INDECS indecomposables is refused."""
    n = len(backend.roots)
    if n > MAX_SCAN_INDECS:
        raise BackendError(f"indecomposable table too large for subset enumeration: "
                           f"{n} indecomposables, above MAX_SCAN_INDECS = {MAX_SCAN_INDECS}")
    out = []
    for S in range(1 << n):
        fl = subcat_flags(backend, S)
        if all(getattr(fl, f) for f in flags):
            out.append(S)
    return out
