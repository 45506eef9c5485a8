"""Subcategory calculus over a finite hereditary backend.

Subcategories of a finite backend are additively-closed sets of
indecomposable ids (frozensets).  Closures and the closure predicates are
decided on direct sums of at most ``MULT_BOUND`` of the subcategory's
indecomposables: morphisms and subobjects by exhaustive enumeration,
extensions by the backend's ``middle_terms``, which builds one middle term
per Ext^1 class.

The search depths (``MULT_BOUND``, ``COPY_BOUND``, ``MAX_SCAN_INDECS``)
are module constants, not parameters.  Memo keys do not carry them, so a
caller that varies one, by monkeypatching it, must use a fresh backend.

The wide census (``wide_census``), the tilting torsion classes of a wide
subcategory (``tilting_census``) and the torsion class a set generates in a
wide subcategory (``generated_torsion``, which ``refined.psi`` glues with)
are read off the Hom and Ext matrices of an untruncated table as perps, with
no subset scan and no closure.  The scans and closures that decide the same
sets from the closure predicates (``enumerate_subcats``, ``classify_subcat``,
``is_tilting_in``, ``closure``) stay as their oracles.

Memo rule for this layer and the two built on it (derived, refined): every
result that depends on the closure predicates or on ``perp`` is stored in
``memo(backend)``, the backend's dict for the active fault set, so a value
computed under one set of injected faults is never read under another.  The
backend's own memo holds only pure representation-theoretic data (see
QuiverBackend).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import faults
from .quiver import BackendError, Obj

Subcat = frozenset

RULES = ("cokernels", "kernels", "quotients", "subobjects", "extensions", "images")

WIDE_RULES = ("kernels", "cokernels", "extensions")

MULT_BOUND = 2  # summands of each object the closure scans try
COPY_BOUND = 4  # summands of a target in the monomorphism search of is_tilting_in
MAX_SCAN_INDECS = 14  # largest table enumerate_subcats scans (2^n subsets)


def obj_in(S: Subcat, obj: Obj) -> bool:
    return all(i in S for i in obj)


def candidates(S: Subcat, bound: int | None = None):
    """Direct sums of up to bound indecomposables of S, zero excluded; bound
    defaults to MULT_BOUND, read at call time."""
    ids = sorted(S)
    out = []
    for r in range(1, (MULT_BOUND if bound is None else bound) + 1):
        for combo in itertools.combinations_with_replacement(ids, r):
            out.append(tuple(combo))
    return out


def _violations(backend, S, rules, ambient):
    """Yield (rule, produced Obj) for every one-step rule application whose
    result leaves S.  With an ambient set, results escaping the ambient do
    not count (they are not objects of the ambient subcategory)."""
    bad = set(rules) - set(RULES)
    if bad:
        raise BackendError(f"unknown closure rules: {sorted(bad)}")
    rules = set(rules)
    if faults.is_active("drop-extension-closure"):
        rules.discard("extensions")
    if faults.is_active("wide-closure-skips-kernels"):
        rules.discard("kernels")
    cands = candidates(S)

    def ok(obj):
        return obj_in(S, obj)

    def in_ambient(obj):
        return ambient is None or obj_in(ambient, obj)

    mor_rules = [r for r in ("kernels", "cokernels", "images") if r in rules]
    if mor_rules:
        for a in cands:
            for b in cands:
                for ker, img, cok in backend.part_sets(a, b):
                    for rule, part in (("kernels", ker), ("cokernels", cok), ("images", img)):
                        if rule in mor_rules and in_ambient(part) and not ok(part):
                            yield rule, part
    if "quotients" in rules or "subobjects" in rules:
        for a in cands:
            for sub, quot in backend.sub_quot_pairs(a):
                if "quotients" in rules and in_ambient(quot) and not ok(quot):
                    yield "quotients", quot
                if "subobjects" in rules and in_ambient(sub) and not ok(sub):
                    yield "subobjects", sub
    if "extensions" in rules:
        for sub in cands:
            for quot in cands:
                for mid in backend.middle_terms(quot, sub):
                    if in_ambient(mid) and not ok(mid):
                        yield "extensions", mid


def memo(backend) -> dict:
    """The backend's memo for the active fault set (see the module docstring)."""
    by_faults = vars(backend).setdefault("_memo_by_faults", {})
    return by_faults.setdefault(faults.snapshot(), {})


def is_closed(backend, S, rules, ambient=None):
    S = frozenset(S)
    key = ("closed", S, tuple(sorted(rules)),
           None if ambient is None else frozenset(ambient))
    cache = memo(backend)
    if key not in cache:
        cache[key] = not any(True for _ in _violations(backend, S, rules, ambient))
    return cache[key]


def closure(backend, seed, rules) -> Subcat:
    """Least superset of seed closed under the selected rules."""
    S = frozenset(seed)
    key = ("closure", S, tuple(sorted(rules)))
    cache = memo(backend)
    hit = cache.get(key)
    if hit is not None:
        return hit
    while True:
        new = set(S)
        for _, produced in _violations(backend, S, rules, None):
            new.update(produced)
        if new == S:
            cache[key] = S
            return S
        S = frozenset(new)


@dataclass(frozen=True)
class SubcatFlags:
    is_narrow: bool
    is_wide: bool
    is_nullity: bool
    is_torsion_class: bool


def classify_subcat(backend, S) -> SubcatFlags:
    """Closure flags of an additively-closed subset, by one-step scans.

    On a finite-length backend every nullity class is coreflective, so the
    torsion-class flag coincides with the nullity flag.
    """
    S = frozenset(S)
    key = ("classify", S)
    cache = memo(backend)
    if key not in cache:
        narrow = is_closed(backend, S, ("extensions", "cokernels"))
        wide = narrow and is_closed(backend, S, ("kernels",))
        nullity = is_closed(backend, S, ("quotients", "extensions"))
        cache[key] = SubcatFlags(narrow, wide, nullity, nullity)
    return cache[key]


def perp(backend, S, side, degrees="all", universe=None) -> Subcat:
    """Indecomposables with vanishing Hom (and Ext, if degrees='all')
    against every object of S; side='left' vanishes maps into S,
    side='right' vanishes maps out of S."""
    if side not in ("left", "right"):
        raise BackendError("side must be 'left' or 'right'")
    if degrees not in ("all", "zero_only"):
        raise BackendError("degrees must be 'all' or 'zero_only'")
    if faults.is_active("perp-ignores-ext"):
        degrees = "zero_only"
    ids = backend.all_ids() if universe is None else sorted(universe)
    out = set()
    for i in ids:
        good = True
        for s in S:
            if side == "left":
                h = backend.hom_matrix[i, s]
                e = backend.ext_matrix[i, s]
            else:
                h = backend.hom_matrix[s, i]
                e = backend.ext_matrix[s, i]
            if h or (degrees == "all" and e):
                good = False
                break
        if good:
            out.add(i)
    return frozenset(out)


def generated_torsion(backend, X, W) -> Subcat:
    """The torsion class of the wide subcategory W generated by X within W:
    W cap perp0(X^perp0 cap W), both perps with Hom alone.

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
    W = frozenset(W)
    free = perp(backend, X, "right", "zero_only", universe=W)
    return perp(backend, free, "left", "zero_only", universe=W)


def _grow_cliques(ids, compatible, visit):
    """Call visit on every set of ids that are pairwise compatible,
    growing each in increasing id order so it is visited once."""
    def grow(chosen, rest):
        visit(chosen)
        for k, i in enumerate(rest):
            grow(chosen + (i,), [j for j in rest[k + 1:] if compatible(i, j)])
    grow((), list(ids))


def _by_members(sets):
    return sorted(sets, key=lambda s: tuple(sorted(s)))


def wide_census(backend) -> list:
    """All wide subcategories, from the Hom and Ext matrices: the distinct
    W(S) = perp(perp(S, right), left) over the Hom-orthogonal sets S of
    indecomposables (both perps with Hom and Ext), sorted by members.

    Proof.  An untruncated table belongs to a Dynkin quiver (see
    ``QuiverSpec.truncated``), whose indecomposables are
    exceptional: Ext^1(X, X) = 0 and End(X) = F_p.  So a Hom-orthogonal set
    of indecomposables is a semibrick, and S -> filt(S), the extension
    closure of S, is a bijection from semibricks onto wide subcategories;
    its inverse takes W to its simple objects (Ringel 1976, *Representations
    of K-species and bimodules*).  Since Ext^2 vanishes, the long exact
    sequences carry Hom- and Ext-vanishing against S along extensions, so
    S^perp = filt(S)^perp.  A wide subcategory W of a Dynkin category is
    generated by an exceptional sequence, hence W = perp(W^perp)
    (Geigle-Lenzing 1991, *Perpendicular categories*; Ingalls-Thomas 2009).
    Together W(S) = filt(S): each wide subcategory is reached exactly once.
    The growth visits only Hom-orthogonal sets, one per wide subcategory.
    """
    backend.refuse_truncated()
    cache = memo(backend)
    if "wide-census" not in cache:
        hom = backend.hom_matrix
        found = []
        _grow_cliques(backend.all_ids(), lambda i, j: hom[i, j] == 0 and hom[j, i] == 0,
                      lambda S: found.append(perp(backend, perp(backend, S, "right", "all"),
                                                  "left", "all")))
        cache["wide-census"] = _by_members(set(found))
    return cache["wide-census"]


def tilting_census(backend, W) -> list:
    """The tilting torsion classes of the wide subcategory W, from the Hom
    and Ext matrices: the distinct W cap perp0(R^perp0 cap W) over the
    Ext-rigid sets R within W with rank(W) members, sorted by members.
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
    R: ``generated_torsion(backend, R, W)``.
    """
    W = frozenset(W)
    backend.refuse_truncated()
    cache = memo(backend)
    key = ("tilting-census", W)
    if key not in cache:
        ext = backend.ext_matrix
        rank = sum(1 for p in W if not any(ext[p, x] for x in W))
        found = []

        def visit(R):
            if len(R) == rank:
                found.append(generated_torsion(backend, R, W))

        _grow_cliques(sorted(i for i in W if ext[i, i] == 0),
                      lambda i, j: ext[i, j] == 0 and ext[j, i] == 0, visit)
        cache[key] = _by_members(set(found))
    return cache[key]


def torsion_decompose(backend, obj: Obj, T) -> tuple:
    """Split obj as (torsion part in T, free part in T^perp0).

    The torsion part is the trace of T in obj: the subrepresentation
    spanned by the images of all maps out of T's indecomposables.
    """
    T = frozenset(T)
    if not classify_subcat(backend, T).is_torsion_class:
        raise BackendError("subcategory is not a torsion class")
    if not obj:
        return (), ()
    import numpy as np
    from . import fplinalg as la

    rep = backend.obj_rep(obj)
    cols = [[] for _ in range(backend.spec.vertices)]
    for t in sorted(T):
        for f in backend.hom_basis((t,), obj):
            for v in range(backend.spec.vertices):
                for j in range(f[v].shape[1]):
                    cols[v].append(f[v][:, j])
    bases = []
    for v in range(backend.spec.vertices):
        if cols[v]:
            mat = np.column_stack(cols[v])
            bases.append(la.column_space(mat, backend.p))
        else:
            bases.append(np.zeros((rep.dims[v], 0), dtype=np.int64))
    torsion = backend.decompose_rep(backend._sub_rep(rep, bases))
    free = backend.decompose_rep(backend._quot_rep(rep, bases))
    return torsion, free


def ext_injectives(backend, C) -> Subcat:
    """Indecomposables I of C with Ext(X, I) = 0 for every X in C."""
    C = frozenset(C)
    if not classify_subcat(backend, C).is_narrow:
        raise BackendError("ext_injectives requires a narrow subcategory")
    return frozenset(i for i in C if all(backend.ext_matrix[x, i] == 0 for x in C))


def is_tilting_in(backend, N, W) -> bool:
    """True iff every indecomposable of W embeds into a finite sum of
    objects of N (monomorphism search bounded by COPY_BOUND summands)."""
    N = frozenset(N)
    W = frozenset(W)
    if not N <= W:
        raise BackendError("N must be contained in W")
    key = ("tilting", N, W)
    cache = memo(backend)
    hit = cache.get(key)
    if hit is not None:
        return hit
    cache[key] = _tilting_search(backend, N, W)
    return cache[key]


def _tilting_search(backend, N, W) -> bool:
    for w in sorted(W):
        if w in N:
            continue
        wd = backend.indecs[w].dims
        found = False
        usable = [n for n in sorted(N) if backend.hom_matrix[w, n] > 0]
        for r in range(1, COPY_BOUND + 1):
            for combo in itertools.combinations_with_replacement(usable, r):
                tgt = tuple(combo)
                td = backend.obj_dims(tgt)
                if any(t < d for t, d in zip(td, wd)):
                    continue
                for f in backend.morphisms((w,), tgt):
                    if backend.is_mono(f):
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return False
    return True


def split_injective_test(backend, S, I) -> bool:
    """True iff every monomorphism I -> M with M in S splits."""
    S = frozenset(S)
    for m in candidates(S):
        for f in backend.morphisms((I,), m):
            if not backend.is_mono(f):
                continue
            if not any(_composes_to_identity(backend, f, g)
                       for g in backend.morphisms(m, (I,))):
                return False
    return True


def _composes_to_identity(backend, f, g):
    import numpy as np

    sd = backend.obj_dims(f.source)
    for v in range(backend.spec.vertices):
        fm = f.mat(v)
        gm = g.mat(v)
        comp = (gm @ fm) % backend.p if fm.size and gm.size else np.zeros((sd[v], sd[v]), dtype=np.int64)
        if not np.array_equal(comp, np.eye(sd[v], dtype=np.int64)):
            return False
    return True


def kernel_realizations(backend, S, target_id):
    """Epimorphisms between bounded sums of S whose kernel is the given
    indecomposable; yields (source, target) witnesses."""
    S = frozenset(S)
    for a in candidates(S):
        for b in candidates(S):
            for f in backend.morphisms(a, b):
                if not backend.is_epi(f):
                    continue
                ker, _, _ = backend.morphism_parts(f)
                if ker == (target_id,):
                    yield a, b


def enumerate_subcats(backend, flags=()):
    """All additively-closed subsets passing classify_subcat with every
    requested flag, in bitmask order; a table of more than MAX_SCAN_INDECS
    indecomposables is refused."""
    n = len(backend.indecs)
    if n > MAX_SCAN_INDECS:
        raise BackendError("indecomposable table too large for subset enumeration")
    out = []
    for S in backend.subsets():
        fl = classify_subcat(backend, S)
        if all(getattr(fl, f) for f in flags):
            out.append(S)
    return out
