import contextlib
import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tstructkit import core, dedekind as dd, derived, faults, fplinalg as la
from tstructkit.quiver import BackendError, QuiverSpec, _apply, build_backend, memoized_in

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_python_process(*argv, text=True, timeout=None):
    """Run ``python *argv`` as a subprocess from the repo root, so relative
    demo paths resolve, importing ``tstructkit`` from this checkout's
    ``src/`` ahead of any inherited ``PYTHONPATH``.  Past ``timeout``
    seconds the process is killed and ``subprocess.TimeoutExpired`` raised."""
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = str(REPO_ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=text, cwd=REPO_ROOT, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": pythonpath})


def run_cli_process(*argv, text=True, timeout=None):
    """Run ``python -m tstructkit.cli`` with ``run_python_process``."""
    return run_python_process("-m", "tstructkit.cli", *argv, text=text, timeout=timeout)


def scan_flags(backend, S):
    """(narrow, wide) of the mask S by the bounded closure scans: S is
    narrow if it is closed under extensions and cokernels, and wide if it
    is narrow and closed under kernels too.  The oracle of
    ``subcat_flags``' matrix flags."""
    narrow = core.is_closed(backend, S, ("extensions", "cokernels"))
    return narrow, narrow and core.is_closed(backend, S, ("kernels",))


@functools.cache
def scan_census(spec):
    """``scan_flags`` of every mask, in bitmask order, on a fresh backend
    of spec, computed once per session: the D4 scan takes several seconds
    and more than one test compares against it."""
    b = build_backend(spec)
    return {S: scan_flags(b, S) for S in range(1 << len(b.roots))}


# ---------------------------------------------------------------------------
# searches that the Hom/Ext formulas of the program replaced, kept as oracles

def is_mono(backend, f) -> bool:
    return all(la.rank(m, backend.p) == d for m, d in zip(f.mats, backend.obj_dims(f.source)))


def is_epi(backend, f) -> bool:
    return all(la.rank(m, backend.p) == d for m, d in zip(f.mats, backend.obj_dims(f.target)))


def kernel_realizations(backend, S, target_id):
    """Epimorphisms between bounded sums of the mask S whose kernel is the
    given indecomposable; yields (source, target) witnesses."""
    for a in core.candidates(S):
        for b in core.candidates(S):
            for f in backend.morphisms(a, b):
                if not is_epi(backend, f):
                    continue
                ker, _, _ = backend.morphism_parts(f)
                if ker == (target_id,):
                    yield a, b


@memoized_in(core.memo)
def tilting_torsion_classes(backend, w):
    """All tilting torsion classes inside the wide subcategory w, as masks
    sorted by members: the subsets t of the mask w that are the torsion
    class they generate in w (``core.generated_torsion``) and pass
    ``core.is_tilting_in``.  The scan is the oracle of
    ``core.tilting_census``; it memoises in ``core.memo``, so its answers
    follow the active fault set."""
    ids = core.members(w)
    found = []
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            t = core.mask_of(combo)
            if core.generated_torsion(backend, t, w) == t and core.is_tilting_in(backend, t, w):
                found.append(t)
    return sorted(found, key=core.members)


# ---------------------------------------------------------------------------
# the frozenset forms of the mask functions of core, kept as their oracles

def set_perp(backend, S, side, degrees="all", universe=None) -> frozenset:
    """``core.perp`` over frozensets, entry by entry of the Hom and Ext
    matrices; the fault ``perp-ignores-ext`` drops Ext as in the program."""
    if faults.is_active("perp-ignores-ext"):
        degrees = "zero_only"
    ids = backend.all_ids() if universe is None else sorted(universe)
    out = set()
    for i in ids:
        good = True
        for s in S:
            if side == "left":
                h = backend.hom_matrix[i][s]
                e = backend.ext_matrix[i][s]
            else:
                h = backend.hom_matrix[s][i]
                e = backend.ext_matrix[s][i]
            if h or (degrees == "all" and e):
                good = False
                break
        if good:
            out.add(i)
    return frozenset(out)


def set_generated_torsion(backend, X, W) -> frozenset:
    """``core.generated_torsion`` over frozensets."""
    W = frozenset(W)
    free = set_perp(backend, X, "right", "zero_only", universe=W)
    return set_perp(backend, free, "left", "zero_only", universe=W)


def set_wide_closure(backend, S) -> frozenset:
    """``core.wide_closure`` over frozensets."""
    return set_perp(backend, set_perp(backend, S, "right", "all"), "left", "all")


# ---------------------------------------------------------------------------
# helpers that only the tests call

def full_subcat(backend) -> frozenset:
    return frozenset(backend.all_ids())


def seq_of(backend, lo, hi, entries, below, above):
    """The ``derived.SubcatSeq`` on [lo, hi] with entries N(lo), ..., N(hi)
    and the tails below and above, each given as a collection of ids:
    ``core.check_ids`` forms each mask and refuses an id outside the table."""
    return derived.SubcatSeq(lo, hi, tuple(core.check_ids(backend, s) for s in (below, *entries, above)))


def shift(x: dict, n: int) -> dict:
    """The derived object x[n]: homology x_k moved to degree k + n."""
    return {k + n: v for k, v in x.items()}


def restrict(backend, seq, k=None, l=None):
    """The restriction of a preaisle to degrees [k, l]: zero below k, the
    original values on [k, l], the wide closure of the value at l
    (``core.wide_closure``) above."""
    if k is not None and l is not None and k > l:
        raise BackendError("restriction needs k <= l")

    def value(n):
        if k is not None and n < k:
            return 0
        if l is not None and n > l:
            return core.wide_closure(backend, seq.mask_at(l))
        return seq.mask_at(n)

    return derived.SubcatSeq(seq.lo, seq.hi, tuple(value(n) for n in range(seq.lo - 1, seq.hi + 2)))


@contextlib.contextmanager
def injected(name):
    """Run the block with the named fault active; the fault registry is
    empty after it."""
    faults.activate(name)
    try:
        yield
    finally:
        faults.clear()


def left_perp_zero(objs, family):
    """Dedekind family members with vanishing Hom into every listed group."""
    return frozenset(x for x in family if not any(dd.hom_nonzero(x, g) for g in objs))


@functools.cache
def all_subspaces(dim, p):
    """All subspaces of F_p^dim, each as the tuple of rows of its reduced
    row echelon form (a basis), by dimension and then by those rows read
    column by column."""
    vectors = list(itertools.product(range(p), repeat=dim))[1:]  # nonzero ones
    spans = {tuple(la.rref(combo, p)[0])
             for r in range(dim + 1) for combo in itertools.combinations(vectors, r)}
    return sorted(spans, key=lambda basis: (len(basis), tuple(zip(*basis))))


def subrep_bases(backend, obj):
    """All arrow-invariant subspace tuples of obj, as per-vertex bases:
    those where each arrow maps the basis at its source into the span of
    the (independent) basis at its target."""
    rep, p = backend.obj_rep(obj), backend.p
    return [combo for combo in itertools.product(*(all_subspaces(d, p) for d in rep.dims))
            if all(la.rank(combo[t] + tuple(_apply(m, combo[s], p)), p) == len(combo[t])
                   for m, (s, t) in zip(rep.mats, backend.spec.arrows) if combo[s])]


@functools.cache
def sub_quot_pairs(backend, obj):
    """All (subobject, quotient) pairs of complementary subrepresentations
    of obj, up to isomorphism, sorted."""
    rep = backend.obj_rep(obj)
    return sorted({(backend.decompose_rep(backend._sub_rep(rep, bases)),
                    backend.decompose_rep(backend._quot_rep(rep, bases)))
                   for bases in subrep_bases(backend, obj)})


def subobjects(backend, obj):
    return sorted({sub for sub, _ in sub_quot_pairs(backend, obj)})


def quotients(backend, obj):
    return sorted({quot for _, quot in sub_quot_pairs(backend, obj)})


def quotients_leaving(backend, S, ambient=None):
    """Yield the quotients of the sums of at most ``core.MULT_BOUND`` members
    of the mask S that lie outside S; with an ambient mask, only those
    inside it."""
    for a in core.candidates(S):
        for q in quotients(backend, a):
            if (ambient is None or core.obj_in_mask(ambient, q)) and not core.obj_in_mask(S, q):
                yield q


def torsion_scan(backend, S, ambient=None):
    """Whether the mask S is closed under quotients and extensions by the
    bounded search, counting only what lies in the mask ambient: the oracle
    of the torsion tests read off the Hom matrix."""
    return (next(quotients_leaving(backend, S, ambient), None) is None
            and core.is_closed(backend, S, ("extensions",), ambient))


# Dynkin quivers of types D5-E8 and their highest roots (the largest entry
# of any positive root at each vertex); E_n is a chain with a branch vertex
# (listed last) on the third chain vertex, and E6 is demos/quivers/e6.json
HIGHEST_ROOT_SPECS = {
    "D5": QuiverSpec(5, ((0, 1), (1, 2), (2, 3), (2, 4)), 2),
    "D6": QuiverSpec(6, ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5)), 2),
    "E6": QuiverSpec(6, ((0, 1), (1, 2), (2, 3), (3, 4), (5, 2)), 2),
    "E7": QuiverSpec(7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)), 2),
    "E8": QuiverSpec(8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)), 2),
}
HIGHEST_ROOTS = {
    "D5": (1, 2, 2, 1, 1),
    "D6": (1, 2, 2, 2, 1, 1),
    "E6": (1, 2, 3, 2, 1, 2),
    "E7": (2, 3, 4, 3, 2, 1, 2),
    "E8": (2, 4, 6, 5, 4, 3, 2, 3),
}


@pytest.fixture(scope="session")
def a1():
    return build_backend(QuiverSpec(1, (), 2))


@pytest.fixture(scope="session")
def a2():
    return build_backend(QuiverSpec(2, ((0, 1),), 2))


@pytest.fixture(scope="session")
def a3():
    return build_backend(QuiverSpec(3, ((0, 1), (1, 2)), 2))


def id_by_dims(backend, dims):
    """The table id of the unique indecomposable with the given dimension
    vector, for fixtures where that is unambiguous."""
    hits = [i for i, root in enumerate(backend.roots) if root == tuple(dims)]
    assert len(hits) == 1, f"expected one indecomposable with dims {dims}, found {hits}"
    return hits[0]


@pytest.fixture(scope="session")
def a2_ids(a2):
    return {"S2": id_by_dims(a2, (0, 1)), "S1": id_by_dims(a2, (1, 0)),
            "P1": id_by_dims(a2, (1, 1))}
