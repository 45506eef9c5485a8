"""Finite-dimensional representations of an acyclic quiver over a prime field.

This backend realizes a hereditary abelian category with a finite list of
indecomposables.  Objects are multisets of indecomposable ids, morphisms are
tuples of matrices commuting with the arrow maps, and all structure
(Hom, Ext, kernels, cokernels, subrepresentations) is computed by exact
linear algebra over F_p.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import fplinalg as la

Obj = tuple  # sorted tuple of indecomposable ids; () is the zero object

MORPHISM_SPACE_LIMIT = 18  # refuse to enumerate Hom or Ext spaces above p^this


class BackendError(Exception):
    pass


@dataclass(frozen=True)
class QuiverSpec:
    """An acyclic quiver with a prime base field and an enumeration bound.

    ``dim_bound`` caps the dimension at each vertex of the representations
    the indecomposable table is searched over (default 2 at every vertex).
    Each entry is an integer >= 1, so every simple lies in the box.
    """

    vertices: int
    arrows: tuple  # tuple of (source, target) pairs, 0-based
    field: int = 2
    dim_bound: tuple = ()

    def __post_init__(self):
        if not _is_int(self.vertices) or self.vertices < 1:
            raise BackendError(f"vertices must be an integer >= 1, got {self.vertices!r}")
        if not (isinstance(self.arrows, (list, tuple))
                and all(isinstance(a, (list, tuple)) and len(a) == 2 and all(map(_is_int, a))
                        for a in self.arrows)):
            raise BackendError(f"arrows must be a list of [source, target] integer pairs, got {self.arrows!r}")
        if not _is_int(self.field):
            raise BackendError(f"field must be an integer, got {self.field!r}")
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in self.arrows))
        if not self.dim_bound:
            object.__setattr__(self, "dim_bound", tuple(2 for _ in range(self.vertices)))
        else:
            object.__setattr__(self, "dim_bound", tuple(self.dim_bound))
        if len(self.dim_bound) != self.vertices:
            raise BackendError("dim_bound length must match vertex count")
        if not all(_is_int(b) and b >= 1 for b in self.dim_bound):
            raise BackendError(f"dim_bound entries must be integers >= 1, got {list(self.dim_bound)}")
        if self.field < 2 or not _is_prime(self.field):
            raise BackendError("field size must be a prime (prime powers beyond primes unsupported)")
        for (s, t) in self.arrows:
            if not (0 <= s < self.vertices and 0 <= t < self.vertices):
                raise BackendError("arrow endpoint out of range")
        if _has_cycle(self.vertices, self.arrows):
            raise BackendError("quiver must be acyclic")

    @staticmethod
    def from_json(path):
        """The spec of a JSON object with keys ``vertices`` and ``arrows``
        and optional ``field`` and ``dim_bound`` (a list); a malformed file
        raises a ``BackendError`` naming the offending key."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise BackendError("quiver file must hold a JSON object")
        for key in ("vertices", "arrows"):
            if key not in data:
                raise BackendError(f"quiver file lacks the required key {key!r}")
        dim_bound = data.get("dim_bound", [])
        if not isinstance(dim_bound, list):
            raise BackendError(f"dim_bound must be a list, got {dim_bound!r}")
        return QuiverSpec(
            vertices=data["vertices"],
            arrows=data["arrows"],
            field=data.get("field", 2),
            dim_bound=tuple(dim_bound),
        )

    def euler_form(self, d, e):
        """<d, e> = sum_v d_v e_v - sum_{s->t} d_s e_t, which is
        hom(M, N) - ext(M, N) for representations of dimension vectors d, e."""
        total = sum(dv * ev for dv, ev in zip(d, e))
        for (s, t) in self.arrows:
            total -= d[s] * e[t]
        return total

    def _may_be_indecomposable(self, dv):
        """Connected support and Tits form at most 1 (see
        ``QuiverBackend._build_table``)."""
        support = {v for v, d in enumerate(dv) if d}
        return _is_connected(support, self.arrows) and self.euler_form(dv, dv) <= 1

    @functools.cached_property
    def positive_roots(self):
        """The positive roots in (total dimension, vector) order, or None
        when some indecomposable lies outside the ``dim_bound`` box.

        A walk: start from the simple roots (inside the box, since every
        bound is >= 1) and step d -> d + e_v whenever the new vector has
        connected support and q <= 1 (``_may_be_indecomposable``); stop
        with None at the first such step that leaves the box.

        Some indecomposable lies outside the box iff some positive root
        does: a Dynkin quiver's indecomposables are its positive roots
        (Gabriel), and any other quiver has infinitely many positive roots,
        each carrying an absolutely indecomposable over F_p (Kac).  A
        positive root that is not simple is a positive root plus a simple
        root, because the positive part of the Kac-Moody algebra is
        generated by the e_i.  Every positive root has connected support and
        q <= 1, so the walk takes each step of such a chain up from a simple
        root until the chain first leaves the box: if a root lies outside
        the box, the walk stops with None.  Conversely a vector it stops at
        is a positive root outside the box when the quiver is Dynkin (q is
        positive definite there, so q = 1), and the box misses a root anyway
        when it is not.  If the walk never leaves the box, the quiver is
        Dynkin and every vector visited is a positive root (q = 1 again), and
        every positive root is visited (its chain stays in the box).  Only
        the spec is read, so a truncated spec is refused before any table is
        built.
        """
        n, bound = self.vertices, self.dim_bound
        seen = {tuple(int(w == v) for w in range(n)) for v in range(n)}
        todo = list(seen)
        while todo:
            d = todo.pop()
            for v in range(n):
                e = d[:v] + (d[v] + 1,) + d[v + 1:]
                if e in seen or not self._may_be_indecomposable(e):
                    continue
                if e[v] > bound[v]:
                    return None
                seen.add(e)
                todo.append(e)
        return tuple(sorted(seen, key=lambda dv: (sum(dv), dv)))

    @property
    def truncated(self):
        """Whether some indecomposable lies outside the ``dim_bound`` box
        (decided by the walk of ``positive_roots``)."""
        return self.positive_roots is None

    def refuse_truncated(self):
        """Raise a BackendError naming ``dim_bound`` if the table is truncated."""
        if self.truncated:
            raise BackendError(
                f"indecomposable table truncated by dim_bound {list(self.dim_bound)}: "
                "some indecomposable lies outside it (every bound does, unless the quiver is Dynkin)")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def _is_connected(support, arrows):
    """Whether the vertex set ``support`` is nonempty and connected by the
    arrows with both ends in it, directions ignored."""
    if not support:
        return False
    seen, todo = set(), [min(support)]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(t if s == v else s for s, t in arrows
                        if v in (s, t) and s in support and t in support)
    return seen == support


def _has_cycle(n, arrows):
    adj = {v: [] for v in range(n)}
    for s, t in arrows:
        adj[s].append(t)
    state = [0] * n

    def dfs(v):
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1:
                return True
            if state[w] == 0 and dfs(w):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and dfs(v) for v in range(n))


@dataclass(frozen=True)
class Rep:
    """A representation: a dimension vector and one matrix per arrow.

    Matrix for arrow (s, t) has shape (dims[t], dims[s]).
    """

    dims: tuple
    mats: tuple  # tuple of bytes-hashable immutable matrices stored as nested tuples

    def arrow_matrix(self, i, spec):
        s, t = spec.arrows[i]
        m = np.array(self.mats[i], dtype=np.int64) if self.mats[i] else np.zeros((0, 0), dtype=np.int64)
        return m.reshape(self.dims[t], self.dims[s])

    @property
    def total_dim(self):
        return sum(self.dims)


def rep_from_arrays(spec, dims, arrays):
    dims = tuple(int(d) for d in dims)
    mats = []
    for i, (s, t) in enumerate(spec.arrows):
        a = np.asarray(arrays[i], dtype=np.int64).reshape(dims[t], dims[s]) % spec.field
        mats.append(tuple(tuple(int(x) for x in row) for row in a))
    return Rep(dims, tuple(mats))


@dataclass(frozen=True)
class Morphism:
    """A homomorphism of representations, one matrix per vertex."""

    source: Obj
    target: Obj
    mats: tuple  # per-vertex numpy matrices (shape tgt_dim x src_dim)

    def mat(self, v):
        return self.mats[v]


def _memoized(method):
    """Memoise a QuiverBackend method in ``self._memo``, keyed on
    (method name, *args).  This layer never reads the fault registry, so the
    key carries no fault set and a faulted run reuses the same entries."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(self, *args):
        key = (name, *args)
        try:
            return self._memo[key]
        except KeyError:
            out = self._memo[key] = method(self, *args)
            return out
    return memoized


class QuiverBackend:
    """Finite hereditary backend built from a Dynkin quiver.

    The constructor refuses a truncated spec (``QuiverSpec.truncated``:
    some indecomposable lies outside the ``dim_bound`` box, so objects could
    leave the table) with a ``BackendError`` naming ``dim_bound``, before
    any representation work.

    After construction the instance is read-only: the indecomposable table
    and the Hom/Ext matrices are fixed, and the one memo dictionary
    ``_memo`` (filled by the ``_memoized`` methods) only accretes values of
    pure functions of their arguments.  Hom bases are memoised between
    indecomposables only (``_indec_homs``); those between objects are
    assembled from them.  Closure-layer results that depend on injected
    faults live in ``core.memo`` instead.
    """

    def __init__(self, spec: QuiverSpec):
        spec.refuse_truncated()
        self._memo = {}
        self.spec = spec
        self.p = spec.field
        self.indecs: list[Rep] = []
        self._build_table()
        dims = np.array([ind.dims for ind in self.indecs], dtype=np.int64).reshape(-1, spec.vertices)
        euler_matrix = np.eye(spec.vertices, dtype=np.int64)
        for s, t in spec.arrows:
            euler_matrix[s, t] -= 1
        euler = dims @ euler_matrix @ dims.T  # euler[i, j] = <dim X_i, dim X_j>
        self.hom_matrix, self.ext_matrix = _hom_ext_of_dynkin(euler)
        self._hom_inv = _unitriangular_inverse(self.hom_matrix)

    # ------------------------------------------------------------------
    # table construction

    def _build_table(self):
        """One representative of each indecomposable whose dimension vector
        lies in the ``dim_bound`` box, in (total dimension, vector) order.

        A vector is visited only when it can carry an indecomposable
        (``QuiverSpec._may_be_indecomposable``):

        (a) its support is connected in the underlying graph: a rep whose
            support splits into two parts with no arrow between them is the
            direct sum of its restrictions to the parts;
        (b) its Tits form q(d) = euler_form(d, d) is at most 1.  Over F_q an
            absolutely indecomposable rep has a root as its dimension
            vector, and every root has q <= 1 (Kac 1980, *Infinite root
            systems, representations of graphs and invariant theory*).  An
            indecomposable M that is not absolutely indecomposable splits
            over F_{q^r} into r >= 2 Galois conjugates of one absolutely
            indecomposable N, so dim M = r * beta with beta = dim N a root.
            Were beta real, N would be the only absolutely indecomposable
            of its dimension, hence defined over F_q, and Noether-Deuring
            would give M = N_0^r, which is decomposable.  So beta is
            imaginary and q(r * beta) = r^2 * q(beta) <= 0.  For a Dynkin
            quiver (a) and (b) keep exactly the positive roots (Gabriel 1972,
            *Unzerlegbare Darstellungen I*).

        A skipped vector carries no indecomposable, so a scan of every rep
        of the box (keep a rep unless an entry splits off it or is
        isomorphic to it) adds nothing there either.

        The spec is untruncated, so the quiver is Dynkin, the visited vectors
        are ``QuiverSpec.positive_roots``, and each carries exactly one
        indecomposable, which is a brick: End = F_p (Gabriel 1972; Ringel
        1984, *Tame algebras and integral quadratic forms*, LNM 1099, 2.4).
        A brick is indecomposable, and a decomposable rep has End of
        dimension >= 2.  So the first rep in ``_all_reps`` order with a
        one-dimensional End is the first indecomposable, the one entry that
        scan keeps for that vector: the table (entries and order) is the
        scan's.  A thin root (every entry <= 1) needs no search: a Dynkin
        graph is a tree, so a zero scalar on an arrow inside the support
        splits the support and the rep decomposes, while with every scalar
        nonzero End = F_p (an endomorphism is one scalar per vertex, equal
        along each arrow of the connected support).  The first such rep in
        ``_all_reps`` order has every scalar 1: each arrow inside the
        support carries the 1 x 1 matrix (1), every other arrow an empty
        one, nested as ``rep_from_arrays`` nests them.
        """
        spec = self.spec
        for dv in spec.positive_roots:
            if max(dv) <= 1:
                self.indecs.append(Rep(dv, tuple(((1,) * dv[s],) * dv[t] for s, t in spec.arrows)))
            else:
                self.indecs.append(next(rep for rep in self._all_reps(dv)
                                        if self._rep_hom_dim(rep, rep) == 1))

    def _all_reps(self, dv):
        spec = self.spec
        shapes = [(dv[t], dv[s]) for (s, t) in spec.arrows]
        spaces = []
        for (r, c) in shapes:
            entries = r * c
            spaces.append(range(self.p**entries))
        for combo in itertools.product(*spaces):
            arrays = []
            for (r, c), code in zip(shapes, combo):
                flat = []
                x = code
                for _ in range(r * c):
                    flat.append(x % self.p)
                    x //= self.p
                arrays.append(np.array(flat, dtype=np.int64).reshape(r, c))
            yield rep_from_arrays(spec, dv, arrays)

    # ------------------------------------------------------------------
    # linear-algebra layer on representations

    def _rep_hom_basis(self, a, b):
        """Basis of Hom(a, b) as lists of per-vertex matrices."""
        spec = self.spec
        nvar = sum(b.dims[v] * a.dims[v] for v in range(spec.vertices))
        if nvar == 0:
            return []
        offsets = []
        off = 0
        for v in range(spec.vertices):
            offsets.append(off)
            off += b.dims[v] * a.dims[v]
        rows = []
        for i, (s, t) in enumerate(spec.arrows):
            am = a.arrow_matrix(i, spec)
            bm = b.arrow_matrix(i, spec)
            # condition: bm @ X_s - X_t @ am = 0, entries (r, c): r < b.dims[t], c < a.dims[s]
            for r in range(b.dims[t]):
                for c in range(a.dims[s]):
                    row = np.zeros(nvar, dtype=np.int64)
                    for q in range(b.dims[s]):
                        row[offsets[s] + q * a.dims[s] + c] += bm[r, q]
                    for q in range(a.dims[t]):
                        row[offsets[t] + r * a.dims[t] + q] -= am[q, c]
                    rows.append(row % self.p)
        if rows:
            mat = np.vstack(rows)
            null = la.nullspace(mat, self.p)
        else:
            null = np.eye(nvar, dtype=np.int64)
        basis = []
        for j in range(null.shape[1]):
            vec = null[:, j]
            mats = []
            for v in range(spec.vertices):
                block = vec[offsets[v]:offsets[v] + b.dims[v] * a.dims[v]]
                mats.append(block.reshape(b.dims[v], a.dims[v]) % self.p)
            basis.append(mats)
        return basis

    def _rep_hom_dim(self, a, b):
        return len(self._rep_hom_basis(a, b))

    # ------------------------------------------------------------------
    # objects (multisets of indecomposable ids)

    def obj_dims(self, obj: Obj):
        dims = np.zeros(self.spec.vertices, dtype=np.int64)
        for i in obj:
            dims += np.array(self.indecs[i].dims, dtype=np.int64)
        return tuple(int(d) for d in dims)

    @_memoized
    def obj_rep(self, obj: Obj) -> Rep:
        spec = self.spec
        parts = [self.indecs[i] for i in obj]
        dims = self.obj_dims(obj)
        arrays = []
        for ai, (s, t) in enumerate(spec.arrows):
            blocks = [p.arrow_matrix(ai, spec) for p in parts]
            m = np.zeros((dims[t], dims[s]), dtype=np.int64)
            ro = co = 0
            for p_, b in zip(parts, blocks):
                m[ro:ro + p_.dims[t], co:co + p_.dims[s]] = b
                ro += p_.dims[t]
                co += p_.dims[s]
            arrays.append(m)
        return rep_from_arrays(spec, dims, arrays)

    def hom_dim(self, x: Obj, y: Obj) -> int:
        return int(sum(self.hom_matrix[i, j] for i in x for j in y))

    def ext_dim(self, x: Obj, y: Obj) -> int:
        return int(sum(self.ext_matrix[i, j] for i in x for j in y))

    @_memoized
    def decompose_rep(self, rep) -> Obj:
        """Multiset of indecomposable ids isomorphic to rep."""
        if rep.total_dim == 0:
            return ()
        return self._ids_from_homs([self._rep_hom_dim(ind, rep) for ind in self.indecs], rep.dims)

    def _ids_from_homs(self, homs, dims) -> Obj:
        """The multiset of ids of the rep M of dimension vector ``dims`` with
        hom(indecs[i], M) = homs[i], through the inverse of the Hom matrix.
        A negative multiplicity or a dimension vector other than ``dims``
        means that the Hom vector or the table is wrong, and is refused."""
        mult = (self._hom_inv @ np.array(homs, dtype=np.int64)).tolist()
        ids = []
        total = np.zeros(self.spec.vertices, dtype=np.int64)
        for i, m in enumerate(mult):
            if m < 0:
                raise BackendError("object does not decompose over the table")
            ids.extend([i] * m)
            total += m * np.array(self.indecs[i].dims, dtype=np.int64)
        if tuple(int(d) for d in total) != tuple(dims):
            raise BackendError("object does not decompose over the table")
        return tuple(sorted(ids))

    # ------------------------------------------------------------------
    # morphisms between objects

    @_memoized
    def _indec_homs(self, i, j):
        """Basis of Hom(X_i, X_j) between two table entries; the only Hom
        bases memoised, so at most n^2 entries for n indecomposables."""
        return self._rep_hom_basis(self.indecs[i], self.indecs[j])

    def _summand_starts(self, obj: Obj):
        """Per summand of obj, its first row at each vertex in ``obj_rep``."""
        dims = np.array([self.indecs[i].dims for i in obj], dtype=np.int64).reshape(-1, self.spec.vertices)
        return (np.cumsum(dims, axis=0) - dims).tolist()

    def hom_basis(self, x: Obj, y: Obj):
        """Basis of Hom(x, y) as lists of per-vertex matrices, in the layout
        of ``obj_rep``, which is block diagonal in summand order.

        Hom is additive, Hom((+)_a X_a, (+)_b Y_b) = (+)_{a,b} Hom(X_a, Y_b),
        so each ``_indec_homs`` basis element of Hom(X_a, Y_b) is placed in
        the rows of Y_b and the columns of X_a.  Nothing is memoised here."""
        xd, yd = self.obj_dims(x), self.obj_dims(y)
        y_starts = self._summand_starts(y)
        basis = []
        for i, cols in zip(x, self._summand_starts(x)):
            for j, rows in zip(y, y_starts):
                if not self.hom_matrix[i, j]:
                    continue
                for g in self._indec_homs(i, j):
                    mats = [np.zeros((yd[v], xd[v]), dtype=np.int64) for v in range(self.spec.vertices)]
                    for m, block, r, c in zip(mats, g, rows, cols):
                        m[r:r + block.shape[0], c:c + block.shape[1]] = block
                    basis.append(mats)
        return basis

    def morphisms(self, x: Obj, y: Obj):
        """One nonzero morphism x -> y per line through 0 of Hom(x, y): the
        F_p combinations of ``hom_basis`` whose first nonzero coefficient is
        1.  For c in F_p^x, c * f has the kernel, image and cokernel of f,
        and is mono or epi with it; so over F_p there are (p^h - 1)/(p - 1)
        of them, not p^h - 1."""
        basis = self.hom_basis(x, y)
        if len(basis) > MORPHISM_SPACE_LIMIT:
            raise BackendError("Hom space too large to enumerate")
        for coeffs in _lines(len(basis), self.p):
            yield Morphism(x, y, tuple(_combine(basis, coeffs, self.p)))

    def morphism_parts(self, f: Morphism):
        """(kernel, image, cokernel) of f, each as an Obj up to isomorphism."""
        kr, ir, cr = self.morphism_part_reps(f)
        return self.decompose_rep(kr), self.decompose_rep(ir), self.decompose_rep(cr)

    @_memoized
    def part_sets(self, x: Obj, y: Obj):
        """Distinct (kernel, image, cokernel) triples over the nonzero
        morphisms x -> y, one per line (``morphisms``)."""
        return sorted({self.morphism_parts(f) for f in self.morphisms(x, y)})

    def morphism_part_reps(self, f: Morphism):
        spec = self.spec
        src = self.obj_rep(f.source)
        tgt = self.obj_rep(f.target)
        fmats = [f.mat(v) for v in range(spec.vertices)]
        # kernel: nullspace at each vertex, arrows restrict
        kbases = [la.nullspace(fmats[v], self.p) for v in range(spec.vertices)]
        ker = self._sub_rep(src, kbases)
        # image: column spaces, arrows restrict from the target rep
        ibases = [la.column_space(fmats[v], self.p) for v in range(spec.vertices)]
        img = self._sub_rep(tgt, ibases)
        cok = self._quot_rep(tgt, ibases)
        return ker, img, cok

    def _sub_rep(self, ambient, bases):
        """The subrepresentation spanned by per-vertex bases (assumed invariant)."""
        spec = self.spec
        dims = tuple(b.shape[1] for b in bases)
        arrays = []
        for i, (s, t) in enumerate(spec.arrows):
            am = ambient.arrow_matrix(i, spec)
            mapped = _mm(am, bases[s], self.p)
            if dims[t] == 0:
                if mapped.size and la.rank(mapped, self.p) > 0:
                    raise BackendError("subspace tuple is not arrow-invariant")
                arrays.append(np.zeros((0, dims[s]), dtype=np.int64))
                continue
            coords = la.coords_in_basis(bases[t], mapped, self.p) if dims[s] else np.zeros((dims[t], 0), dtype=np.int64)
            arrays.append(coords)
        return rep_from_arrays(spec, dims, arrays)

    def _quot_rep(self, ambient, bases):
        """Quotient of ambient by the subrepresentation spanned by bases."""
        spec = self.spec
        comps = [la.complement_basis(bases[v], ambient.dims[v], self.p) for v in range(spec.vertices)]
        dims = tuple(c.shape[1] for c in comps)
        arrays = []
        for i, (s, t) in enumerate(spec.arrows):
            am = ambient.arrow_matrix(i, spec)
            if dims[t] == 0 or dims[s] == 0:
                arrays.append(np.zeros((dims[t], dims[s]), dtype=np.int64))
                continue
            full = np.concatenate([bases[t], comps[t]], axis=1)
            mapped = _mm(am, comps[s], self.p)
            coords = la.coords_in_basis(full, mapped, self.p)
            arrays.append(coords[bases[t].shape[1]:, :])
        return rep_from_arrays(spec, dims, arrays)

    def is_mono(self, f: Morphism) -> bool:
        src = self.obj_rep(f.source)
        return all(
            la.rank(f.mat(v), self.p) == src.dims[v]
            for v in range(self.spec.vertices)
        )

    def is_epi(self, f: Morphism) -> bool:
        tgt = self.obj_rep(f.target)
        return all(
            la.rank(f.mat(v), self.p) == tgt.dims[v]
            for v in range(self.spec.vertices)
        )

    # ------------------------------------------------------------------
    # subobject enumeration

    @_memoized
    def subrep_bases(self, obj: Obj):
        """All arrow-invariant subspace tuples of obj, as per-vertex bases."""
        spec = self.spec
        rep = self.obj_rep(obj)
        per_vertex = [all_subspaces(rep.dims[v], self.p) for v in range(spec.vertices)]
        out = []
        for combo in itertools.product(*per_vertex):
            ok = True
            for i, (s, t) in enumerate(spec.arrows):
                am = rep.arrow_matrix(i, spec)
                ws = combo[s]
                wt = combo[t]
                if ws.shape[1] == 0:
                    continue
                mapped = _mm(am, ws, self.p)
                stacked = np.concatenate([wt, mapped], axis=1)
                if la.rank(stacked, self.p) != la.rank(wt, self.p):
                    ok = False
                    break
            if ok:
                out.append(combo)
        return out

    def subobjects(self, obj: Obj):
        """All subobjects of obj up to isomorphism, as Objs."""
        return sorted({sub for sub, _ in self.sub_quot_pairs(obj)})

    def quotients(self, obj: Obj):
        """All quotient objects of obj up to isomorphism, as Objs."""
        return sorted({quot for _, quot in self.sub_quot_pairs(obj)})

    @_memoized
    def sub_quot_pairs(self, obj: Obj):
        """All (subobject, quotient) pairs of complementary subrepresentations."""
        rep = self.obj_rep(obj)
        seen = set()
        for bases in self.subrep_bases(obj):
            seen.add((self.decompose_rep(self._sub_rep(rep, bases)),
                      self.decompose_rep(self._quot_rep(rep, bases))))
        return sorted(seen)

    # ------------------------------------------------------------------
    # extensions

    @_memoized
    def middle_terms(self, quot: Obj, sub: Obj):
        """All M (up to iso) fitting 0 -> sub -> M -> quot -> 0, sorted.

        Write A, B for the representations of quot and sub.  At each vertex
        a short exact sequence 0 -> B -> M -> A -> 0 splits as vector
        spaces, so in adapted bases M is M_eps, the representation with
        arrow matrices [[B_a, eps_a], [0, A_a]] for some eps in
        (+)_{a: s->t} Hom(A_s, B_t); every such M_eps is an extension.
        Conjugating M_eps by [[1, phi_v], [0, 1]] for phi in
        (+)_v Hom(A_v, B_v) turns eps_a into eps_a - (B_a phi_s - phi_t A_a),
        so M_eps depends only on the class of eps modulo the image of
        Ringel's map, that is, on its class in the cokernel of

            0 -> Hom(A, B) -> (+)_v Hom(A_v, B_v) -> (+)_a Hom(A_s, B_t)
              -> Ext^1(A, B) -> 0

        (Ringel 1976, *Representations of K-species and bimodules*;
        Crawley-Boevey, *Lectures on representations of quivers*).  A
        complement of the image (``_ringel_map``) meets each class once, so
        its vectors give every middle term.  Conjugating by
        diag(c * 1_B, 1_A) sends M_eps to M_{c eps} for c != 0, so one eps
        per line through 0 (``_lines``: first nonzero coordinate 1)
        suffices, besides eps = 0, which gives B (+) A; when
        ``ext_dim(quot, sub)`` is 0 that is the only one.

        M_eps is decomposed through its Hom vector.  A morphism I -> M_eps
        is a pair (g, f) with f in Hom(I, A) and g_v: I_v -> B_v such that
        B_a g_s - g_t I_a = -eps_a f_s; so f lifts iff the class
        delta_eps(f) of (eps_a f_s)_a in Ext^1(I, B) is 0, and
        hom(I, M_eps) = hom(I, B) + hom(I, A) - rank delta_eps.  delta_eps
        is linear in eps, so the matrices of delta on the basis of eps
        (``_connecting_maps``) are built once per call, and each eps costs
        one small rank per indecomposable I with Hom(I, A) and
        Ext^1(I, B) both nonzero.  No M_eps is built as a rep, so none
        enters the memo through ``decompose_rep``.
        """
        if not sub:
            return [quot]
        if not quot:
            return [sub]
        split = tuple(sorted(quot + sub))  # eps = 0
        if not self.ext_dim(quot, sub):
            return [split]
        a, b, p = self.obj_rep(quot), self.obj_rep(sub), self.p
        ringel = self._ringel_map(a, b)
        basis = la.complement_basis(ringel, ringel.shape[0], p)
        e = basis.shape[1]
        if e > MORPHISM_SPACE_LIMIT:
            raise BackendError("Ext space too large to enumerate")
        deltas = [(i, self._connecting_maps(i, quot, b, basis)) for i in self.all_ids()
                  if self.hom_dim((i,), quot) and self.ext_dim((i,), sub)]
        split_homs = [self.hom_dim((i,), split) for i in self.all_ids()]
        hom_vectors = set()
        for coeffs in _lines(e, p):
            eps = np.array(coeffs, dtype=np.int64)
            homs = list(split_homs)
            for i, maps in deltas:
                homs[i] -= la.rank(np.tensordot(eps, maps, 1) % p, p)
            hom_vectors.add(tuple(homs))
        dims = self.obj_dims(split)
        return sorted({split} | {self._ids_from_homs(h, dims) for h in hom_vectors})

    def _ringel_map(self, a, b):
        """The matrix of Ringel's map (+)_v Hom(a_v, b_v) -> (+)_{a: s->t}
        Hom(a_s, b_t), phi -> (b_a phi_s - phi_t a_a)_a, whose kernel is
        Hom(a, b) and whose cokernel is Ext^1(a, b).

        Columns run over the per-vertex blocks in the row-major layout of
        ``_rep_hom_basis``; rows run over the arrows, the (b_t x a_s) block
        of each in row-major order.  Row-major vec(L X R) is
        kron(L, R^T) vec(X)."""
        spec = self.spec
        ncols = [b.dims[v] * a.dims[v] for v in range(spec.vertices)]
        blocks = [np.zeros((0, sum(ncols)), dtype=np.int64)]
        for i, (s, t) in enumerate(spec.arrows):
            row = [np.zeros((b.dims[t] * a.dims[s], n), dtype=np.int64) for n in ncols]
            row[s] = np.kron(b.arrow_matrix(i, spec), np.eye(a.dims[s], dtype=np.int64))
            row[t] = -np.kron(np.eye(b.dims[t], dtype=np.int64), a.arrow_matrix(i, spec).T)
            blocks.append(np.hstack(row))
        return np.vstack(blocks) % self.p

    def _connecting_maps(self, i, quot, b, basis):
        """Array of shape (len eps, ext(c, b), hom(c, a)) for c = X_i and
        a = ``obj_rep(quot)``: for each column eps of ``basis`` (laid out as
        the rows of ``_ringel_map(a, b)``), the matrix of f -> class of
        (eps_a f_s)_a, from Hom(c, a) on the ``hom_basis`` basis to the
        complement coordinates of Ext^1(c, b) (rows laid out as in
        ``_ringel_map(c, b)``)."""
        spec, p = self.spec, self.p
        c, a = self.indecs[i], self.obj_rep(quot)
        homs = self.hom_basis((i,), quot)
        pulled = []
        for eps in basis.T:
            blocks, off = [], 0
            for s, t in spec.arrows:
                blocks.append(eps[off:off + b.dims[t] * a.dims[s]].reshape(b.dims[t], a.dims[s]))
                off += b.dims[t] * a.dims[s]
            for f in homs:
                pulled.append(np.concatenate([_mm(blk, f[s], p).reshape(-1)
                                              for blk, (s, t) in zip(blocks, spec.arrows)]))
        ringel = self._ringel_map(c, b)
        image = la.column_space(ringel, p)
        full = np.concatenate([image, la.complement_basis(image, ringel.shape[0], p)], axis=1)
        coords = la.coords_in_basis(full, np.stack(pulled, axis=1), p)[image.shape[1]:]
        return coords.reshape(-1, basis.shape[1], len(homs)).transpose(1, 0, 2)

    # ------------------------------------------------------------------
    # enumeration interface

    def all_ids(self):
        return tuple(range(len(self.indecs)))

    def subsets(self):
        """All additively-closed subcategories, in bitmask order."""
        n = len(self.indecs)
        for mask in range(1 << n):
            yield frozenset(i for i in range(n) if mask >> i & 1)


@functools.cache
def all_subspaces(dim, p):
    """All subspaces of F_p^dim, each as a matrix whose columns are a basis."""
    if dim == 0:
        return [np.zeros((0, 0), dtype=np.int64)]
    vectors = []
    for code in range(1, p**dim):
        v = []
        x = code
        for _ in range(dim):
            v.append(x % p)
            x //= p
        vectors.append(np.array(v, dtype=np.int64))
    seen = {}
    # spans of all tuples of up to dim vectors; canonicalize by rref
    for r in range(0, dim + 1):
        for combo in itertools.combinations(vectors, r):
            mat = np.column_stack(combo) if combo else np.zeros((dim, 0), dtype=np.int64)
            red, piv = la.rref(mat.T, p) if combo else (np.zeros((0, dim), dtype=np.int64), [])
            basis_rows = red[:len(piv), :] if combo else red
            keyb = basis_rows.tobytes() if combo else b""
            keyb = (len(piv) if combo else 0, keyb)
            if keyb not in seen:
                seen[keyb] = basis_rows.T.copy() if combo else np.zeros((dim, 0), dtype=np.int64)
    return sorted(seen.values(), key=lambda m: (m.shape[1], m.tobytes()))


def _mm(a, b, p):
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    return (a @ b) % p


def _lines(n, p):
    """One coefficient vector per line through 0 of F_p^n, the one whose
    first nonzero entry is 1; (p^n - 1)/(p - 1) of them."""
    for k in range(n):
        for tail in itertools.product(range(p), repeat=n - k - 1):
            yield (0,) * k + (1,) + tail


def _combine(basis, coeffs, p):
    mats = [np.zeros_like(m) for m in basis[0]]
    for c, b in zip(coeffs, basis):
        if c:
            mats = [(m + c * bm) % p for m, bm in zip(mats, b)]
    return mats


def _hom_ext_of_dynkin(euler):
    """The Hom and Ext^1 matrices of a Dynkin table from its Euler matrix
    euler[i, j] = <dim X_i, dim X_j> = hom(X_i, X_j) - ext(X_i, X_j).

    For indecomposables X, Y of a Dynkin quiver, Hom(X, Y) and Ext^1(X, Y)
    are never both nonzero, so each is the positive or negative part of
    the Euler form.  Ext^1(X, Y) is 0 when X is projective, and otherwise
    Ext^1(X, Y) = D Hom(Y, tau X) by the Auslander-Reiten formula for a
    hereditary algebra.  A nonzero map between indecomposables of a
    representation-finite algebra is a sum of composites of irreducible
    maps, so Hom(X, Y) != 0 != Hom(Y, tau X) would give a path
    X -> ... -> Y -> ... -> tau X in the AR quiver, and the mesh at X a
    path tau X -> E -> X: a cycle.  The AR quiver of a Dynkin quiver is its
    preprojective component, which is acyclic: the category is
    representation-directed (Ringel 1984, *Tame algebras and integral
    quadratic forms*, LNM 1099, 2.4).
    """
    return np.maximum(euler, 0), np.maximum(-euler, 0)


def _unitriangular_inverse(hom):
    """The inverse of the Hom matrix H of a Dynkin table, in int64.

    H has ones on the diagonal (every entry is a brick), and N = H - I is
    nilpotent: N[i, j] != 0 means a nonzero map X_i -> X_j between
    distinct indecomposables, a path from X_i to X_j in the acyclic AR
    quiver, so N is strictly triangular in any order refining the AR
    quiver's path order (see ``_hom_ext_of_dynkin``).  Hence N^n = 0 and
    H^-1 = sum_{k<n} (-N)^k, summed by Horner's rule.  int64 matmuls wrap
    around, but the arithmetic is exact modulo 2^64, and the true inverse
    has small entries: H^-1 @ hom-vector gives multiplicities, and its row
    for X_i is the defect formula of the almost split sequence starting
    at X_i (or of X_i -> X_i / soc X_i when X_i is injective), with
    entries among 0, 1 and minus the multiplicities in its middle term.
    So the int64 result is the exact inverse.
    """
    n = hom.shape[0]
    eye = np.eye(n, dtype=np.int64)
    nilpotent = hom - eye
    inverse = eye
    for _ in range(n - 1):
        inverse = eye - nilpotent @ inverse
    return inverse


def build_backend(spec: QuiverSpec) -> QuiverBackend:
    return QuiverBackend(spec)
