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
import operator
from dataclasses import dataclass

from . import fplinalg as la

Obj = tuple  # sorted tuple of indecomposable ids; () is the zero object

MORPHISM_SPACE_LIMIT = 18  # refuse to enumerate Hom or Ext spaces above p^this


class BackendError(Exception):
    pass


@dataclass(frozen=True)
class QuiverSpec:
    """An acyclic quiver with a prime base field."""

    vertices: int
    arrows: tuple  # tuple of (source, target) pairs, 0-based
    field: int = 2
    dim_bound: tuple = ()  # unread; perfbench/workloads.py still passes it as the fourth argument

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
        and optional ``field``; any other key is ignored.  A malformed file
        raises a ``BackendError`` naming the offending key."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise BackendError("quiver file must hold a JSON object")
        for key in ("vertices", "arrows"):
            if key not in data:
                raise BackendError(f"quiver file lacks the required key {key!r}")
        return QuiverSpec(vertices=data["vertices"], arrows=data["arrows"], field=data.get("field", 2))

    def euler_form(self, d, e):
        """<d, e> = sum_v d_v e_v - sum_{s->t} d_s e_t, which is
        hom(M, N) - ext(M, N) for representations of dimension vectors d, e."""
        return sum(map(operator.mul, d, e)) - sum(d[s] * e[t] for s, t in self.arrows)

    @property
    def is_dynkin(self):
        """Whether the Tits form q(x) = euler_form(x, x) = x^T T x / 2 is
        positive definite, T = 2I - (A + A^T) with A[s][t] the number of
        arrows s -> t; by Sylvester's criterion, whether every leading
        principal minor of T is > 0.  Fraction-free (Bareiss) elimination
        keeps them integral: step k sets M[i][j] = (M[i][j] M[k][k] -
        M[i][k] M[k][j]) / prev for i, j > k, prev the previous pivot (1 at
        first), an exact division; before it M[k][k] is the minor of order
        k + 1 (Bareiss 1968), so the test stops at the first one <= 0 and
        never divides by 0.

        That is the Dynkin test: an acyclic quiver has finitely many
        indecomposables iff each connected component of its graph is A_n,
        D_n, E_6, E_7 or E_8, iff its Tits form is positive definite
        (Gabriel 1972, *Unzerlegbare Darstellungen I*)."""
        n = self.vertices
        m = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for s, t in self.arrows:
            m[s][t] -= 1
            m[t][s] -= 1
        prev = 1
        for k in range(n):
            if m[k][k] <= 0:
                return False
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return True

    @functools.cached_property
    def positive_roots(self):
        """The positive roots in (total dimension, vector) order.  A quiver
        that is not Dynkin (``is_dynkin``) has infinitely many, and is
        refused with a ``BackendError`` before the walk starts.

        A walk: start from the simple roots and step d -> d + e_v whenever
        the new vector has connected support and Tits form q <= 1,
        q(x) = euler_form(x, x).

        Each step reads d, q(d) and the arrows at v alone.  Write n_v(d)
        for the sum of d_u over the arrows between v and another vertex u,
        either way round, each arrow counted once.  The quiver has no
        loops, so only the square of the v-th entry and the arrow terms at
        v change:

            q(d + e_v) = q(d) + 2 d_v + 1 - n_v(d).

        Every visited vector has connected support (a simple root's, or it
        was checked on the step that reached it), so supp(d) + {v} is
        connected iff v lies in supp(d) or an arrow joins v to a vertex of
        supp(d), that is iff d_v + n_v(d) > 0: n_v(d) is a sum of entries
        d_u >= 0 and is 0 exactly when no neighbour of v lies in supp(d).

        q is positive definite and integral, so q(d) >= 1 for every d != 0,
        and a visited vector has q = 1: it is a positive root (for a
        positive definite q, the positive roots are the nonzero x >= 0
        with q(x) = 1; Gabriel 1972).  They are finitely many (q <= 1 is
        a bounded ellipsoid), so the walk stops.  It visits each of them: a
        positive root that is not simple is a positive root plus a simple
        root, because the positive part of the Kac-Moody algebra is
        generated by the e_i, and every positive root has connected support
        and q = 1, so the walk takes each step of such a chain up from a
        simple root.
        """
        if not self.is_dynkin:
            raise BackendError("quiver is not Dynkin (its Tits form is not positive definite): "
                               "it has infinitely many indecomposables")
        n = self.vertices
        near = [[] for _ in range(n)]  # per vertex, the other end of each arrow at it
        for s, t in self.arrows:
            near[s].append(t)
            near[t].append(s)
        q = {tuple(int(w == v) for w in range(n)): 1 for v in range(n)}  # visited vector -> q
        todo = list(q)
        while todo:
            d = todo.pop()
            for v in range(n):
                e = d[:v] + (d[v] + 1,) + d[v + 1:]
                nv = sum(d[u] for u in near[v])
                qe = q[d] + 2 * d[v] + 1 - nv
                if e in q or not d[v] + nv or qe > 1:
                    continue
                q[e] = qe
                todo.append(e)
        return tuple(sorted(q, key=lambda dv: (sum(dv), dv)))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


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
    mats: tuple  # per arrow (s, t): dims[t] row tuples of dims[s] ints in 0..p-1

    @property
    def total_dim(self):
        return sum(self.dims)


def rep_from_arrays(spec, dims, arrays):
    """The Rep with the given arrow matrices (rows of ints, laid out as in
    ``Rep.mats``), entries reduced mod p."""
    p = spec.field
    return Rep(tuple(dims), tuple(tuple(tuple(x % p for x in row) for row in a) for a in arrays))


@dataclass(frozen=True)
class Morphism:
    """A homomorphism of representations, one matrix per vertex."""

    source: Obj
    target: Obj
    mats: tuple  # per vertex v: target dims[v] row tuples of source dims[v] ints

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

    The constructor refuses a quiver that is not Dynkin
    (``QuiverSpec.is_dynkin``: it has infinitely many indecomposables) with
    the ``BackendError`` of ``QuiverSpec.positive_roots``.  It reads the
    spec alone: the ids are the positive roots (``roots``, one
    indecomposable per root, Gabriel), and the Hom and Ext matrices and the
    path order follow from the roots and the Euler form.  No representation
    is built there.  ``indecs``, one brick per root in the order of
    ``roots``, is built on first use by ``_build_table``, when a method
    that works on representations (``obj_rep``, ``hom_basis``,
    ``part_sets``, ``middle_terms``, ``decompose_rep``, ...) first asks for
    it; the censuses, ``classify_subcat`` and ``enumerate`` read the
    matrices alone.

    After construction the instance is read-only: the table, once built,
    and the Hom/Ext matrices are fixed, and the one memo dictionary
    ``_memo`` (filled by the ``_memoized`` methods) only accretes values of
    pure functions of their arguments.  Hom bases are memoised between
    indecomposables only (``_indec_homs``); those between objects are
    assembled from them.  Closure-layer results that depend on injected
    faults live in ``core.memo`` instead.
    """

    def __init__(self, spec: QuiverSpec):
        self.roots = spec.positive_roots
        self._memo = {}
        self.spec = spec
        self.p = spec.field
        # <d, e> = d . pulled(e), pulled(e)_v = e_v - sum over arrows v -> t of e_t
        pulled = [list(e) for e in self.roots]
        for e, pe in zip(self.roots, pulled):
            for s, t in spec.arrows:
                pe[s] -= e[t]
        euler = [[sum(map(operator.mul, d, pe)) for pe in pulled] for d in self.roots]
        self.hom_matrix, self.ext_matrix = _hom_ext_of_dynkin(euler)
        # back substitution steps of _ids_from_homs: each id, latest in the
        # path order first, with the later ids it has maps to
        self._hom_steps = [(i, [(j, h) for j, h in enumerate(self.hom_matrix[i]) if h and j != i])
                           for i in reversed(_path_order(self.hom_matrix))]

    # ------------------------------------------------------------------
    # table construction

    @functools.cached_property
    def indecs(self) -> list[Rep]:
        """One brick per positive root, in the order of ``roots``
        (``_build_table``, run on first use)."""
        return self._build_table()

    def _build_table(self):
        """One representative of each indecomposable, in (total dimension,
        vector) order: one per vector of ``roots``.

        The walk of ``QuiverSpec.positive_roots`` visits a vector only when
        it can carry an indecomposable:

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
        of every dimension vector (keep a rep unless an entry splits off it
        or is isomorphic to it) adds nothing there either.

        The quiver is Dynkin (the constructor accepted it), the visited
        vectors are ``QuiverSpec.positive_roots``, and each carries exactly
        one indecomposable, which is a brick: End = F_p (Gabriel 1972; Ringel
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
        return [Rep(dv, tuple(((1,) * dv[s],) * dv[t] for s, t in spec.arrows)) if max(dv) <= 1
                else next(rep for rep in self._all_reps(dv) if self._rep_hom_dim(rep, rep) == 1)
                for dv in self.roots]

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
                arrays.append([flat[k * c:(k + 1) * c] for k in range(r)])
            yield rep_from_arrays(spec, dv, arrays)

    # ------------------------------------------------------------------
    # linear-algebra layer on representations

    def _ringel_map(self, a, b):
        """The matrix of Ringel's map (+)_v Hom(a_v, b_v) -> (+)_{a: s->t}
        Hom(a_s, b_t), phi -> (b_a phi_s - phi_t a_a)_a, whose kernel is
        Hom(a, b) and whose cokernel is Ext^1(a, b), as a list of rows.

        Columns run over the per-vertex blocks phi_v (b_v x a_v, row-major)
        from ``_vertex_starts(a, b)``; rows run over the arrows, the
        (b_t x a_s) block of each in row-major order.  Entry (r, c) of
        b_a phi_s - phi_t a_a is sum_q b_a[r][q] phi_s[q][c] -
        sum_q phi_t[r][q] a_a[q][c]."""
        p = self.p
        starts = _vertex_starts(a, b)
        rows = []
        for i, (s, t) in enumerate(self.spec.arrows):
            am, bm = a.mats[i], b.mats[i]
            for r in range(b.dims[t]):
                for c in range(a.dims[s]):
                    row = [0] * starts[-1]
                    for q in range(b.dims[s]):
                        row[starts[s] + q * a.dims[s] + c] = bm[r][q]
                    for q in range(a.dims[t]):
                        row[starts[t] + r * a.dims[t] + q] = -am[q][c] % p
                    rows.append(row)
        return rows

    def _rep_hom_basis(self, a, b):
        """Basis of Hom(a, b) as tuples of per-vertex matrices: the
        nullspace of ``_ringel_map(a, b)``, cut into its vertex blocks."""
        starts = _vertex_starts(a, b)
        return [tuple(tuple(vec[o + r * ad:o + (r + 1) * ad] for r in range(bd))
                      for o, ad, bd in zip(starts, a.dims, b.dims))
                for vec in la.nullspace(self._ringel_map(a, b), starts[-1], self.p)]

    def _rep_hom_dim(self, a, b):
        return _vertex_starts(a, b)[-1] - la.rank(self._ringel_map(a, b), self.p)

    # ------------------------------------------------------------------
    # objects (multisets of indecomposable ids)

    def obj_dims(self, obj: Obj):
        dims = (0,) * self.spec.vertices
        for i in obj:
            dims = tuple(d + e for d, e in zip(dims, self.roots[i]))
        return dims

    @_memoized
    def obj_rep(self, obj: Obj) -> Rep:
        """The direct sum of the entries of obj, block diagonal in summand
        order: each arrow matrix stacks the strips of its summands."""
        dims, starts = self.obj_dims(obj), self._summand_starts(obj)
        arrays = [sum((_embed(self.indecs[k].mats[ai], 0, at[s], self.indecs[k].dims[t], dims[s])
                       for k, at in zip(obj, starts)), ())
                  for ai, (s, t) in enumerate(self.spec.arrows)]
        return rep_from_arrays(self.spec, dims, arrays)

    def hom_dim(self, x: Obj, y: Obj) -> int:
        return sum(self.hom_matrix[i][j] for i in x for j in y)

    def ext_dim(self, x: Obj, y: Obj) -> int:
        return sum(self.ext_matrix[i][j] for i in x for j in y)

    @_memoized
    def decompose_rep(self, rep) -> Obj:
        """Multiset of indecomposable ids isomorphic to rep."""
        if rep.total_dim == 0:
            return ()
        return self._ids_from_homs([self._rep_hom_dim(ind, rep) for ind in self.indecs], rep.dims)

    def _ids_from_homs(self, homs, dims) -> Obj:
        """The multiset of ids of the rep M of dimension vector ``dims`` with
        hom(indecs[i], M) = homs[i].  With multiplicities m_j,
        homs[i] = sum_j hom_matrix[i][j] m_j, and the Hom matrix is
        unitriangular in ``_path_order``, so the m_j follow by back
        substitution, the latest id first.  A negative multiplicity or a
        dimension vector other than ``dims`` means that the Hom vector or
        the table is wrong, and is refused."""
        mult = [0] * len(self.roots)
        total = (0,) * self.spec.vertices
        for i, later in self._hom_steps:
            m = mult[i] = homs[i] - sum(h * mult[j] for j, h in later)
            if m < 0:
                raise BackendError("object does not decompose over the table")
            total = tuple(t + m * d for t, d in zip(total, self.roots[i]))
        if total != tuple(dims):
            raise BackendError("object does not decompose over the table")
        return tuple(i for i, m in enumerate(mult) for _ in range(m))

    # ------------------------------------------------------------------
    # morphisms between objects

    @_memoized
    def _indec_homs(self, i, j):
        """Basis of Hom(X_i, X_j) between two table entries; the only Hom
        bases memoised, so at most n^2 entries for n indecomposables."""
        return self._rep_hom_basis(self.indecs[i], self.indecs[j])

    def _summand_starts(self, obj: Obj):
        """Per summand of obj, its first row at each vertex in ``obj_rep``."""
        starts, at = [], (0,) * self.spec.vertices
        for i in obj:
            starts.append(at)
            at = tuple(a + d for a, d in zip(at, self.roots[i]))
        return starts

    def hom_basis(self, x: Obj, y: Obj):
        """Basis of Hom(x, y) as tuples of per-vertex matrices, in the layout
        of ``obj_rep``, which is block diagonal in summand order.

        Hom is additive, Hom((+)_a X_a, (+)_b Y_b) = (+)_{a,b} Hom(X_a, Y_b),
        so each ``_indec_homs`` basis element of Hom(X_a, Y_b) is placed in
        the rows of Y_b and the columns of X_a.  Nothing is memoised here."""
        xd, yd = self.obj_dims(x), self.obj_dims(y)
        y_starts = self._summand_starts(y)
        basis = []
        for i, cols in zip(x, self._summand_starts(x)):
            for j, rows in zip(y, y_starts):
                if not self.hom_matrix[i][j]:
                    continue
                for g in self._indec_homs(i, j):
                    basis.append(tuple(map(_embed, g, rows, cols, yd, xd)))
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
            yield Morphism(x, y, _combine(basis, coeffs, self.p))

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
        src = self.obj_rep(f.source)
        tgt = self.obj_rep(f.target)
        # kernel: nullspace at each vertex, arrows restrict
        kbases = [la.nullspace(m, d, self.p) for m, d in zip(f.mats, src.dims)]
        ker = self._sub_rep(src, kbases)
        # image: column spaces, arrows restrict from the target rep
        ibases = [la.column_space(m, self.p) for m in f.mats]
        img = self._sub_rep(tgt, ibases)
        cok = self._quot_rep(tgt, ibases)
        return ker, img, cok

    def _sub_rep(self, ambient, bases):
        """The subrepresentation spanned by per-vertex bases (lists of
        independent vectors, assumed arrow-invariant)."""
        spec = self.spec
        dims = tuple(map(len, bases))
        arrays = []
        for i, (s, t) in enumerate(spec.arrows):
            mapped = _apply(ambient.mats[i], bases[s], self.p)
            if dims[t] == 0:
                if any(map(any, mapped)):
                    raise BackendError("subspace tuple is not arrow-invariant")
                arrays.append(())
                continue
            arrays.append(la.coords_in_basis(bases[t], mapped, self.p))
        return rep_from_arrays(spec, dims, arrays)

    def _quot_rep(self, ambient, bases):
        """Quotient of ambient by the subrepresentation spanned by bases:
        each arrow acts on the unit-vector complements of ``complement_basis``,
        and the complement coordinates of the images are kept."""
        spec = self.spec
        comps = [la.complement_basis(b, d, self.p) for b, d in zip(bases, ambient.dims)]
        arrays = []
        for i, (s, t) in enumerate(spec.arrows):
            coords = la.coords_in_basis(list(bases[t]) + comps[t],
                                        _apply(ambient.mats[i], comps[s], self.p), self.p)
            arrays.append(coords[len(bases[t]):])
        return rep_from_arrays(spec, tuple(map(len, comps)), arrays)

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
        complement of the image (the column span of ``_ringel_map``) meets
        each class once, so its vectors give every middle term.  Conjugating by
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
        basis = la.complement_basis(list(zip(*ringel)), len(ringel), p)
        e = len(basis)
        if e > MORPHISM_SPACE_LIMIT:
            raise BackendError("Ext space too large to enumerate")
        deltas = [(i, self._connecting_maps(i, quot, b, basis)) for i in self.all_ids()
                  if self.hom_dim((i,), quot) and self.ext_dim((i,), sub)]
        split_homs = [self.hom_dim((i,), split) for i in self.all_ids()]
        hom_vectors = set()
        for coeffs in _lines(e, p):
            homs = list(split_homs)
            for i, maps in deltas:
                homs[i] -= la.rank(_lincomb(maps, coeffs, p), p)
            hom_vectors.add(tuple(homs))
        dims = self.obj_dims(split)
        return sorted({split} | {self._ids_from_homs(h, dims) for h in hom_vectors})

    def _connecting_maps(self, i, quot, b, basis):
        """For c = X_i and a = ``obj_rep(quot)``: per vector eps of
        ``basis`` (laid out as the rows of ``_ringel_map(a, b)``), the
        ext(c, b) x hom(c, a) matrix of f -> class of (eps_a f_s)_a, from
        Hom(c, a) on the ``hom_basis`` basis to the complement coordinates
        of Ext^1(c, b) (laid out as the rows of ``_ringel_map(c, b)``)."""
        spec, p = self.spec, self.p
        c, a = self.indecs[i], self.obj_rep(quot)
        homs = self.hom_basis((i,), quot)
        pulled = []
        for eps in basis:
            blocks, off = [], 0
            for s, t in spec.arrows:
                n = a.dims[s]
                blocks.append([eps[off + r * n:off + (r + 1) * n] for r in range(b.dims[t])])
                off += b.dims[t] * n
            for f in homs:
                pulled.append(tuple(x for blk, (s, t) in zip(blocks, spec.arrows)
                                    for row in _mm(blk, f[s], c.dims[s], p) for x in row))
        ringel = self._ringel_map(c, b)
        image = la.column_space(ringel, p)
        coords = la.coords_in_basis(image + la.complement_basis(image, len(ringel), p), pulled, p)
        h = len(homs)
        return [[row[k * h:(k + 1) * h] for row in coords[len(image):]] for k in range(len(basis))]

    # ------------------------------------------------------------------
    # enumeration interface

    def all_ids(self):
        return tuple(range(len(self.roots)))

    def subsets(self):
        """All additively-closed subcategories, in bitmask order: the subset
        of mask m | 2^i, for m < 2^i, is the subset of m plus {i}, so the
        masks 2^i .. 2^(i+1) - 1 are the earlier subsets, each grown by i."""
        subs = [frozenset()]
        yield subs[0]
        for i in range(len(self.roots)):
            grown = [s | {i} for s in subs]
            yield from grown
            subs += grown


def _vertex_starts(a, b):
    """Where each per-vertex block phi_v (b_v x a_v, row-major) of the
    columns of ``_ringel_map(a, b)`` starts, then their total."""
    return list(itertools.accumulate((ad * bd for ad, bd in zip(a.dims, b.dims)), initial=0))


def _embed(block, r, c, nrows, ncols):
    """The nrows x ncols matrix holding ``block`` from row r and column c,
    zero elsewhere."""
    zero, width = (0,) * ncols, len(block[0]) if block else 0
    left, right = (0,) * c, (0,) * (ncols - c - width)
    return (zero,) * r + tuple(left + row + right for row in block) + (zero,) * (nrows - r - len(block))


def _mm(a, b, ncols, p):
    """a @ b mod p, for a matrix b with ncols columns (b may have no rows)."""
    cols = list(zip(*b)) if b else [()] * ncols
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a)


def _apply(m, vecs, p):
    """The images m @ v mod p of the vectors vecs."""
    return [tuple(sum(x * y for x, y in zip(row, v)) % p for row in m) for v in vecs]


def _lines(n, p):
    """One coefficient vector per line through 0 of F_p^n, the one whose
    first nonzero entry is 1; (p^n - 1)/(p - 1) of them."""
    for k in range(n):
        for tail in itertools.product(range(p), repeat=n - k - 1):
            yield (0,) * k + (1,) + tail


def _lincomb(mats, coeffs, p):
    """sum_k coeffs[k] * mats[k] mod p, for matrices of one shape."""
    return tuple(tuple(sum(c * x for c, x in zip(coeffs, entries)) % p for entries in zip(*rows))
                 for rows in zip(*mats))


def _combine(basis, coeffs, p):
    """sum_k coeffs[k] * basis[k] mod p, vertex by vertex, for tuples of
    per-vertex matrices."""
    return tuple(_lincomb(mats, coeffs, p) for mats in zip(*basis))


def _hom_ext_of_dynkin(euler):
    """The Hom and Ext^1 matrices of a Dynkin table from its Euler matrix
    euler[i][j] = <dim X_i, dim X_j> = hom(X_i, X_j) - ext(X_i, X_j).

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
    return (tuple(tuple(e if e > 0 else 0 for e in row) for row in euler),
            tuple(tuple(-e if e < 0 else 0 for e in row) for row in euler))


def _path_order(hom):
    """The ids of a Dynkin table in an order refining the path order of its
    AR quiver, so that the Hom matrix H is upper unitriangular in it.

    H has ones on the diagonal (every entry is a brick), and H[i][j] != 0
    for i != j means a nonzero map X_i -> X_j between distinct
    indecomposables, a path from X_i to X_j in the AR quiver, which is
    acyclic (see ``_hom_ext_of_dynkin``).  So the relation H[i][j] != 0 has
    no cycle, and any topological order of it is such an order: here the
    reverse postorder of a depth-first search."""
    n, postorder, seen = len(hom), [], set()

    def visit(i):
        seen.add(i)
        for j in range(n):
            if hom[i][j] and j not in seen:
                visit(j)
        postorder.append(i)

    for i in range(n):
        if i not in seen:
            visit(i)
    return postorder[::-1]


def build_backend(spec: QuiverSpec) -> QuiverBackend:
    return QuiverBackend(spec)
