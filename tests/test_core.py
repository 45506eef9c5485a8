import itertools
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

import numpy_fplinalg as nla
from conftest import HIGHEST_ROOT_SPECS, id_by_dims, is_mono, kernel_realizations, scan_census, torsion_scan
from tstructkit import core, derived
from tstructkit.derived import enumerate_narrow_sequences
from tstructkit.core import (classify_subcat, closure, enumerate_subcats,
                             ext_injectives, generated_torsion, is_closed,
                             is_tilting_in, perp, tilting_census,
                             torsion_decompose, wide_census)
from tstructkit.quiver import BackendError, Morphism, QuiverSpec, _combine, _mm, build_backend


def all_ids(backend):
    return frozenset(backend.all_ids())


def test_closure_of_simples_under_extensions_is_everything(a2, a2_ids):
    S1, S2 = a2_ids["S1"], a2_ids["S2"]
    assert closure(a2, {S1, S2}, ("extensions",)) == all_ids(a2)


def test_closure_without_the_needed_rule_is_smaller(a2, a2_ids):
    S1, P1 = a2_ids["S1"], a2_ids["P1"]
    assert closure(a2, {P1, S1}, ("cokernels", "extensions")) == \
        frozenset({P1, S1})
    # adding kernels pulls in the socle
    assert closure(a2, {P1, S1}, ("cokernels", "kernels", "extensions")) == \
        all_ids(a2)


def test_is_closed_matches_closure(a2):
    for s in a2.subsets():
        for rules in (("extensions",), ("cokernels", "extensions"),
                      ("images", "extensions")):
            assert is_closed(a2, s, rules) == (closure(a2, s, rules) == s)


def test_classify_flags_on_a2(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    f = classify_subcat(a2, frozenset({P1, S1}))
    assert f.is_narrow and not f.is_wide
    f = classify_subcat(a2, frozenset({S1}))
    assert f.is_narrow and f.is_wide and f.is_nullity
    f = classify_subcat(a2, frozenset({P1, S1}))
    assert f.is_nullity and f.is_torsion_class
    f = classify_subcat(a2, frozenset({P1, S2}))
    assert not f.is_narrow and not f.is_nullity  # quotient S1 of P1 escapes
    f = classify_subcat(a2, frozenset({S2, S1}))
    assert not f.is_narrow  # not extension-closed: misses P1


def test_a2_census(a2):
    assert len(enumerate_subcats(a2, ("is_torsion_class",))) == 5
    assert len(enumerate_subcats(a2, ("is_wide",))) == 5
    assert len(enumerate_subcats(a2, ("is_narrow",))) == 6


def test_a3_census(a3):
    # linear A3: Tamari-style torsion-class count
    assert len(enumerate_subcats(a3, ("is_torsion_class",))) == 14


def test_enumerate_subcats_is_in_bitmask_order(a2):
    out = enumerate_subcats(a2, ())
    masks = [sum(1 << i for i in s) for s in out]
    assert masks == sorted(masks)


def test_perp_examples(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    assert perp(a2, {S2}, "right", "all") == frozenset({S1})
    # Hom(P1,S2)=0 and Ext(P1,S2)=0, so P1 survives on the left
    assert perp(a2, {S2}, "left", "all") == frozenset({P1})
    assert perp(a2, {S1}, "right", "zero_only") == frozenset({S2, P1})
    assert perp(a2, {P1, S1}, "right", "zero_only") == frozenset({S2})
    assert perp(a2, all_ids(a2), "left", "all") == frozenset()


def test_perp_universe_restriction(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    assert perp(a2, {S2}, "left", "all", universe=frozenset({S1, S2})) == \
        frozenset()


def test_torsion_decompose(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    # {S1} is a torsion class with torsionfree part {S2, P1}: Hom(S1, P1) = 0
    T = frozenset({S1})
    assert torsion_decompose(a2, (P1,), T) == ((), (P1,))
    assert torsion_decompose(a2, (S1, S2), T) == ((S1,), (S2,))
    T2 = frozenset({P1, S1})
    assert torsion_decompose(a2, (P1,), T2) == ((P1,), ())
    assert torsion_decompose(a2, (P1, S2), T2) == ((P1,), (S2,))


def test_ext_injectives(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    C = all_ids(a2)
    # injectives of the A2 module category: P1 (=injective envelope of S2) and S1
    assert ext_injectives(a2, C) == frozenset({P1, S1})
    assert ext_injectives(a2, frozenset({P1, S1})) == frozenset({P1, S1})


def test_search_bounds_are_read_at_call_time(monkeypatch):
    """A test varies a bound by monkeypatching its constant on a fresh
    backend, since memo keys do not carry the bound."""
    b = build_backend(QuiverSpec(2, ((0, 1),), 2))
    monkeypatch.setattr(core, "MULT_BOUND", 1)
    assert core.candidates(b.all_ids()) == [(i,) for i in b.all_ids()]
    monkeypatch.setattr(core, "MAX_SCAN_INDECS", 2)
    with pytest.raises(BackendError, match="too large"):
        enumerate_subcats(b)


def test_readme_lists_every_search_bound():
    """The README's "Search bounds" bullets name exactly the ``*_BOUND``
    and ``MAX_SCAN_INDECS`` constants of ``core`` and ``derived``, each
    with its value."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Search bounds\n", 1)[1].split("\n## ", 1)[0]
    listed = dict(re.findall(r"^- `(\w+\.\w+) = (\d+)`", section, re.M))
    constants = {f"{mod.__name__.rsplit('.', 1)[1]}.{name}": str(value)
                 for mod in (core, derived) for name, value in vars(mod).items()
                 if name.endswith("_BOUND") or name == "MAX_SCAN_INDECS"}
    assert listed == constants


def split_injective_test(backend, S, I) -> bool:
    """True iff every monomorphism I -> M with M in S splits, trying the
    morphisms one per line."""
    S = frozenset(S)
    for m in core.candidates(S):
        for f in backend.morphisms((I,), m):
            if not is_mono(backend, f):
                continue
            if not any(_retracts_up_to_scalar(backend, f, g)
                       for g in backend.morphisms(m, (I,))):
                return False
    return True


def _retracts_up_to_scalar(backend, f, g):
    """Whether g o f is c times the identity for one c != 0, so that g / c
    is a retraction of f (``morphisms`` yields g only up to a scalar)."""
    scalars = set()
    for v, d in enumerate(backend.obj_dims(f.source)):
        if d:
            comp = _mm(g.mat(v), f.mat(v), d, backend.p)
            c = comp[0][0]
            scalars.add(c)
            if comp != tuple(tuple(c * (r == k) for k in range(d)) for r in range(d)):
                return False
    return len(scalars) == 1 and 0 not in scalars


def test_split_injective(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    assert split_injective_test(a2, all_ids(a2), S1)
    assert not split_injective_test(a2, all_ids(a2), S2)  # S2 -> P1 does not split


def every_morphism(backend, x, y):
    basis = backend.hom_basis(x, y)
    for coeffs in itertools.product(range(backend.p), repeat=len(basis)):
        if any(coeffs):
            yield Morphism(x, y, _combine(basis, coeffs, backend.p))


def splits_by_search(backend, S, I):
    """Reference oracle for ``split_injective_test``: some morphism back,
    among all of them (not one per line), composes to the identity."""
    dims, p = backend.obj_dims((I,)), backend.p
    for m in core.candidates(S):
        mdims = backend.obj_dims(m)
        for f in every_morphism(backend, (I,), m):
            if is_mono(backend, f) and not any(
                    all(np.array_equal(nla.mm(nla.array(g.mat(v), d, e), nla.array(f.mat(v), e, d), p),
                                       np.eye(d, dtype=np.int64))
                        for v, (d, e) in enumerate(zip(dims, mdims)))
                    for g in every_morphism(backend, m, (I,))):
                return False
    return True


@pytest.mark.parametrize("spec", [QuiverSpec(2, ((0, 1),), 5), QuiverSpec(3, ((0, 1), (1, 2)), 3)])
def test_split_injective_over_lines_equals_the_search(spec):
    b = build_backend(spec)
    for S in b.subsets():
        for i in S:
            assert split_injective_test(b, S, i) == splits_by_search(b, S, i), (S, i)


def test_tilting(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    W = all_ids(a2)
    assert is_tilting_in(a2, frozenset({P1, S1}), W)
    assert not is_tilting_in(a2, frozenset({S1}), W)  # S2 has no mono into S1-sums
    with pytest.raises(BackendError, match="contained"):
        is_tilting_in(a2, W, frozenset({S1}))


def tilting_by_search(backend, N, W, copies, found):
    """Reference oracle for ``is_tilting_in``: every indecomposable of W
    outside N has a monomorphism (one per line) into a sum of at most
    ``copies`` indecomposables of N.  found memoises, per indecomposable,
    the searches over the members of N it maps to."""
    for w in sorted(W - N):
        usable = tuple(n for n in sorted(N) if backend.hom_matrix[w][n] > 0)
        key = (w, usable, copies)
        if key not in found:
            wd = backend.indecs[w].dims
            found[key] = any(
                is_mono(backend, f)
                for r in range(1, copies + 1)
                for tgt in itertools.combinations_with_replacement(usable, r)
                if all(t >= d for t, d in zip(backend.obj_dims(tgt), wd))
                for f in backend.morphisms((w,), tgt))
        if not found[key]:
            return False
    return True


def subsets_of(W):
    ids = sorted(W)
    return [frozenset(c) for r in range(len(ids) + 1) for c in itertools.combinations(ids, r)]


A3_LINEAR = ((0, 1), (1, 2))
A3_INTO_MIDDLE = ((0, 1), (2, 1))
A4 = QuiverSpec(4, ((0, 1), (1, 2), (2, 3)), 2)


@pytest.mark.parametrize("spec", [
    QuiverSpec(2, ((0, 1),), 2),
    QuiverSpec(3, A3_LINEAR, 2),
    QuiverSpec(3, A3_INTO_MIDDLE, 2),
    QuiverSpec(3, A3_LINEAR, 3),
    A4,
], ids=["A2", "A3", "A3-into-middle", "A3-F3", "A4"])
def test_torsion_and_tilting_formulas_equal_the_searches(spec):
    """The matrix predicates against the searches they replaced: the torsion
    flag against the quotient and extension scan on every subset, the
    torsion test in a wide W against the same scan inside W, and the tilting
    test against the monomorphism search into sums of 4 and of 5 copies, on
    every subset of every wide W."""
    b = build_backend(spec)
    for S in b.subsets():
        assert classify_subcat(b, S).is_nullity == torsion_scan(b, S), S
    found = {}
    for W in wide_census(b):
        for t in subsets_of(W):
            assert (generated_torsion(b, t, W) == t) == torsion_scan(b, t, W), (t, W)
            tilting = is_tilting_in(b, t, W)
            assert tilting == tilting_by_search(b, t, W, 4, found) == \
                tilting_by_search(b, t, W, 5, found), (t, W)


A3_OUT_OF_MIDDLE = ((1, 0), (1, 2))
A4_ALTERNATING = QuiverSpec(4, ((0, 1), (2, 1), (2, 3)), 2)
D4 = QuiverSpec(4, ((0, 3), (1, 3), (2, 3)), 2, (1, 1, 1, 2))  # vertex 3 is the centre
D4_CENTRE_SOURCE = QuiverSpec(4, ((1, 0), (1, 2), (1, 3)), 2, (1, 2, 1, 1))
A5 = QuiverSpec(5, ((0, 1), (1, 2), (2, 3), (3, 4)), 2, (1,) * 5)


@pytest.mark.parametrize("spec", [
    QuiverSpec(2, ((0, 1),), 2),
    QuiverSpec(3, A3_LINEAR, 2),
    QuiverSpec(3, A3_LINEAR, 3),
    QuiverSpec(3, A3_INTO_MIDDLE, 3),
    QuiverSpec(3, A3_OUT_OF_MIDDLE, 2),
    A4,
    A4_ALTERNATING,
    D4,
], ids=["A2", "A3", "A3-F3", "A3-into-middle-F3", "A3-out-of-middle", "A4",
        "A4-alternating", "D4"])
def test_narrow_and_wide_flags_equal_the_scans(spec):
    """``classify_subcat``'s narrow and wide flags, read off the Hom and Ext
    matrices, against the closure scans (``scan_flags``) on every subset."""
    b = build_backend(spec)
    for S, flags in scan_census(spec).items():
        got = classify_subcat(b, S)
        assert (got.is_narrow, got.is_wide) == flags, S


def test_wide_closure_equals_the_closure_search():
    """``wide_closure`` against the kernel, cokernel and extension closure
    search it replaced, on every subset of A2 and of four A3 variants, and
    on a seeded sample of 32 of A4's 1 024 subsets."""
    start = time.perf_counter()
    cases = [(QuiverSpec(2, ((0, 1),), 2), None), (QuiverSpec(3, A3_LINEAR, 2), None),
             (QuiverSpec(3, A3_LINEAR, 3), None), (QuiverSpec(3, A3_INTO_MIDDLE, 3), None),
             (QuiverSpec(3, A3_OUT_OF_MIDDLE, 2), None), (A4, 32)]
    for spec, sample in cases:
        b = build_backend(spec)
        subsets = list(b.subsets())
        if sample is not None:
            subsets = random.Random(20).sample(subsets, sample)
        for S in subsets:
            assert core.wide_closure(b, S) == closure(b, S, core.WIDE_RULES), (spec, S)
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("ids, shown", [({-1}, "-1"), ({7}, "7"), ({True}, "true")])
def test_api_refuses_ids_outside_the_table(ids, shown):
    """A2 has ids 0..2: -1 would index from the end, 7 past it, and True
    hashes as 1.  ``classify_subcat`` refuses on a fresh backend and again
    once {1} is memoised, which must not answer for {True}."""
    a2 = build_backend(QuiverSpec(2, ((0, 1),), 2))
    with pytest.raises(BackendError, match=f"integers in 0..2, got {shown}$"):
        classify_subcat(a2, ids)
    classify_subcat(a2, {1})
    with pytest.raises(BackendError, match=f"integers in 0..2, got {shown}$"):
        classify_subcat(a2, ids)
    for seq in (derived.SubcatSeq(0, 0, (ids,), frozenset(), frozenset({0, 1, 2})),
                derived.SubcatSeq(0, 0, (frozenset(),), frozenset(), ids)):
        with pytest.raises(BackendError, match=f"integers in 0..2, got {shown}$"):
            derived.is_narrow_sequence(a2, seq)


def test_narrow_flag_where_the_bound_2_scan_misses_a_cokernel():
    """On D4 with its centre as source, the map from the indecomposable of
    dimension (1, 2, 1, 1) into the sum of the three of dimension
    (0, 1, 0, 1), (0, 1, 1, 0) and (1, 1, 0, 0) is injective with the simple
    at the centre as cokernel.  Its target has three summands, so the scan
    at ``MULT_BOUND = 2`` misses it and calls the four closed under
    extensions and cokernels; the sums of three that a bound of 3 tries hold
    it.  The matrix flag says not narrow."""
    b = build_backend(D4_CENTRE_SOURCE)
    top = id_by_dims(b, (1, 2, 1, 1))
    target = tuple(sorted(id_by_dims(b, d) for d in ((0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0))))
    S = frozenset(target + (top,))
    assert not classify_subcat(b, S).is_narrow
    assert core.MULT_BOUND == 2 and is_closed(b, S, ("extensions", "cokernels"))
    assert target in core.candidates(S, 3)
    centre = id_by_dims(b, (0, 1, 0, 0))
    assert ((), (top,), (centre,)) in b.part_sets((top,), target)


def test_census_counts_from_the_literature():
    """Counts of every subset's flags: narrow subcategories are the large
    Schroeder numbers on A_n (Enomoto 2022) and 120 on D4; wide
    subcategories and torsion classes are the Coxeter-Catalan numbers Cat(W)
    (Ingalls-Thomas 2009).  A5's 15 indecomposables are beyond
    ``enumerate_subcats``, so every count runs over ``backend.subsets()``."""
    start = time.perf_counter()
    cases = [(QuiverSpec(1, (), 2), 2, 2), (QuiverSpec(2, ((0, 1),), 2), 6, 5),
             (QuiverSpec(3, A3_LINEAR, 2), 22, 14), (A4, 90, 42), (A5, 394, 132),
             (D4, 120, 50), (D4_CENTRE_SOURCE, 120, 50)]
    for spec, narrow, wide in cases:
        b = build_backend(spec)
        flags = [classify_subcat(b, S) for S in b.subsets()]
        assert sum(f.is_narrow for f in flags) == narrow, spec
        assert sum(f.is_wide for f in flags) == wide, spec
        assert sum(f.is_torsion_class for f in flags) == wide, spec
    assert time.perf_counter() - start < 5.0


def test_kernel_realizations(a2, a2_ids):
    S1, S2, P1 = a2_ids["S1"], a2_ids["S2"], a2_ids["P1"]
    hits = list(kernel_realizations(a2, frozenset({P1, S1}), S2))
    assert hits  # S2 = ker(P1 -> S1)
    for src, tgt in hits:
        assert set(src) <= {P1, S1} and set(tgt) <= {P1, S1}
    assert not list(kernel_realizations(a2, frozenset({S1}), S2))


@pytest.mark.parametrize("spec, wides, tilting, narrow", [
    (A4, 42, 14, 90),  # A_n: Catalan(n + 1) wides, Catalan(n) tilting classes
    (D4, 50, 20, 120),
    (A5, 132, 42, 394),
    (HIGHEST_ROOT_SPECS["D5"], 182, 77, None),
    (HIGHEST_ROOT_SPECS["D6"], 672, 294, None),
    (HIGHEST_ROOT_SPECS["E6"], 833, 418, None),
    (HIGHEST_ROOT_SPECS["E7"], 4160, 2431, None),
    (HIGHEST_ROOT_SPECS["E8"], 25080, None, None),
])
def test_census_counts_without_the_scan(spec, wides, tilting, narrow):
    """Wide subcategories, tilting torsion classes of the whole category, and
    narrow subcategories counted as the sum over wides W of #tilting(W).
    The wide and tilting counts are the Coxeter-Catalan numbers Cat(W)
    (Ingalls-Thomas 2009) and the positive Catalan numbers Cat+(W)
    (Buan-Marsh-Reineke-Reiten-Todorov 2006; Fomin-Reading 2005).  E8's
    17 342 tilting classes take several seconds and are not counted; its
    wide census takes about 2.5 s."""
    start = time.perf_counter()
    b = build_backend(spec)
    assert spec.is_dynkin
    census = wide_census(b)
    assert len(census) == wides
    if tilting is not None:
        assert len(tilting_census(b, b.all_ids())) == tilting
    if narrow is not None:
        assert sum(len(tilting_census(b, w)) for w in census) == narrow
    assert time.perf_counter() - start < 10.0


def test_a5_is_beyond_the_subset_scan():
    b = build_backend(A5)
    assert len(b.roots) == 15
    with pytest.raises(BackendError, match="too large.*15 indecomposables, above MAX_SCAN_INDECS = 14"):
        enumerate_subcats(b, ("is_wide",))
    with pytest.raises(BackendError, match="too large"):
        enumerate_narrow_sequences(b, 0, 1)

