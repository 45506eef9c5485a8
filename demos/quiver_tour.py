"""A walk through the finite-field quiver backend.

We build the module category of the path algebra of the quiver
``0 -> 1`` over F_2 (three indecomposables: the two simples and the
projective cover of the source simple), then explore the closure
operators and subcategory censuses the classification machinery is
built from.

Run with:  python3 demos/quiver_tour.py
"""

from tstructkit.core import (closure, enumerate_subcats, is_tilting_in, mask_of,
                             members, perp, torsion_decompose)
from tstructkit.quiver import QuiverSpec, build_backend


def name_of(backend, i):
    return {(0, 1): "S2", (1, 0): "S1", (1, 1): "P1"}[backend.roots[i]]


def show(backend, s):
    return "{" + ", ".join(sorted(name_of(backend, i) for i in s)) + "}"


def main():
    backend = build_backend(QuiverSpec(vertices=2, arrows=((0, 1),), field=2))
    print("indecomposables:")
    for i in backend.all_ids():
        print(f"  {name_of(backend, i)}  dims={backend.roots[i]}")

    # Hom and Ext between indecomposables drive everything downstream.
    ids = {name_of(backend, i): i for i in backend.all_ids()}
    P1, S1, S2 = ids["P1"], ids["S1"], ids["S2"]
    print(f"\nhom(P1, S1) = {backend.hom_dim((P1,), (S1,))}"
          f"   ext(S1, S2) = {backend.ext_dim((S1,), (S2,))}")

    # Closure under extensions alone already recovers the whole category
    # from the two simples; without kernels, {P1, S1} is stable.
    print("\nclosure({S1, S2}, extensions) =",
          show(backend, members(closure(backend, mask_of({S1, S2}), ("extensions",)))))
    print("closure({P1, S1}, cokernels+extensions) =",
          show(backend, members(closure(backend, mask_of({P1, S1}), ("cokernels", "extensions")))))

    # The censuses behind the classification: 5 torsion classes, 5 wide
    # subcategories, 6 narrow ones.  The computing functions take and return
    # subcategories as int masks, bit i set for id i.
    for flag in ("is_torsion_class", "is_wide", "is_narrow"):
        hits = enumerate_subcats(backend, (flag,))
        print(f"\n{flag}: {len(hits)}")
        for s in hits:
            print("  ", show(backend, members(s)))

    # Perpendicular subcategories and torsion decompositions.
    print("\nleft perp of {S2} (Hom and Ext vanish) =",
          show(backend, members(perp(backend, mask_of({S2}), "left", "all"))))
    tor, free = torsion_decompose(backend, (P1,), frozenset({S1}))
    print("torsion decomposition of P1 against {S1}:",
          show(backend, set(tor)), "+", show(backend, set(free)))

    # {P1, S1} is a tilting torsion class: every indecomposable embeds
    # into a finite sum of its objects; {S1} alone is not.
    whole = mask_of(backend.all_ids())
    print("\n{P1, S1} tilting in the whole category:",
          is_tilting_in(backend, mask_of({P1, S1}), whole))
    print("{S1} tilting in the whole category:",
          is_tilting_in(backend, mask_of({S1}), whole))


if __name__ == "__main__":
    main()
