"""From torsion classes to aisles to refined t-sequences and back.

On the derived category of a hereditary module category, every bounded
t-structure is determined by its aisle, every aisle by its narrow
sequence of homology supports, and every narrow sequence refines into a
sequence of wide subcategories with tilting torsion classes in the
perpendicular gaps.  This demo walks one aisle through the whole
pipeline and then counts everything on a window.

Run with:  python3 demos/aisles_and_refinement.py
"""

from tstructkit.derived import (aisle_from_torsion,
                                enumerate_narrow_sequences,
                                is_narrow_sequence, mu, theta_membership)
from tstructkit.quiver import QuiverSpec, build_backend
from tstructkit.refined import (enumerate_refined, psi, verify_roundtrips, xi)


def main():
    backend = build_backend(QuiverSpec(vertices=2, arrows=((0, 1),), field=2))
    names = {backend.roots[i]: i for i in backend.all_ids()}
    S2, S1, P1 = names[(0, 1)], names[(1, 0)], names[(1, 1)]

    # The Happel-style aisle of the torsion class {P1, S1}: zero below
    # degree 0, the torsion class at 0, everything above.
    u = aisle_from_torsion(backend, {P1, S1})
    ok, report = is_narrow_sequence(backend, u)
    print("aisle of torsion class {P1, S1} is a narrow sequence:", ok)

    # Membership in the associated preaisle is homology-determined ...
    x = {0: (P1,), 1: (S2,)}
    print("P1[0] + S2[1] in the preaisle:", theta_membership(backend, u, x))
    print("S2[0] in the preaisle:", theta_membership(backend, u, {0: (S2,)}))

    # ... and reading the homologies back recovers the sequence.
    readback = mu(backend, lambda y: theta_membership(backend, u, y), 0, 1)
    print("homology readback equals the sequence:",
          readback.entries == u.entries)

    # Refinement: wide closures per degree plus the perpendicular parts.
    r = xi(backend, u)
    print("\nrefined sequence:")
    for k in range(u.lo, u.hi + 1):
        print(f"  degree {k}: wide = {sorted(r.f_at(k))}, "
              f"torsion part = {sorted(r.tf_at(k))}")
    print("gluing the refinement back yields the aisle:",
          psi(backend, r).key() == u.key())

    # On the window [0, 2] the aisles and the refined sequences biject.
    counts = verify_roundtrips(backend, 0, 2)
    print(f"\nwindow [0, 2]: {counts['aisles']} aisles, "
          f"{counts['refined']} refined sequences, "
          f"{len(counts['failures'])} roundtrip failures")
    assert len(enumerate_narrow_sequences(backend, 0, 2)) == \
        len(enumerate_refined(backend, 0, 2))


if __name__ == "__main__":
    main()
