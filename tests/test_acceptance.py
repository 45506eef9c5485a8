"""Acceptance suite: one pass/fail line per top-level criterion.

Each test prints a single PASS/FAIL line (written straight to the
terminal, bypassing pytest capture) and asserts the same condition, so
the suite is readable both as a checklist and as a test run.
"""

import time

from conftest import kernel_realizations, left_perp_zero, restrict, run_cli_process, scan_flags, shift

from tstructkit import core, dedekind as dd, derived, projline as pl, refined
from tstructkit.core import candidates, closure, enumerate_subcats, obj_in_mask, perp, subcat
from tstructkit.derived import (SubcatSeq, derived_hom_dim,
                                enumerate_narrow_sequences,
                                is_narrow_sequence, mu,
                                star_membership, theta_membership,
                                window_objects)
from tstructkit.faults import FAULT_NAMES


def report(capfd, num, label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} [criterion {num}] {label}"
    if detail:
        line += f" ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_quiver_census_and_aisles(a2, capfd):
    start = time.perf_counter()
    ok = len(a2.indecs) == 3
    ok &= len(enumerate_subcats(a2, ("is_torsion_class",))) == 5
    narrow_scan = [S for S in range(1 << len(a2.roots)) if scan_flags(a2, S)[0]]
    wide_scan = [S for S in range(1 << len(a2.roots)) if scan_flags(a2, S)[1]]
    ok &= len(narrow_scan) == 6 and enumerate_subcats(a2, ("is_narrow",)) == narrow_scan
    ok &= len(wide_scan) == 5 and enumerate_subcats(a2, ("is_wide",)) == wide_scan
    seqs = enumerate_narrow_sequences(a2, 0, 2)
    ok &= len(seqs) == 25
    for seq in seqs:
        valid, _ = is_narrow_sequence(a2, seq)
        ok &= valid
        got = mu(a2, lambda x, s=seq: theta_membership(a2, s, x), 0, 2)
        ok &= got.entries == seq.entries
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(capfd, 1, "rank-2 path quiver: censuses, 25 aisles, homology readback",
           ok, f"{elapsed:.1f}s < 10s")


def test_criterion_2_refinement_roundtrips(a2, a3, capfd):
    out2 = refined.verify_roundtrips(a2, 0, 2)
    start = time.perf_counter()
    out3 = refined.verify_roundtrips(a3, 0, 2)
    elapsed = time.perf_counter() - start
    ok = out2["aisles"] == out2["refined"] == 25 and not out2["failures"]
    ok &= out3["aisles"] == out3["refined"] == 188 and not out3["failures"]
    ok &= elapsed < 60.0
    report(capfd, 2, "aisle <-> refined-sequence bijection on rank-2 and rank-3 quivers",
           ok, f"188 pairs, {elapsed:.1f}s < 60s")


def test_criterion_3_gluing_formula_matches_star_oracle(a2, capfd):
    disagreements = 0
    checked = 0
    for r in refined.enumerate_refined(a2, 0, 1):
        u = refined.psi(a2, r)
        memo = {}
        for x in window_objects(a2, 0, 1, size_bound=2):
            want = theta_membership(a2, u, x)
            got = refined.star_oracle_membership(a2, r, 0, 2, x, memo=memo)
            checked += 1
            disagreements += want != got
    report(capfd, 3, "closed-form glue of refined sequences matches the triangle oracle",
           disagreements == 0, f"{checked} memberships, {disagreements} disagreements")


def test_criterion_4_projective_line_classification(capfd):
    ok = len(pl.enumerate_p1_narrow(3, -2, 2)) == 19
    forms = pl.p1_enumerate_sequences(3, -2, 2, -2, 2)
    roundtrip_ok = True
    for form in forms:
        entries, below, above = pl.p1_sequence_window(form, -2, 2)
        back = pl.classify_p1_sequence(entries, below=below, above=above)
        roundtrip_ok &= not isinstance(back, pl.P1Invalid) and back.key() == form.key()
    ok &= roundtrip_ok
    rejected = [f for f in forms if not pl.p1_is_aisle(f)]
    ok &= bool(rejected)
    ok &= all(f.form == "I" and f.l2 != f.l1 + 1 for f in rejected)
    report(capfd, 4, "projective line: 19 narrow subcategories, unique sequence "
              "normal forms, aisles reject long torsion zones",
           ok, f"{len(forms)} forms, {len(rejected)} non-aisles")


def test_criterion_5_dedekind_classification(capfd):
    primes = frozenset({2, 3})
    family = dd.ded_test_family(primes)
    classes = dd.ded_torsionfree_classes(primes)
    ok = len(classes) == 5
    # support inclusion reverses class inclusion
    supports = [frozenset(), {2}, {3}, {2, 3}]
    for s in supports:
        for t in supports:
            if s < t:
                big = dd.class_members(dd.torsionfree_class(s), family, primes)
                small = dd.class_members(dd.torsionfree_class(t), family, primes)
                ok &= small < big
    # the classes are exactly the perpendicular-generated subcategories
    want = {dd.class_members(c, family, primes) for c in classes}
    ok &= set(dd.perp_generated_classes(family)) == want
    # separator: the finite groups are sub+ext closed yet are no class
    finite = frozenset(x for x in family if x.rank == 0)
    ok &= finite not in want
    order = sorted(finite, key=lambda g: (g.rank, g.torsion))
    double = dd.right_perp_zero(
        sorted(left_perp_zero(order, family), key=lambda g: (g.rank, g.torsion)),
        family)
    ok &= finite < double
    report(capfd, 5, "integers: 5 torsionfree classes, order reversal, finite "
              "groups fail the double-perpendicular test", ok)


def test_criterion_6_structure_theorems_shadowed(a2, capfd):
    ok = True
    # narrow subcategories are image-closed
    narrows = enumerate_subcats(a2, ("is_narrow",))
    ok &= all(core.is_closed(a2, n, ("images",)) for n in narrows)
    # along a narrow sequence the wide closure of a level sits in the next
    wide_rules = ("cokernels", "kernels", "extensions")
    for seq in enumerate_narrow_sequences(a2, 0, 2):
        for k in range(0, 3):
            ok &= not closure(a2, seq.mask_at(k), wide_rules) & ~seq.mask_at(k + 1)
    # a preaisle is the star of its one-degree slices
    for seq in enumerate_narrow_sequences(a2, 0, 1):
        left = restrict(a2, seq, 1, 1)
        right = SubcatSeq(0, 0, (0, seq.mask_at(0), 0))
        for x in window_objects(a2, 0, 1, size_bound=2):
            ok &= theta_membership(a2, seq, x) == \
                star_membership(a2, left, right, x, 0, 2)
    # constant sequences at a wide subcategory have degreewise perpendicular
    for w in enumerate_subcats(a2, ("is_wide",)):
        p = subcat(perp(a2, w, "left", "all"))
        for i in a2.all_ids():
            vanish = all(derived_hom_dim(a2, {k: (i,)}, {j: (t,)}) == 0
                         for k in (0, 1) for j in (0, 1, 2) for t in subcat(w))
            ok &= vanish == (i in p)
    # torsion aisles admit adjoint truncation triangles
    for t in enumerate_subcats(a2, ("is_torsion_class",)):
        free_cls = perp(a2, t, "right", "zero_only")
        for i in a2.all_ids():
            tor, free = core.torsion_decompose(a2, (i,), subcat(t))
            ok &= obj_in_mask(t, tor) and obj_in_mask(free_cls, free)
            if tor and free:
                ok &= (i,) in a2.middle_terms(free, tor)
            else:
                ok &= (i,) in (tor, free)
    # the wide closure of a narrow subcategory arrives in one kernel step
    for n in narrows:
        w = closure(a2, n, wide_rules)
        seed = n
        for i in a2.all_ids():
            if not n >> i & 1 and next(kernel_realizations(a2, n, i), None):
                seed |= 1 << i
        ok &= closure(a2, seed, ("cokernels", "extensions")) == w
    report(capfd, 6, "structure results: image closure, growth between levels, "
              "slice gluing, perpendiculars, truncation triangles, "
              "one-step wide closure", ok)


def test_criterion_7_negative_controls(a1, a2, capfd):
    ok = True
    # a preaisle not determined by its homologies: even total dimension
    def member(x):
        x = derived.dobj(x)
        if any(k < 0 for k in x):
            return False
        total = sum(a1.obj_rep(v).total_dim for v in x.values())
        return total % 2 == 0
    # membership is closed under sums, shifts up, and window extensions
    members = [x for x in window_objects(a1, 0, 2, size_bound=2) if member(x)]
    for x in members:
        ok &= member(shift(x, 1))
        for y in members:
            merged = dict(x)
            for k, v in y.items():
                merged[k] = tuple(merged.get(k, ())) + tuple(v)
            ok &= member(merged)
    seq = mu(a1, member, 0, 1)
    simple = {0: (a1.all_ids()[0],)}
    ok &= not member(simple)
    ok &= theta_membership(a1, seq, simple)  # homology readback overshoots

    # five-term exactness condition == extension + cokernel + kernel conditions
    def bounded_sums(s):
        return [()] + candidates(s)

    def five_term_closed(up, mid, dn):
        cokers = set()
        for b in bounded_sums(mid):
            cokers.add(b)
            for a in bounded_sums(up):
                for _, _, cok in a2.part_sets(a, b):
                    cokers.add(cok)
        kers = set()
        for d in bounded_sums(mid):
            kers.add(d)
            for e in bounded_sums(dn):
                for ker, _, _ in a2.part_sets(d, e):
                    kers.add(ker)
        for quot in kers:
            for sub in cokers:
                if not quot and not sub:
                    continue
                if not sub:
                    mids = [quot]
                elif not quot:
                    mids = [sub]
                else:
                    mids = a2.middle_terms(quot, sub)
                if any(not obj_in_mask(mid, c) for c in mids):
                    return False
        return True

    subsets = range(1 << len(a2.roots))
    compared = 0
    for dn in subsets:
        for mid in subsets:
            if dn & ~mid:
                continue
            for up in subsets:
                if mid & ~up:
                    continue
                want = (core.is_closed(a2, mid, ("extensions",))
                        and core.parts_within(a2, up, mid, ("cokernels",))
                        and core.parts_within(a2, mid, dn, ("kernels",)))
                ok &= five_term_closed(up, mid, dn) == want
                compared += 1

    # every injected fault flips the verification suite to red: exit 1 alone
    # is not enough, since a child that cannot import tstructkit exits 1 too
    child_error = ""
    for fault in FAULT_NAMES:
        proc = run_cli_process("verify", "--backend",
                               "quiver:demos/quivers/a2.json", "--window", "0:1",
                               "--mutate", fault)
        red = proc.returncode == 1 and any(
            line.startswith("FAIL ") for line in proc.stdout.splitlines())
        if not red and not child_error:
            child_error = f"{fault}: exit {proc.returncode}: {proc.stderr.strip()}"
        ok &= red
    detail = f"{compared} subset triples, {len(FAULT_NAMES)} faults"
    if child_error:
        detail += f"; {child_error}"
    report(capfd, 7, "negative controls: homology readback counterexample, "
              "five-term oracle, fault injection", ok, detail)


def test_criterion_8_deterministic_output(capfd):
    ok = True
    child_error = ""
    for backend_args in (["--backend", "quiver:demos/quivers/a2.json",
                          "--window", "0:1"],
                         ["--backend", "dedekind", "--primes", "2,3",
                          "--window", "0:1"]):
        outputs = set()
        for jobs in ("1", "8", "1", "8"):
            proc = run_cli_process("enumerate", *backend_args, "--format",
                                   "json", "--jobs", jobs, text=False)
            if proc.returncode != 0 and not child_error:
                child_error = (f"exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
            ok &= proc.returncode == 0
            outputs.add(proc.stdout)
        ok &= len(outputs) == 1
    report(capfd, 8, "byte-identical enumeration output across runs and --jobs",
           ok, child_error)
