"""Command-line surface: enumeration, verification, and classification.

Three subcommands: `enumerate` lists the t-structures of a backend on a
window, `verify` runs the backend's invariant suite (exit 1 on any
failure; --mutate injects a named fault so the suite can prove it would
catch it), `classify` matches a sequence file against the backend's normal
forms.  All output is byte-deterministic for a fixed configuration; the
--jobs flag is accepted for interface stability but work runs on one
worker, which is already deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import sys

from . import core, dedekind, derived, faults, projline, refined
from .quiver import BackendError, QuiverSpec, build_backend

USAGE_ERROR, VERIFY_ERROR = 2, 1


def _fail_usage(msg: str) -> int:
    sys.stderr.write(json.dumps({"error": msg}, sort_keys=True) + "\n")
    return USAGE_ERROR


def _parse_window(text: str):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("window must be lo:hi")
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise ValueError("window is empty")
    return lo, hi


def _parse_primes(text: str):
    return frozenset(int(p) for p in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)  # the options of every command
    common.add_argument("--backend", required=True, help="quiver:FILE.json | p1 | dedekind")
    common.add_argument("--window", default="0:1", help="degree window lo:hi")
    common.add_argument("--field", type=int, default=None, help="override the quiver base field")
    common.add_argument("--points", type=int, default=2, help="number of closed points (p1 backend)")
    common.add_argument("--degrees", default="-1:1", help="twist-level window a:b (p1 backend)")
    common.add_argument("--primes", default="2,3", help="comma-separated primes (dedekind backend)")
    common.add_argument("--format", default="json", choices=("json", "csv", "table"))
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: work runs on one worker, and "
                             "output is identical for every value")
    common.add_argument("--mutate", default=None, choices=faults.FAULT_NAMES,
                        help="inject a named fault (verification hardening)")
    parser = argparse.ArgumentParser(prog="tstructkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("enumerate", parents=[common])
    sub.add_parser("verify", parents=[common])
    sub.add_parser("classify", parents=[common]).add_argument("input", help="sequence JSON file")
    return parser


def _load_quiver(selector: str, field=None):
    """The backend of a quiver file (``QuiverBackend`` refuses a quiver that
    is not Dynkin before it builds anything)."""
    spec = QuiverSpec.from_json(selector.split(":", 1)[1])
    return build_backend(spec if field is None else dataclasses.replace(spec, field=field))


# ---------------------------------------------------------------------------
# enumerate

def _emit(rows, fmt, out):
    """Write rows, any iterable of dicts with identical keys, already
    ordered.  JSON and CSV are written a row at a time, as each row is read;
    the JSON is ``json.dumps({"records": list(rows)}, sort_keys=True,
    indent=2)`` to the byte, each row's own dump indented four more spaces.
    The table format reads every row before it writes one, to size its
    columns, and so holds them all."""
    if fmt == "json":
        out.write('{\n  "records": [')
        empty = True
        for row in rows:
            text = json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")
            out.write(("\n    " if empty else ",\n    ") + text)
            empty = False
        out.write("]\n}\n" if empty else "\n  ]\n}\n")
        return
    cols = ["backend", "window", "form", "parameters", "is_aisle"]
    flat = ({c: json.dumps(r.get(c), sort_keys=True) if not isinstance(r.get(c), str)
             else r.get(c) for c in cols} for r in rows)
    if fmt == "csv":
        out.write(",".join(cols) + "\n")
        for r in flat:
            out.write(",".join('"%s"' % r[c].replace('"', '""') for c in cols) + "\n")
        return
    flat = list(flat)
    widths = {c: max([len(c)] + [len(r[c]) for r in flat]) for c in cols}
    out.write("  ".join(c.ljust(widths[c]) for c in cols).rstrip() + "\n")
    for r in flat:
        out.write("  ".join(r[c].ljust(widths[c]) for c in cols).rstrip() + "\n")


def _enumerate_rows(args, lo, hi):
    """The rows ``enumerate`` prints, formed one at a time as they are read,
    from records computed before the first; None for an unknown backend."""
    window = [lo, hi]
    if args.backend.startswith("quiver:"):
        records = refined.enumerate_tstructures(_load_quiver(args.backend, args.field), lo, hi)
        return ({"backend": args.backend, "window": window, "form": "narrow-sequence",
                 "parameters": d["sequence"], "refined": d["refined"], "checks": d["checks"],
                 "is_aisle": True} for d in map(refined.TStructRecord.to_json_dict, records))
    if args.backend == "p1":
        forms = projline.p1_enumerate_sequences(args.points, lo, hi, *_parse_window(args.degrees))
        return ({"backend": "p1", "window": window, "form": form.form,
                 "parameters": form.to_json_dict(), "is_aisle": projline.p1_is_aisle(form)}
                for form in forms)
    if args.backend == "dedekind":
        records, degenerate = dedekind.ded_enumerate_tstructures(_parse_primes(args.primes), lo, hi)
        return ({"backend": "dedekind", "window": window, "form": "pivot",
                 "parameters": cn.to_json_dict(), "is_aisle": True, "degenerate": flag}
                for flag, group in ((False, records), (True, degenerate)) for cn in group)
    return None


def cmd_enumerate(args, out=None) -> int:
    out = sys.stdout if out is None else out
    rows = _enumerate_rows(args, *_parse_window(args.window))
    if rows is None:
        return _fail_usage(f"unknown backend {args.backend!r}")
    _emit(rows, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# verify

def _quiver_checks(backend, lo, hi):
    narrows = core.enumerate_subcats(backend, ("is_narrow",))
    flags = operator.attrgetter("is_narrow", "is_wide")
    mismatch = [s for s in range(1 << len(backend.roots))
                if _scan_flags(backend, s) != flags(core.subcat_flags(backend, s))]
    yield ("narrow-flags-match-direct-extension-scan", not mismatch,
           list(core.members(mismatch[0])) if mismatch else None)
    bad = [s for s in narrows
           if not core.subcat_flags(backend, s).is_wide
           and derived.is_narrow_sequence(
               backend, derived.SubcatSeq(0, 0, (s, s, s)))[0]]
    yield ("constant-non-wide-sequences-rejected", not bad,
           sorted(list(core.members(s)) for s in bad) or None)
    ids = backend.all_ids()
    hom_ok = all(derived.derived_hom_dim(backend, {0: (i,)}, {0: (j,)}) == backend.hom_matrix[i][j]
                 and derived.derived_hom_dim(backend, {0: (i,)}, {1: (j,)}) == backend.ext_matrix[i][j]
                 for i in ids for j in ids)
    yield ("derived-hom-counts-hom-and-ext", hom_ok, None)
    perp_ok = True
    for s in narrows:
        direct = core.mask_of(i for i in ids
                              if all(backend.hom_matrix[i][t] == 0 and backend.ext_matrix[i][t] == 0
                                     for t in core.members(s)))
        if core.perp(backend, s, "left", "all") != direct:
            perp_ok = False
    yield ("perpendicular-includes-ext-vanishing", perp_ok, None)
    closures = [core.closure(backend, s, core.WIDE_RULES) for s in narrows]
    yield ("wide-closures-are-kernel-closed",
           all(core.parts_within(backend, w, w, ("kernels",)) for w in closures), None)
    report = refined.verify_roundtrips(backend, lo, hi)
    yield ("aisle-refinement-roundtrips", not report["failures"],
           report["failures"][:1] or None)


def _scan_flags(backend, s: int) -> tuple:
    """(narrow, wide) of the mask s by the bounded closure scans that the
    matrix flags of ``subcat_flags`` replace."""
    narrow = core.is_closed(backend, s, ("extensions", "cokernels"))
    return narrow, narrow and core.is_closed(backend, s, ("kernels",))


def _p1_checks(points, lo, hi, dlo, dhi):
    narrows = projline.enumerate_p1_narrow(points, dlo, dhi)
    yield ("narrowness-audit", all(projline.p1_narrowness_audit(s, dlo, dhi, points)
                                   for s in narrows), None)
    sheaves = projline.p1_test_sheaves(points, deg_bound=max(abs(dlo), abs(dhi)))
    members = {}  # narrow value -> bitmask of the test sheaves in it

    def held(value):
        if value not in members:
            members[value] = sum(1 << i for i, x in enumerate(sheaves)
                                 if projline.p1_membership(x, value))
        return members[value]

    rt, cond, mono = [], True, True
    for form in projline.p1_sequence_forms(points, lo, hi, dlo, dhi):
        entries, below, above = projline.p1_sequence_window(form, lo, hi)
        got = projline.classify_p1_sequence(entries, below, above)
        if not isinstance(got, projline.P1SeqForm) or got.key() != form.key():
            rt.append(form.key())
        # only form I with a torsion zone wider than one degree is rejected
        cond &= projline.p1_is_aisle(form) == (form.form != "I" or form.l2 == form.l1 + 1)
        mono &= all(not held(form.value_at(k)) & ~held(form.value_at(k + 1))
                    for k in range(lo - 1, hi + 1))
    # the witness is the first failing key in the order of p1_enumerate_sequences
    yield ("sequence-form-roundtrip", not rt, [min(rt, key=repr)] if rt else None)
    yield ("aisle-rejection-is-wide-torsion-zone", cond, None)
    yield ("sequences-nondecreasing-on-test-sheaves", mono, None)
    yield ("euler-form-spot-values",
           projline.euler_form((1, 0), (1, 1)) == 2
           and projline.euler_form((0, 1), (1, 0)) == -1
           and projline.euler_form((1, 5), (1, 5), g=1) == 0, None)


def _dedekind_checks(primes, lo, hi):
    classes = dedekind.ded_torsionfree_classes(primes)
    yield ("torsionfree-class-count", len(classes) == 2 ** len(primes) + 1, len(classes))
    fam = dedekind.ded_test_family(primes)
    member = {c.key(): dedekind.class_members(c, fam, primes) for c in classes}
    rev = all(member[b.key()] <= member[a.key()]
              for a in classes for b in classes
              if not a.is_zero_class and not b.is_zero_class
              and a.support.primes <= b.support.primes)
    yield ("support-order-reversal", rev, None)
    perps = set(dedekind.perp_generated_classes(fam))
    yield ("classes-are-exactly-perpendiculars",
           perps == set(member.values()), None)
    yield ("nonzero-classes-contain-the-ring",
           all(dedekind.free_group(1) in member[c.key()]
               for c in classes if not c.is_zero_class), None)
    rt = True
    for c in classes:
        if c.is_zero_class:
            continue
        cn = dedekind.CoNarrowSeq(c, lo)
        seq = {k: cn.value_at(k) for k in range(lo - 1, hi + 2)}
        got = dedekind.ded_classify_sequence(seq, below=cn.value_at(lo - 2),
                                             above=cn.value_at(hi + 3), primes=primes)
        if not isinstance(got, dedekind.CoNarrowSeq) or got.key() != cn.key():
            rt = False
    yield ("pivot-form-roundtrip", rt, None)
    fg = {k: dedekind.FINITE_GROUPS for k in range(lo, hi + 1)}
    ok, _ = dedekind.ded_co_narrow_validate(fg, below=dedekind.FINITE_GROUPS,
                                            above=dedekind.FINITE_GROUPS, primes=primes)
    aisle = dedekind.ded_is_aisle(fg, below=dedekind.FINITE_GROUPS,
                                  above=dedekind.FINITE_GROUPS, primes=primes)
    yield ("finite-length-sequence-valid-but-not-aisle", ok and not aisle, None)


def cmd_verify(args, out=None) -> int:
    out = sys.stdout if out is None else out
    lo, hi = _parse_window(args.window)
    if args.backend.startswith("quiver:"):
        backend = _load_quiver(args.backend, args.field)
        checks = _quiver_checks(backend, lo, hi)
    elif args.backend == "p1":
        dlo, dhi = _parse_window(args.degrees)
        checks = _p1_checks(args.points, lo, hi, dlo, dhi)
    elif args.backend == "dedekind":
        checks = _dedekind_checks(_parse_primes(args.primes), lo, hi)
    else:
        return _fail_usage(f"unknown backend {args.backend!r}")
    failures = 0
    while True:
        try:
            name, ok, witness = next(checks)
        except StopIteration:
            break
        except BackendError as exc:
            failures += 1
            out.write(f"FAIL suite-error: {json.dumps(str(exc))}\n")
            break
        if ok:
            out.write(f"PASS {name}\n")
        else:
            failures += 1
            out.write(f"FAIL {name}: {json.dumps(witness, sort_keys=True, default=str)}\n")
    out.write(f"{'OK' if not failures else 'FAILED'} ({failures} failing checks)\n")
    return 0 if not failures else VERIFY_ERROR


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args, out=None) -> int:
    out = sys.stdout if out is None else out
    quiver = args.backend.startswith("quiver:")
    backend = _load_quiver(args.backend, args.field) if quiver else None
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail_usage(f"cannot read sequence file: {exc}")
    try:
        if quiver:
            verdict = _classify_quiver(backend, data)
        elif args.backend == "p1":
            verdict = _classify_p1(data, args.points)
        elif args.backend == "dedekind":
            verdict = _classify_dedekind(args, data)
        else:
            return _fail_usage(f"unknown backend {args.backend!r}")
    except (KeyError, ValueError, TypeError, BackendError) as exc:
        return _fail_usage(f"sequence file does not match the backend vocabulary: {exc}")
    out.write(json.dumps(verdict, sort_keys=True, indent=2) + "\n")
    return 0


def _classify_quiver(backend, data):
    """Decide a sequence by ``refined.narrow_cut``, which decides sequences
    with zero below-tail; a below-tail B is reduced to that case.

    A narrow sequence's constant tail is wide: where N(k-1) = N(k) = N(k+1)
    = B, the narrow conditions close B under extensions, under cokernels of
    maps B -> B and under kernels of maps B -> B.  So a B that is not wide
    gives "not narrow".  For a wide B, u is narrow iff u0 is, where u0 is
    zero below lo - 1 and has B at lo - 1.  The conditions at degree k read
    N(k-1), N(k) and N(k+1), which agree for u and u0 from lo - 1 on, so
    they differ only at degrees below lo: there u compares B with B, which
    holds because B is wide, and u0 compares B or 0 with 0, which holds
    trivially.  For B = 0, u0 is u on a window one degree wider, so every
    sequence is decided as its u0."""
    seq = derived.SubcatSeq.from_json_dict(data, backend)
    below = seq.masks[0]
    report = [] if core.subcat_flags(backend, below).is_wide else [
        f"N({seq.lo - 1}) is the below-tail, which is not wide"]
    report += refined.narrow_cut(backend, derived.SubcatSeq(seq.lo - 1, seq.hi, (0, *seq.masks)))[1]
    ok = not report
    return {"valid_narrow_sequence": ok, "form": "narrow-sequence" if ok else None,
            "is_aisle": ok and not below, "violations": report}


def _classify_p1(data, points):
    entries = {int(k): projline.narrow_from_json(v, points) for k, v in data["entries"].items()}
    below = projline.narrow_from_json(data["below"], points) if "below" in data else None
    above = projline.narrow_from_json(data["above"], points) if "above" in data else None
    got = projline.classify_p1_sequence(entries, below, above)
    if isinstance(got, projline.P1Invalid):
        return {"valid_narrow_sequence": False, "form": None, "is_aisle": False,
                "violations": [got.reason]}
    return {"valid_narrow_sequence": True, "form": got.to_json_dict(),
            "is_aisle": projline.p1_is_aisle(got), "violations": []}


def _ded_entry(v):
    if isinstance(v, str):
        return v
    if v.get("support") == "all":
        return dedekind.zero_class()
    return dedekind.torsionfree_class(v["support"])


def _classify_dedekind(args, data):
    primes = _parse_primes(args.primes)
    entries = {int(k): _ded_entry(v) for k, v in data["entries"].items()}
    below = _ded_entry(data.get("below", dedekind.MOD))
    above = _ded_entry(data.get("above", dedekind.ZERO))
    ok, report = dedekind.ded_co_narrow_validate(entries, below, above, primes)
    got = dedekind.ded_classify_sequence(entries, below, above, primes)
    if isinstance(got, dedekind.DedInvalid):
        return {"valid_narrow_sequence": ok, "form": None, "is_aisle": False,
                "violations": report + [got.reason]}
    return {"valid_narrow_sequence": ok, "form": got.to_json_dict(),
            "is_aisle": ok, "violations": report}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    if args.backend == "p1" and args.points < 1:
        return _fail_usage(f"--points must be at least 1 for the p1 backend, got {args.points}")
    faults.clear()
    if args.mutate:
        faults.activate(args.mutate)
    try:
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_classify(args)
    except (ValueError, BackendError, OSError) as exc:
        return _fail_usage(str(exc))
    finally:
        faults.clear()


if __name__ == "__main__":
    sys.exit(main())
