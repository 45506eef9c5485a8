"""The three benchmark workloads: set-up, timed ops, and answer checks.

Each workload is run once per pass, in a fresh interpreter (see worker.py).
``setup(root, seed)`` builds the inputs from the seed alone, so every pass of
a run repeats the same ops on the same inputs, and returns a state dict;
``solve(state)`` runs the ops and returns a list of ``(latency_s, answer)``;
``check(state, answers)`` returns one bool per op.  Expected answers that
need the package are computed in ``setup``, outside the timed ops; a traced
pass counts the calls of set-up and solve together, so star-oracle's
``derived`` and ``core`` counts include those of its reference answers.
"""

from __future__ import annotations

import random
from time import perf_counter


def _rng(*key):
    """A generator fixed by its key (string seeding does not depend on
    PYTHONHASHSEED)."""
    return random.Random(":".join(map(str, key)))


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


# ---------------------------------------------------------------------------
# quiver-census: classify all 64 subsets of A3 over F3, then enumerate


class QuiverCensus:
    name = "quiver-census"
    ABSENT = ("dedekind", "projline")  # layers the traced run must never enter
    # known answers: 6 positive roots of A3 (Gabriel), 14 wide subcategories
    # and 14 torsion classes (the Catalan number, Ingalls-Thomas), 22 narrow
    # subcategories, 79 t-structures on the window 0:1
    INDECS, NARROW, WIDE, TORSION, TSTRUCTURES = 6, 22, 14, 14, 79
    SETUP_REPEATS = 1  # a second set-up in one process would find warm quiver memos

    @staticmethod
    def setup(root, seed):
        from tstructkit import quiver

        rng = _rng(QuiverCensus.name, seed)
        spec = quiver.QuiverSpec.from_json(root / "demos" / "quivers" / "a3.json")
        spec = quiver.QuiverSpec(spec.vertices, spec.arrows, 3, spec.dim_bound)
        backend = quiver.build_backend(spec)
        # Smallest subsets first, shuffled within each size: the cold search
        # is spread over the ops that first meet each pair of summands.
        subsets = sorted(backend.subsets(), key=lambda s: (len(s), rng.random()))
        return {"backend": backend, "subsets": subsets}

    @staticmethod
    def solve(state):
        from tstructkit import core, refined

        b = state["backend"]
        ops = [_timed(core.classify_subcat, b, s) for s in state["subsets"]]
        ops.append(_timed(refined.enumerate_tstructures, b, 0, 1))
        return ops

    @classmethod
    def check(cls, state, answers):
        flags = [a for _, a in answers[:-1]]
        records = answers[-1][1]
        census_ok = (len(state["backend"].indecs) == cls.INDECS
                     and sum(f.is_narrow for f in flags) == cls.NARROW
                     and sum(f.is_wide for f in flags) == cls.WIDE
                     and sum(f.is_torsion_class for f in flags) == cls.TORSION)
        ok = [census_ok and f.is_narrow >= f.is_wide and f.is_torsion_class == f.is_nullity
              for f in flags]
        narrow = {s for s, f in zip(state["subsets"], flags) if f.is_narrow}

        def record_ok(rec):
            seq = rec.sequence
            chain = list(seq.entries) + [seq.above]
            return (all(e in narrow for e in chain) and not seq.below
                    and all(a <= b for a, b in zip(chain, chain[1:]))
                    and rec.refined is not None and all(v for _, v in rec.checks))

        ok.append(census_ok and len(records) == cls.TSTRUCTURES
                  and all(record_ok(r) for r in records))
        return ok


# ---------------------------------------------------------------------------
# star-oracle: triangle-search membership against the glue formula on A2


class StarOracle:
    name = "star-oracle"
    ABSENT = ("dedekind", "projline")
    REFINED = 14    # refined t-sequences of A2 on the window 0:1
    SETUP_REPEATS = 1  # a second set-up in one process would find warm quiver memos

    @staticmethod
    def setup(root, seed):
        from tstructkit import derived, quiver, refined

        rng = _rng(StarOracle.name, seed)
        spec = quiver.QuiverSpec.from_json(root / "demos" / "quivers" / "a2.json")
        b = quiver.build_backend(spec)
        seqs = refined.enumerate_refined(b, 0, 1)
        aisles = [refined.psi(b, r) for r in seqs]
        # Every sequence is asked every shifted indecomposable X[k] of the
        # window, in an order the seed picks.  Sampling objects instead made
        # the amount of work depend on the seed: one object costs from 0.2 ms
        # to 2.5 s, and with three sampled objects per sequence the quartiles
        # of a pass's cost over seeds lay 28% of their median apart.
        objs = [x for x in derived.window_objects(b, 0, 1, size_bound=1) if x]
        plan = []
        for r, u in zip(seqs, aisles):
            asked = rng.sample(objs, len(objs))
            plan.append((r, [(x, derived.theta_membership(b, u, x)) for x in asked]))
        rng.shuffle(plan)
        return {"backend": b, "plan": plan, "refined": len(seqs)}

    @staticmethod
    def solve(state):
        from tstructkit import refined

        b = state["backend"]
        ops = []
        for r, objs in state["plan"]:
            memo = {}  # shared by the objects asked of one sequence
            for x, _ in objs:
                ops.append(_timed(refined.star_oracle_membership, b, r, 0, 2, x, memo=memo))
        return ops

    @classmethod
    def check(cls, state, answers):
        want = [w for _, objs in state["plan"] for _, w in objs]
        good = state["refined"] == cls.REFINED
        return [good and got == w for (_, got), w in zip(answers, want)]


# ---------------------------------------------------------------------------
# symbolic-verify: the p1 and Dedekind verify suites, then Dedekind classify


class _StampedLines:
    """An output stream that records when each line is written."""

    def __init__(self):
        self.lines = []

    def write(self, text):
        self.lines.append((perf_counter(), text))


class SymbolicVerify:
    name = "symbolic-verify"
    ABSENT = ("quiver", "core", "derived", "refined")
    PRIME_PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7))
    P1_ARGS = ["verify", "--backend", "p1", "--points", "3", "--window=-2:2", "--degrees=-2:2"]
    P1_CHECKS, DEDEKIND_CHECKS = 5, 6

    NON_MONOTONE = 6  # cheap invalid sequences classified per pass
    SETUP_REPEATS = 25  # set-up takes milliseconds and keeps no memo

    @staticmethod
    def setup(root, seed):
        from tstructkit import cli, dedekind as dd

        rng = _rng(SymbolicVerify.name, seed)
        p, q = rng.choice(SymbolicVerify.PRIME_PAIRS)
        parser = cli.build_parser()
        suites = [(parser.parse_args(SymbolicVerify.P1_ARGS), SymbolicVerify.P1_CHECKS),
                  (parser.parse_args(["verify", "--backend", "dedekind", "--primes",
                                      f"{p},{q}", "--window", "0:1"]),
                   SymbolicVerify.DEDEKIND_CHECKS)]
        lo = rng.randint(-2, 2)
        pivot = dd.torsionfree_class(rng.choice(((p,), (q,), (p, q))))
        fg = dd.FINITE_GROUPS
        # (entries, below, above, expected validity, expected normal-form key):
        # a pivot sequence is valid and is its own normal form; the
        # finite-length sequence is valid but not an aisle; a sequence that
        # rises from zero to the class of one prime and falls back is
        # invalid.  Validation cost grows with the levels that hold the whole
        # category, so the shapes are fixed and the seed picks classes,
        # primes and shifts.
        sequences = [
            ({lo: pivot, lo + 1: dd.ZERO}, dd.MOD, dd.ZERO, True, (pivot.key(), lo)),
            ({lo: fg, lo + 1: fg}, fg, fg, True, None),
        ]
        for _ in range(SymbolicVerify.NON_MONOTONE):
            k = rng.randint(-2, 2)
            entries = {k: dd.ZERO, k + 1: dd.ZERO}
            entries[k + rng.randint(0, 1)] = dd.torsionfree_class((rng.choice((p, q)),))
            sequences.append((entries, dd.ZERO, dd.ZERO, False, None))
        return {"suites": suites, "primes": frozenset((p, q)), "sequences": sequences}

    @staticmethod
    def classify(entries, below, above, primes):
        """The two calls `tstructkit classify --backend dedekind` makes."""
        from tstructkit import dedekind as dd

        ok, report = dd.ded_co_narrow_validate(entries, below, above, primes)
        return ok, report, dd.ded_classify_sequence(entries, below, above, primes)

    @staticmethod
    def solve(state):
        from tstructkit import cli

        ops = []
        state["verify"] = []
        for args, expected in state["suites"]:
            out = _StampedLines()
            t0 = perf_counter()
            code = cli.cmd_verify(args, out=out)
            stamps = [t0] + [t for t, _ in out.lines]
            lines = [text for _, text in out.lines]
            ops.extend((b - a, text) for a, b, text in zip(stamps, stamps[1:-1], lines[:-1]))
            state["verify"].append((code, lines, expected))
        for entries, below, above, _, _ in state["sequences"]:
            ops.append(_timed(SymbolicVerify.classify, entries, below, above, state["primes"]))
        return ops

    @staticmethod
    def check(state, answers):
        from tstructkit import dedekind as dd

        ok = []
        for code, lines, expected in state["verify"]:
            whole = code == 0 and len(lines) == expected + 1 and lines[-1] == "OK (0 failing checks)\n"
            ok.extend(whole and line.startswith("PASS ") for line in lines[:-1])
        verdicts = [a for _, a in answers[len(ok):]]
        for (is_valid, report, got), (_, _, _, valid, form) in zip(verdicts, state["sequences"]):
            if form is None:
                form_ok = isinstance(got, dd.DedInvalid)
            else:
                form_ok = isinstance(got, dd.CoNarrowSeq) and got.key() == form
            ok.append(is_valid == valid and (not report) == valid and form_ok)
        return ok


WORKLOADS = {w.name: w for w in (QuiverCensus, StarOracle, SymbolicVerify)}
