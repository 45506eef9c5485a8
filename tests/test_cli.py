import contextlib
import hashlib
import io
import json
import random

import pytest

from conftest import run_cli_process, run_python_process

from tstructkit import cli, projline
from tstructkit.faults import FAULT_NAMES

A2 = "demos/quivers/a2.json"

# sequence files on a2: one valid narrow sequence (an aisle), one invalid
A2_SEQUENCES = {
    "valid": {"lo": 0, "hi": 1, "entries": [[1, 2], [0, 1, 2]],
              "below": [], "above": [0, 1, 2]},
    "invalid": {"lo": 0, "hi": 1, "entries": [[0, 1], [0, 1]],
                "below": [], "above": [0, 1, 2]},
}


def run_cli(*argv):
    proc = run_cli_process(*argv)
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_quiver_passes():
    code, out, err = run_cli("verify", "--backend", f"quiver:{A2}",
                             "--window", "0:1")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[-1].startswith("OK")
    assert lines[:-1] and all(line.startswith("PASS ") for line in lines[:-1])


def test_verify_p1_and_dedekind_pass():
    code, out, err = run_cli("verify", "--backend", "p1", "--window", "0:1",
                             "--points", "2", "--degrees=-1:1")
    assert code == 0 and "FAIL" not in out, err
    code, out, err = run_cli("verify", "--backend", "dedekind", "--primes", "2",
                             "--window", "0:0")
    assert code == 0 and "FAIL" not in out, err


# SHA-256 of `verify --mutate FAULT` stdout on a2, window 0:1
MUTATE_STDOUT_SHA256 = {
    "drop-extension-closure": "6baa79a6b2d9700fa8ab8f3c9bdaa43808a2399b8fcb5bdf9178f1a1cec19524",
    "skip-kernel-condition": "ab72f9889d84708f9e08a0d08f19269ebcafa8ecf6585a9f174a2561996dd99e",
    "swap-ext-direction": "fab09bc82d256df97317354b2268100b868292eaa105fd02d4af6850e92d1839",
    "perp-ignores-ext": "286234cdbff6ad2e9c0eb79dff7c18f03c6d90103fde41b4b0212ad4c534db70",
    "wide-closure-skips-kernels": "f61a2c30614d9a4bb458e45ea24894d4695137ab5e48cb09f3e77f177101e063",
}

# the checks each fault turns red in that output, so a changed hash shows
# which line flipped; a3 on the window 0:1 turns the same checks red, and
# only its set of FAIL lines is pinned, since its witnesses name the decider
MUTATE_FAILING_CHECKS = {
    "drop-extension-closure": {"narrow-flags-match-direct-extension-scan"},
    "skip-kernel-condition": {"constant-non-wide-sequences-rejected", "aisle-refinement-roundtrips"},
    "swap-ext-direction": {"derived-hom-counts-hom-and-ext"},
    "perp-ignores-ext": {"narrow-flags-match-direct-extension-scan",
                         "perpendicular-includes-ext-vanishing", "aisle-refinement-roundtrips"},
    "wide-closure-skips-kernels": {"narrow-flags-match-direct-extension-scan",
                                   "wide-closures-are-kernel-closed"},
}


@pytest.mark.parametrize("fault", FAULT_NAMES)
def test_every_fault_turns_verify_red(fault):
    for quiver in (A2, "demos/quivers/a3.json"):
        code, out, err = run_cli("verify", "--backend", f"quiver:{quiver}",
                                 "--window", "0:1", "--mutate", fault)
        assert code == 1, (quiver, fault, out, err)
        failing = {line[len("FAIL "):].split(":", 1)[0]
                   for line in out.splitlines() if line.startswith("FAIL ")}
        assert failing == MUTATE_FAILING_CHECKS[fault], (quiver, out)
        if quiver == A2:
            assert hashlib.sha256(out.encode()).hexdigest() == MUTATE_STDOUT_SHA256[fault], out


def test_usage_errors_exit_2():
    for argv in (("verify", "--backend", "nonsense"),
                 ("verify", "--backend", f"quiver:{A2}", "--window", "1:"),
                 ("verify", "--backend", "quiver:/does/not/exist.json"),
                 ("frobnicate",)):
        code, _, err = run_cli(*argv)
        assert code == 2, (argv, err)
    code, _, err = run_cli("verify", "--backend", f"quiver:{A2}",
                           "--window", "oops")
    assert code == 2 and "error" in err, err


NOT_DYNKIN = ("quiver is not Dynkin (its Tits form is not positive definite): "
              "it has infinitely many indecomposables")


def test_truncated_quiver_refused_up_front(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"lo": 0, "hi": 0, "entries": [[0]], "below": [], "above": [0]}))
    backend = "quiver:demos/quivers/kronecker.json"
    for argv in (("enumerate", "--backend", backend, "--window", "0:0"),
                 ("verify", "--backend", backend, "--window", "0:0"),
                 ("classify", "--backend", backend, str(path))):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "", (argv, out, err)
        assert json.loads(err)["error"] == NOT_DYNKIN, err


def test_truncated_spec_refused_before_the_table_is_built(tmp_path):
    # the refusal reads the spec alone: QuiverBackend refuses it before any
    # representation is built, and a dim_bound key in the file is ignored
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1], [0, 1]], "dim_bound": [3, 3]}))
    proc = run_cli_process("enumerate", "--backend", f"quiver:{path}", "--window", "0:0", timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", (proc.stdout, proc.stderr)
    assert json.loads(proc.stderr)["error"] == NOT_DYNKIN, proc.stderr


def test_a_dim_bound_key_is_ignored(tmp_path):
    """A quiver file may still carry ``dim_bound``, of any value: the output
    is that of the file without it."""
    want = run_cli("enumerate", "--backend", f"quiver:{A2}", "--window", "0:1")
    for bound in ([1, 1], 3, [0]):
        path = tmp_path / "a2.json"
        path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1]], "field": 2, "dim_bound": bound}))
        code, out, err = run_cli("enumerate", "--backend", f"quiver:{path}", "--window", "0:1")
        assert (code, out.replace(str(path), A2), err) == want, bound


@pytest.mark.parametrize("spec, key", [
    ({"vertices": 0, "arrows": []}, "vertices"),
    ({"vertices": 2, "arrows": [[0, 1]], "field": 2.0}, "field"),
    ({"vertices": 2}, "arrows"),
    ({"vertices": 2, "arrows": [[0, 1]], "field": 2 ** 1024}, "field"),  # beyond a float
])
def test_malformed_quiver_file_exits_2_naming_the_key(tmp_path, spec, key):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli("enumerate", "--backend", f"quiver:{path}", "--window", "0:0")
    assert code == 2 and out == "", (out, err)
    assert key in json.loads(err)["error"], err


def test_enumerate_json_shape():
    code, out, err = run_cli("enumerate", "--backend", f"quiver:{A2}",
                             "--window", "0:1", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["records"]
    assert rows and all(set(r) >= {"backend", "window", "form", "parameters",
                                   "checks", "is_aisle"} for r in rows)


def test_enumerate_dedekind_counts():
    code, out, err = run_cli("enumerate", "--backend", "dedekind", "--primes", "2",
                             "--window", "0:0", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["records"]
    assert sum(not r["degenerate"] for r in rows) == 3
    assert sum(r["degenerate"] for r in rows) == 2


# SHA-256 of `enumerate` stdout on a3, window 0:1, in the csv and table formats
A3_FORMAT_SHA256 = {
    "csv": "fc139e87aa6bf78fd9a36cc1d11b65fa9329333dde5d86f3cb777b1dbf9a2dc5",
    "table": "93ff84812fbeefc4418e353a10dbc6e90724fb41b9f8f1e55f030e80b57912c5",
}


def test_enumerate_table_and_csv_run():
    for fmt in ("table", "csv"):
        code, out, err = run_cli("enumerate", "--backend", f"quiver:{A2}",
                                 "--window", "0:1", "--format", fmt)
        assert code == 0 and out, err
        code, out, err = run_cli("enumerate", "--backend", "quiver:demos/quivers/a3.json",
                                 "--window", "0:1", "--format", fmt)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == A3_FORMAT_SHA256[fmt], err


@pytest.mark.parametrize("argv", [
    ("--backend", f"quiver:{A2}", "--window", "0:2"),
    ("--backend", "quiver:demos/quivers/a3.json", "--window", "0:1"),
    ("--backend", "p1", "--points", "3", "--window=-2:2", "--degrees=-2:2"),
    ("--backend", "dedekind", "--primes", "2,3"),
], ids=["a2-0:2", "a3-0:1", "p1", "dedekind"])
def test_streamed_json_equals_one_dump(argv):
    """``_emit`` writes the rows of a generator one at a time, and the
    bytes are those of one ``json.dumps`` of the whole list."""
    args = cli.build_parser().parse_args(["enumerate", *argv])
    rows = list(cli._enumerate_rows(args, *cli._parse_window(args.window)))
    out = io.StringIO()
    cli._emit((row for row in rows), "json", out)
    assert rows and out.getvalue() == json.dumps({"records": rows}, sort_keys=True, indent=2) + "\n"


def test_streamed_json_of_no_rows():
    out = io.StringIO()
    cli._emit(iter(()), "json", out)
    assert out.getvalue() == '{\n  "records": []\n}\n'
    assert out.getvalue() == json.dumps({"records": []}, sort_keys=True, indent=2) + "\n"


def test_output_is_deterministic_across_jobs():
    baseline = None
    for jobs in ("1", "8", "1", "8"):
        code, out, err = run_cli("enumerate", "--backend", f"quiver:{A2}",
                                 "--window", "0:1", "--format", "json",
                                 "--jobs", jobs)
        assert code == 0, err
        if baseline is None:
            baseline = out
        assert out == baseline


def test_classify_verdicts(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(A2_SEQUENCES["valid"]))
    code, out, err = run_cli("classify", "--backend", f"quiver:{A2}", str(path))
    assert code == 0, err
    verdict = json.loads(out)
    assert verdict["valid_narrow_sequence"] and verdict["is_aisle"]

    path.write_text(json.dumps(A2_SEQUENCES["invalid"]))
    code, out, err = run_cli("classify", "--backend", f"quiver:{A2}", str(path))
    assert code == 0, err
    verdict = json.loads(out)
    assert not verdict["valid_narrow_sequence"] and verdict["violations"]


def test_classify_p1(tmp_path):
    data = {"entries": {"0": {"tag": "zero"}, "1": {"tag": "tor", "points": [0]},
                        "2": {"tag": "all"}}}
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli("classify", "--backend", "p1", str(path))
    assert code == 0, err
    verdict = json.loads(out)
    assert verdict["form"]["form"] == "I" and verdict["is_aisle"]


# dedekind sequence files over the primes 2, 3: a pivot sequence (an aisle)
# and one that rises from the class of 2 to the class of 3
DEDEKIND_SEQUENCES = {
    "pivot": {"entries": {"0": "mod", "1": {"support": [2]}, "2": "zero"}},
    "invalid": {"entries": {"0": "mod", "1": {"support": [2]}, "2": {"support": [3]}}},
}


def test_classify_dedekind(tmp_path):
    path = tmp_path / "dd.json"
    path.write_text(json.dumps(DEDEKIND_SEQUENCES["pivot"]))
    code, out, err = run_cli("classify", "--backend", "dedekind", "--primes",
                             "2,3", str(path))
    assert code == 0, err
    verdict = json.loads(out)
    assert verdict["is_aisle"] and verdict["form"]["pivot"] == 1


@pytest.mark.parametrize("label, shown", [(2.7, "2.7"), (True, "true"), (4, "4"), (-3, "-3"),
                                          (2 ** 1024, str(2 ** 1024))],
                         ids=["float", "bool", "composite", "negative", "beyond-a-float"])
def test_classify_dedekind_refuses_support_labels_that_are_not_primes(tmp_path, capsys, label,
                                                                      shown):
    """2.7 would round to 2, JSON true would hash as 1, and 4, -3 and
    2^1024 (past a float, so tested by integer square root) are no primes:
    each is a usage error naming what a label is."""
    path = tmp_path / "dd.json"
    path.write_text(json.dumps({"entries": {"0": "mod", "1": {"support": [label]}, "2": "zero"}}))
    assert cli.main(["classify", *DEDEKIND_ARGS, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"].endswith(
        f"support labels are prime integers, got {shown}"), err


@pytest.mark.parametrize("points", [0, -2])
@pytest.mark.parametrize("command", ["enumerate", "verify", "classify"])
def test_p1_refuses_points_below_1_before_any_work(command, points, capsys):
    """A line with no closed points is refused before anything is read or
    computed: classify is given a file that does not exist."""
    argv = [command, "--backend", "p1", "--points", str(points)]
    assert cli.main(argv + (["/does/not/exist.json"] if command == "classify" else [])) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": f"--points must be at least 1 for the p1 backend, got {points}"}, err


def test_classify_garbage_input_exits_2(tmp_path):
    path = tmp_path / "junk.json"
    for text in ("{not json", json.dumps({"wrong": "shape"})):
        path.write_text(text)
        code, _, err = run_cli("classify", "--backend", f"quiver:{A2}", str(path))
        assert code == 2, (text, err)


@pytest.mark.parametrize("entries, shown", [([[7]], "7"), ([[-1]], "-1"), ([[True]], "true")])
def test_classify_refuses_ids_outside_the_table(tmp_path, entries, shown):
    """a2 has ids 0..2: 7 is past the end, -1 would index from it, and JSON
    true would hash as id 1; each is a usage error naming the range."""
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"lo": 0, "hi": 0, "entries": entries, "below": [], "above": [0, 1, 2]}))
    code, out, err = run_cli("classify", "--backend", f"quiver:{A2}", str(path))
    assert code == 2 and out == "", (out, err)
    assert f"integers in 0..2, got {shown}" in json.loads(err)["error"], err


@pytest.mark.parametrize("backend, data, error", [
    (f"quiver:{A2}", {"lo": 0.9, "hi": 0, "entries": [[1, 2]], "below": [], "above": [0, 1, 2]},
     "window bound 'lo' is not an integer: 0.9"),
    (f"quiver:{A2}", {"lo": 0, "hi": False, "entries": [[1, 2]], "below": [], "above": [0, 1, 2]},
     "window bound 'hi' is not an integer: False"),
    ("p1", {"entries": {"0": {"tag": "line", "n": 1.7}}}, "twist level 'n' is not an integer: 1.7"),
    ("p1", {"entries": {"0": {"tag": "line", "n": True}}}, "twist level 'n' is not an integer: True"),
], ids=["lo-float", "hi-bool", "n-float", "n-bool"])
def test_classify_refuses_window_bounds_and_twists_that_are_not_integers(backend, data, error,
                                                                         tmp_path):
    """A float or a bool is not read as the integer it rounds or hashes to."""
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli("classify", "--backend", backend, str(path))
    assert code == 2 and out == "", (out, err)
    assert json.loads(err)["error"].endswith(error), err


@pytest.mark.parametrize("label, shown", [(True, "true"), (1.5, "1.5"), (7, "7")],
                         ids=["bool", "float", "past-the-points"])
def test_classify_p1_refuses_point_labels_outside_the_points(tmp_path, label, shown):
    """With --points 2 the closed points are 0 and 1: JSON true would hash
    as point 1, 1.5 is no label, and 7 is past the last point; each is a
    usage error naming ``points``."""
    path = tmp_path / "p1.json"
    path.write_text(json.dumps({"entries": {"0": {"tag": "tor", "points": [label]},
                                            "1": {"tag": "all"}}}))
    code, out, err = run_cli("classify", "--backend", "p1", "--points", "2", str(path))
    assert code == 2 and out == "", (out, err)
    assert json.loads(err)["error"].endswith(
        f"point labels in 'points' are integers in 0..1, got {shown}"), err


E6 = "demos/quivers/e6.json"

# one indecomposable of E6 at degree 0, the zero below-tail or itself below
E6_SEQUENCES = {
    "zero-below": {"lo": 0, "hi": 0, "entries": [[0]], "below": [], "above": [0]},
    "wide-below": {"lo": 0, "hi": 0, "entries": [[0]], "below": [0], "above": [0]},
}


def test_classify_e6_in_seconds(tmp_path):
    """The decider reads the Hom and Ext matrices, so classify on E6
    builds no representation."""
    for name, data in E6_SEQUENCES.items():
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(data))
        proc = run_cli_process("classify", "--backend", f"quiver:{E6}", str(path), timeout=30)
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads(proc.stdout)
        assert verdict["valid_narrow_sequence"] and verdict["is_aisle"] == (name == "zero-below")


def test_classify_quiver_calls_no_search(tmp_path, monkeypatch):
    """With the extension and kernel searches and the table of
    representations refused, the a2 and E6 verdicts are unchanged."""
    from tstructkit.quiver import QuiverBackend

    def refuse(*args):
        raise AssertionError("search called")

    for name in ("part_sets", "middle_terms", "_build_table"):
        monkeypatch.setattr(QuiverBackend, name, refuse)
    cases = [(A2, A2_SEQUENCES["valid"], (True, True)), (A2, A2_SEQUENCES["invalid"], (False, False)),
             (E6, E6_SEQUENCES["zero-below"], (True, True)), (E6, E6_SEQUENCES["wide-below"], (True, False))]
    for quiver, data, want in cases:
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(data))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["classify", "--backend", f"quiver:{quiver}", str(path)]) == 0
        verdict = json.loads(out.getvalue())
        assert (verdict["valid_narrow_sequence"], verdict["is_aisle"]) == want, (quiver, verdict)


def test_verify_on_e6_refuses_the_subset_scan_in_seconds():
    """E6's 36 indecomposables are beyond ``core.MAX_SCAN_INDECS``: the
    refusal is the first line, before any representation is built."""
    proc = run_cli_process("verify", "--backend", f"quiver:{E6}", timeout=30)
    assert proc.returncode == 1, (proc.stdout, proc.stderr)
    assert proc.stdout == ('FAIL suite-error: "indecomposable table too large for subset '
                           'enumeration: 36 indecomposables, above MAX_SCAN_INDECS = 14"\n'
                           'FAILED (1 failing checks)\n'), proc.stdout


def test_enumerate_e6_demo():
    """The E6 demo on the window 0:0: one record per narrow subcategory, and
    the 418 = Cat+(E6) tilting torsion classes have the whole category as
    above-tail."""
    proc = run_cli_process("enumerate", "--backend", f"quiver:{E6}", "--window", "0:0", timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["records"]
    assert len(rows) == 4878
    assert sum(r["parameters"]["above"] == list(range(36)) for r in rows) == 418
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "b0b71844724a16493f50aba53750506733baacb10643cfcd83505b18c6207360"


def test_enumerate_e6_streams_in_bounded_memory():
    """``enumerate`` writes each row as it forms it, so on E6 0:0 (6 MB of
    JSON) the process peaks below 45 MB; formatting the whole document in
    one string peaks near 73 MB (CPython 3.11, x86-64).  The CLI runs as a
    grandchild, so that the child's ``RUSAGE_CHILDREN`` sees it alone."""
    script = ("import resource, subprocess, sys\n"
              "subprocess.run([sys.executable, '-m', 'tstructkit.cli', 'enumerate', '--backend', "
              f"'quiver:{E6}', '--window', '0:0'], stdout=subprocess.DEVNULL, check=True)\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    proc = run_python_process("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 45 * 1024, f"max RSS {int(proc.stdout) / 1024:.1f} MB"


# SHA-256 of each command's --help text at 80 columns, recorded before the
# shared options moved to one parent parser
HELP_SHA256 = {
    "enumerate": "87ebf3e07807870e1abb77c3f0324d6604d744166a2bbd73804c9c2e78dc30cd",
    "verify": "45d1ca0209468c9f5b5ca46e7c2aac3e4c5bf3263659a64c11fa2e7fe50534e4",
    "classify": "50de9bcb252db79eb4fd9419aad8af6dbbcd64939495902d6660943efec72ea2",
}


@pytest.mark.parametrize("command", HELP_SHA256)
def test_help_is_pinned(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, "--help"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == HELP_SHA256[command], out.getvalue()


@pytest.mark.parametrize("argv, first", [
    (("enumerate", "--backend", "dedekind", "--primes", "2", "--window", "0:0"), "{"),
    (("verify", "--backend", "dedekind", "--primes", "2"), "PASS "),
    (("classify", "--backend", "dedekind", "--primes", "2,3", "seq.json"), "{"),
], ids=["enumerate", "verify", "classify"])
def test_main_writes_to_the_current_stdout(argv, first, tmp_path, monkeypatch):
    """``cli.main`` writes to ``sys.stdout`` as it is when a command runs, so
    ``contextlib.redirect_stdout`` captures every command's output."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seq.json").write_text(json.dumps(DEDEKIND_SEQUENCES["pivot"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    assert out.getvalue().startswith(first) and out.getvalue().endswith("\n"), out.getvalue()


def test_enumerate_callable_in_process():
    args = cli.build_parser().parse_args(
        ["enumerate", "--backend", "dedekind", "--primes", "2",
         "--window", "0:0", "--format", "json"])
    out = io.StringIO()
    assert cli.cmd_enumerate(args, out=out) == 0
    rows = json.loads(out.getvalue())["records"]
    assert len(rows) == 5


# SHA-256 of stdout, keyed on (command, quiver, window or sequence name); a
# faster or simpler path through the classifier must leave these bytes as
# they are
STDOUT_SHA256 = {
    ("enumerate", "a2", "0:2"): "ab6d5b56cef29352a7a55f769c1e49e0d7b043519ef9d75cf83ce873659df777",
    ("enumerate", "a3", "0:1"): "4d85859a0b50eac93e8eadeec64db965b802747c7e3246cb47acda742bd63067",
    ("verify", "a2", "0:1"): "11169c515a86b2cbabdaf47793613e6983faa09d722e27ee71135df022b9be29",
    ("verify", "a3", "0:1"): "11169c515a86b2cbabdaf47793613e6983faa09d722e27ee71135df022b9be29",
    ("classify", "a2", "valid"): "eb5a7a15fe7cb89b2b625fa2067d57c2161d9977455d1aceaaec7fcae4f6e600",
    ("classify", "a2", "invalid"): "77f6453aabab3590cd2edffe26c2ed05933a23a96d3b8e380b14f474b955d003",
}


@pytest.mark.parametrize("command, quiver, arg", sorted(STDOUT_SHA256))
def test_quiver_stdout_is_pinned(command, quiver, arg, tmp_path):
    if command == "classify":
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(A2_SEQUENCES[arg]))
        tail = (str(path),)
    else:
        tail = ("--window", arg)
    code, out, err = run_cli(command, "--backend", f"quiver:demos/quivers/{quiver}.json", *tail)
    assert code == 0 and err == "", err
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command, quiver, arg]


P1_ARGS = ("--backend", "p1", "--points", "3", "--window=-2:2", "--degrees=-2:2")
DEDEKIND_ARGS = ("--backend", "dedekind", "--primes", "2,3")

# SHA-256 of stdout of the p1 and dedekind backends, keyed on (command,
# backend, sequence name or None); recorded before the Dedekind table was
# built from local extension sets and before `verify` streamed the p1 forms
SYMBOLIC_STDOUT_SHA256 = {
    ("verify", "p1", None): "5eab638dd3505504d0a2724db3fe48eb548e87efad0f08eca6539bb8da811526",
    ("enumerate", "p1", None): "4a967134dc21b146ef6f5328c6f4bdebc8a0642360723f10b4ed29007069fbcb",
    ("verify", "dedekind", None): "6cb9fb3935e52b4d909ac3672c8da10653a3c8a41fd24b7c3778f14a50dbdc22",
    ("enumerate", "dedekind", None): "2f85f954468813ed605365d3ecf56d9a693ccdbd5834d54c82be09d7fc8dc6aa",
    ("classify", "dedekind", "pivot"): "2ca97cfc18edb59ea1257ce98a62b66beb613ff4398949711e107e9d61284527",
    ("classify", "dedekind", "invalid"): "ea60b6df118b8bf24bf2befc48b5a4d1638e9c62ec36ce7e25b2f91094ef89de",
}


@pytest.mark.parametrize("command, backend, name", sorted(SYMBOLIC_STDOUT_SHA256, key=repr))
def test_symbolic_stdout_is_pinned(command, backend, name, tmp_path):
    argv = (command,) + (P1_ARGS if backend == "p1" else DEDEKIND_ARGS)
    if name:
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(DEDEKIND_SEQUENCES[name]))
        argv += (str(path),)
    code, out, err = run_cli(*argv)
    assert code == 0 and err == "", err
    assert hashlib.sha256(out.encode()).hexdigest() == SYMBOLIC_STDOUT_SHA256[command, backend, name]


def test_p1_roundtrip_witness_is_the_first_failing_key_in_sorted_order(monkeypatch):
    """`verify` streams the p1 forms unsorted; its roundtrip witness is
    still the first failing form of ``p1_enumerate_sequences``."""
    window = (3, -2, 2, -2, 2)
    forms = projline.p1_enumerate_sequences(*window)
    rng = random.Random("p1-witness")
    failing = {f.key() for f in forms if rng.random() < 0.5}
    first = next(f.key() for f in forms if f.key() in failing)
    assert first != next(f.key() for f in projline.p1_sequence_forms(*window)
                         if f.key() in failing)
    classify = projline.classify_p1_sequence

    def faulty(entries, below, above):
        got = classify(entries, below, above)
        return projline.P1Invalid("injected") if got.key() in failing else got

    monkeypatch.setattr(projline, "classify_p1_sequence", faulty)
    checks = {name: (ok, witness) for name, ok, witness in cli._p1_checks(*window)}
    assert checks["sequence-form-roundtrip"] == (False, [first])


# Runs ``cli.main`` on its arguments with numpy made unimportable, after
# checking that importing tstructkit loads only standard-library modules.
NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
before = set(sys.modules)
import tstructkit
from tstructkit import cli
third_party = sorted(name for name in set(sys.modules) - before
                     if name.partition(".")[0] not in sys.stdlib_module_names | {"tstructkit"})
assert not third_party, third_party
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, pin", [
    (("enumerate", "--backend", "quiver:demos/quivers/a3.json", "--window", "0:1"),
     STDOUT_SHA256["enumerate", "a3", "0:1"]),
    (("verify", "--backend", "dedekind"), None),
], ids=["enumerate-a3", "verify-dedekind"])
def test_cli_runs_without_numpy(argv, pin):
    proc = run_python_process("-c", NO_NUMPY, *argv, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if pin:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == pin
    else:
        lines = proc.stdout.strip().splitlines()
        assert lines[-1].startswith("OK")
        assert lines[:-1] and all(line.startswith("PASS ") for line in lines[:-1])
