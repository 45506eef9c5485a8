import hashlib
import json

import pytest

from conftest import run_cli_process

from tstructkit import cli
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
    "drop-extension-closure": "909722b5a0a95fb67316b470e7df2c1d4ebfaedf97b0b5d778cf62acdb6e3e90",
    "skip-kernel-condition": "2f2e5a7354a30431418a43d7ab47d68011ab84588344108658d5a744b7d3788f",
    "swap-ext-direction": "fab09bc82d256df97317354b2268100b868292eaa105fd02d4af6850e92d1839",
    "perp-ignores-ext": "8e402e6eb7a84eed07dee33dba32df15b4ecbb67a853d820a71a9edc62aa56c3",
    "wide-closure-skips-kernels": "1126f579fbc507f8b0ff45a1db480a778482d35deccf7d24e5b955a8a717da08",
}


@pytest.mark.parametrize("fault", FAULT_NAMES)
def test_every_fault_turns_verify_red(fault):
    code, out, err = run_cli("verify", "--backend", f"quiver:{A2}",
                             "--window", "0:1", "--mutate", fault)
    assert code == 1, (fault, out, err)
    assert "FAIL" in out, err
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


def test_truncated_quiver_refused_up_front(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"lo": 0, "hi": 0, "entries": [[0]], "below": [], "above": [0]}))
    backend = "quiver:demos/quivers/kronecker.json"
    for argv in (("enumerate", "--backend", backend, "--window", "0:0"),
                 ("verify", "--backend", backend, "--window", "0:0"),
                 ("classify", "--backend", backend, str(path))):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "", (argv, out, err)
        assert "dim_bound [1, 1]" in json.loads(err)["error"], err


def test_truncated_spec_refused_before_the_table_is_built(tmp_path):
    # building this Kronecker table takes minutes; the refusal reads the spec
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[0, 1], [0, 1]], "dim_bound": [3, 3]}))
    proc = run_cli_process("enumerate", "--backend", f"quiver:{path}", "--window", "0:0", timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", (proc.stdout, proc.stderr)
    assert "dim_bound [3, 3]" in json.loads(proc.stderr)["error"], proc.stderr


@pytest.mark.parametrize("spec, key", [
    ({"vertices": 2, "arrows": [[0, 1]], "dim_bound": 3}, "dim_bound"),
    ({"vertices": 2, "arrows": [[0, 1]], "field": 2.0}, "field"),
    ({"vertices": 2}, "arrows"),
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


def test_enumerate_table_and_csv_run():
    for fmt in ("table", "csv"):
        code, out, err = run_cli("enumerate", "--backend", f"quiver:{A2}",
                                 "--window", "0:1", "--format", fmt)
        assert code == 0 and out, err


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


def test_classify_dedekind(tmp_path):
    data = {"entries": {"0": "mod", "1": {"support": [2]}, "2": "zero"}}
    path = tmp_path / "dd.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli("classify", "--backend", "dedekind", "--primes",
                             "2,3", str(path))
    assert code == 0, err
    verdict = json.loads(out)
    assert verdict["is_aisle"] and verdict["form"]["pivot"] == 1


def test_classify_garbage_input_exits_2(tmp_path):
    path = tmp_path / "junk.json"
    for text in ("{not json", json.dumps({"wrong": "shape"})):
        path.write_text(text)
        code, _, err = run_cli("classify", "--backend", f"quiver:{A2}", str(path))
        assert code == 2, (text, err)


def test_enumerate_callable_in_process():
    import io
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
    ("classify", "a2", "invalid"): "299c531c785c1dc2c988de6f1a1c39607e8c39156913ba012960b6c7978d0f02",
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
