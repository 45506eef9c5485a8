"""The demo scripts run end to end and print what they printed before.

``demos/integers_tour.py`` is left out: it takes about 12 s, most of it in
the Dedekind validator, which is slow until its tables are memoised
(ROADMAP item "Dedekind validator: memoise `middle_term_types`").
"""

import hashlib

import pytest

from conftest import run_python_process

# SHA-256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "aisles_and_refinement.py": "96924128ea378d4eeb34977bed47c1eeacd6ca4252f6cf5385b85bfb8ec99955",
    "quiver_tour.py": "f271f0df2ea77fbda6559318aaea77808f380151140430aa93e0961225869ba6",
    "projective_line_tour.py": "1581fd4997bacc8d72abc6bb0e1fa65d2ecd19480c553a4f3ed85780a6d065d8",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_runs_and_its_stdout_is_pinned(demo):
    proc = run_python_process(f"demos/{demo}")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo], proc.stdout
