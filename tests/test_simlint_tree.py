"""The analyzer's own acceptance test: the shipped tree is clean.

This is the in-repo mirror of the CI lint gate — if a change introduces
a determinism hazard anywhere under ``src``, this test (and CI) fails
with the exact finding lines.  It also seeds a violation into a
sim-domain file on disk to prove the tree walk actually looks at new
files (guarding against path/classification regressions that would
make the gate vacuously green).
"""

import pathlib

from repro.lint import PARSE_ERROR_RULE, lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_shipped_tree_is_simlint_clean():
    findings, checked = lint_paths([str(REPO_ROOT / "src")], root=REPO_ROOT)
    assert checked > 80, f"expected the whole package, saw {checked} files"
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"simlint findings on the shipped tree:\n{rendered}"


def test_seeded_violation_is_caught(tmp_path):
    pkg = tmp_path / "src" / "repro" / "simnet"
    pkg.mkdir(parents=True)
    bad = pkg / "injected.py"
    bad.write_text(
        "import random\n"
        "def jitter():\n"
        "    return random.random()\n",
        encoding="utf-8")
    findings, checked = lint_paths([str(tmp_path / "src")], root=tmp_path)
    assert checked == 1
    assert [f.rule for f in findings] == ["SIM001"]
    assert findings[0].path == "src/repro/simnet/injected.py"


def test_no_parse_errors_anywhere():
    # Parse errors (SIM000) are reported with no rule selected.
    findings, _ = lint_paths(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"),
         str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples")],
        rules=[], root=REPO_ROOT)
    parse_failures = [f for f in findings if f.rule == PARSE_ERROR_RULE]
    assert parse_failures == []
