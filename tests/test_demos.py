"""The demo scripts print the same output as when it was last reviewed.

Each demo's stdout is pinned by its sha256, so a change that moves any
printed closure, verdict, witness or grammar shows up here.  When a change
is meant to alter a demo's output, inspect the new output and update its
digest."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_words_and_rules.py": "a4eb1df683b5cbf4812347706451c9f7d8847554f8efc4a25eece281ce2d1fa7",
    "02_membership_search.py": "6f3e5ec7bf13aac173d47eb39d7a1d17f3b66c579a3738f3156fc0a574856e5f",
    "03_regular_equality.py": "b7e706e6cf297951485bc42a2a25739b384e419d0fb47bb72e609841bb0599a1",
    "04_grammar_compilers.py": "05d19fdb9f02cd703f654e609e0d1d335e6933d6e1c80ca4cc8fa39e00ce82d2",
    "05_circular_splicing.py": "b4ae6b6e6483240aa9dd389c94262cc525445ad202d53a70444519ada4c3749f",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_output(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[demo]
