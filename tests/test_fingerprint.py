"""Every artifact keeps its bytes: tools/fingerprint.py, run in a subprocess,
prints the lines recorded in tools/fingerprint.expected.

A change that moves floats on purpose rewrites the file with
`python tools/fingerprint.py --write` and names the lines that moved, and
why, in CHANGES.md. The header lines record the numpy version and the
OpenBLAS version and core the file was written under; another BLAS kernel
may give other bytes, so a different environment fails here too, named in
the message, rather than being skipped.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "fingerprint.py"
EXPECTED = ROOT / "tools" / "fingerprint.expected"


def parse(text: str) -> tuple[dict, dict]:
    """(environment, fingerprints): `# key value` header lines and
    `name sha256...` lines, each keyed by its first word."""
    env, prints = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            env[key] = value
        elif line:
            name, hashes = line.split(" ", 1)
            prints[name] = hashes
    return env, prints


def differences(want: dict, got: dict, what: str) -> list[str]:
    return [f"{what} {key}: recorded {want.get(key)}, now {got.get(key)}"
            for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)]


def test_fingerprint_lines_equal_the_recorded_ones():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=900)
    assert run.returncode == 0, run.stderr
    want_env, want = parse(EXPECTED.read_text())
    got_env, got = parse(run.stdout)
    assert len(want) == 16
    problems = differences(want_env, got_env, "environment") + differences(want, got, "moved")
    assert not problems, "\n".join(problems)
