"""Every command's outputs, byte for byte, against recorded digests.

``golden/digests.txt`` holds the lines ``tools/output_digests.py`` prints
(``<sha256>  <file>`` per output, ``exit <code>  <run>`` per command),
after three header lines naming the Python version, the numpy version and
the machine they were recorded on.  Floating-point results may differ in
their last bits on another platform or library version, so the test runs
only where all three match, and skips elsewhere.  A change that moves an
output on purpose records the script's new lines under the same header
and says in the change log which runs moved and why.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.txt"


def _by_name(lines: list[str]) -> dict[str, str]:
    """Each line keyed by what it names: the run or the file after the two spaces."""
    return {line.split("  ", 1)[1]: line for line in lines}


def test_outputs_match_the_recorded_digests():
    header, lines = [], []
    for line in GOLDEN.read_text().splitlines():
        (header if line.startswith("# ") else lines).append(line)
    recorded = dict(line[2:].split(" ", 1) for line in header)
    here = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}
    if recorded != here:
        pytest.skip(f"digests were recorded on {recorded}, not on this {here}")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    expected, actual = _by_name(lines), _by_name(proc.stdout.splitlines())
    moved = sorted(name for name in expected.keys() | actual.keys()
                   if expected.get(name) != actual.get(name))
    assert not moved, f"outputs that moved: {', '.join(moved)}"
    assert proc.stdout.splitlines() == lines
