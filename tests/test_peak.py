"""The CI memory wrapper, `tools/peak.py`: it passes main's exit code through
under its cap, exits 1 above it, and reports the wall time and peak RSS."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def peak(*argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "peak.py"), *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
@pytest.mark.parametrize("cap, argv, code", [
    ("100000", ["windows", "3", "1", "0"], 0),
    ("100000", ["windows", "4", "4", "0"], 2),  # main's usage error passes through
    ("1", ["windows", "3", "1", "0"], 1),       # no interpreter fits in 1 MB
])
def test_peak_exits_with_mains_code_under_its_cap(cap, argv, code):
    got, out, err = peak(cap, *argv)
    assert got == code
    assert re.search(r"^windows: \d+\.\d s, peak RSS \d+ MB$", err, re.MULTILINE)
    assert (code == 1) == ("is above 1 MB" in err)
    assert bool(out) == (code != 2)  # the command's stdout is left as it is
