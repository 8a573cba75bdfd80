"""Run one grwin CLI command in process under a peak-memory cap.

Usage: PYTHONPATH=src python tools/peak.py MAX_MB ARG...

Calls grwin.cli.main(ARG...), then prints its wall time and the process's
peak resident set size to stderr.  The exit status is 1 when the peak is
above MAX_MB, and otherwise main's own code.  Linux only: ru_maxrss is read
in KB.
"""

from __future__ import annotations

import resource
import sys
import time

from grwin import cli


def main(argv: list[str]) -> int:
    cap, args = int(argv[0]), argv[1:]
    start = time.perf_counter()
    code = cli.main(args)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    print(f"{args[0]}: {wall:.1f} s, peak RSS {peak:.0f} MB", file=sys.stderr)
    if peak > cap:
        print(f"peak RSS {peak:.0f} MB is above {cap} MB", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
