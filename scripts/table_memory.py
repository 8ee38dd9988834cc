#!/usr/bin/env python3
"""Peak RSS of CLI tables by row count.

Runs `python -m cpwalls potential` and `correlators` on a cp grid from
z = 0.001 to 0.999 at each given row count, with stdout to /dev/null, and
prints each child's peak resident set size (ru_maxrss from os.wait4) in
MiB. The children import cpwalls from this checkout's src directory.

This process imports no NumPy: Linux folds the spawning process's peak RSS
into the child's ru_maxrss at exec, so a large parent would report its own
peak as the child's.

Usage:
    python scripts/table_memory.py [--runs N] ROWS...

Prints "command rows run peak_rss_mib" per child.
"""

import argparse
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("potential", "correlators")


def peak_rss_mib(command: str, rows: int) -> float:
    """The peak RSS of one CLI run, in MiB; SystemExit if it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "cpwalls", command, "--geometry", "cp",
            "--z-min", "0.001", "--z-max", "0.999", "--z-count", str(rows)]
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {code}")
    return usage.ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", type=int, nargs="+", help="grid row counts")
    parser.add_argument("--runs", type=int, default=1, help="runs per table")
    args = parser.parse_args()
    print("command rows run peak_rss_mib")
    for rows in args.rows:
        for command in COMMANDS:
            for run in range(1, args.runs + 1):
                print(f"{command} {rows} {run} {peak_rss_mib(command, rows):.1f}",
                      flush=True)


if __name__ == "__main__":
    main()
