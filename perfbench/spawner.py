"""Starts the benchmark's child processes from a small process.

Linux folds the hiwater RSS of the spawning process into the child's
ru_maxrss at exec, so a child spawned by the benchmark itself, which holds
parsed tables, would report the benchmark's peak memory as its own. This
process stays small. It reads one JSON request per line on stdin,
{"argv": [...], "out": path, "err": path}, runs it to completion with
stdout and stderr in those files, and answers with one JSON line: wall time
from spawn to reap, CPU time, ru_maxrss in MB, exit code, and the speed
calibration taken around it. It runs on one CPU, which its children
inherit.
"""

import json
import os
import subprocess
import sys
import time

from common import calibrate, pin_to_one_cpu


def main() -> None:
    pin_to_one_cpu()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            cal_before = calibrate()
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            cal_s = 0.5 * (cal_before + calibrate())
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024.0,
                          "returncode": proc.returncode,
                          "cal_s": cal_s}), flush=True)


if __name__ == "__main__":
    main()
