"""Job launcher for run.py: reads one JSON request per stdin line, runs it,
answers one JSON line.

A child's peak RSS, as `os.wait4` reports it, is never below the high-water
RSS of the process that forked it, because exec records the old address
space's peak.  run.py grows while it parses large outputs, so it starts
this small process once and launches every job from here.  The job's
stdout and stderr go to the files named in the request; this process never
reads them, so it stays small.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            os.kill(proc.pid, signal.SIGKILL)  # not proc.kill(): that may reap the child

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode,
            "timed_out": timed_out.is_set()}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
