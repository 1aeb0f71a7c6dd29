"""Starts the benchmark's child processes on behalf of ``run.py``.

Linux copies the high-water RSS of the process a child was forked from into
the child's ``ru_maxrss`` when the child execs.  ``run.py`` imports numpy
and renders in-process references of hundreds of megabytes, so children it
forked itself would report its peak instead of their own.  This process
imports nothing heavy and stays small, so each child's ``ru_maxrss``,
collected here with ``os.wait4``, is the child's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}``,
answered by one JSON line on stdout, ``{"code", "wall_s", "rss_mb"}``.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)


if __name__ == "__main__":
    main()
