"""Start processes for run.py and report what each one used.

    python3 perfbench/launcher.py

Reads one JSON request per line on standard input, ``{"argv": [...],
"log": path}``, runs that process with its standard output discarded and
its standard error in *log*, and answers one JSON line ``{"wall", "cpu",
"rss_kb", "code"}``. Ends at the end of its input.

Commands are started from this small process rather than from the
benchmark itself because Linux carries the peak RSS of the process that
forks into the child's ``ru_maxrss``: a child of the benchmark, which holds
the whole corpus, would report the benchmark's memory as its own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["log"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "code": proc.returncode,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
