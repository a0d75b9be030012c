"""Run one command; print its wall time and resource usage as JSON.

    python3 bench/launch.py LOG_PATH COMMAND...

run.py starts every timed CLI invocation through this small process, which
imports nothing heavy. A child's peak RSS (ru_maxrss) includes the memory
image of the process it was forked from, so launching the CLI straight
from the benchmark process, which holds numpy and afec_lab, would report
the benchmark's RSS whenever it is the larger of the two.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    log_path, cmd = sys.argv[1], sys.argv[2:]
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
               "maxrss_kib": usage.ru_maxrss, "exit_code": proc.returncode},
              sys.stdout)


if __name__ == "__main__":
    main()
