"""Runs ``python -m bergman`` children one at a time for the CLI workload.

Linux counts the memory of the process that spawns a child into the child's
peak resident size, so a child spawned by the benchmark process, which holds
numpy, the package and the per-op timings, would report the benchmark's own
peak.  This process is much smaller than any bergman child, so the peak it
reports for each child is the child's own.

Protocol: one JSON argv list per line on stdin.  For each, one line
``<exit code> <peak RSS in kB> <stdout size>`` on stdout, followed by the
child's stdout bytes.  The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys


def main() -> None:
    out = sys.stdout.buffer
    for line in sys.stdin:
        proc = subprocess.Popen([sys.executable, "-m", "bergman"] + json.loads(line),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        data = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.write(f"{proc.returncode} {usage.ru_maxrss} {len(data)}\n".encode() + data)
        out.flush()


if __name__ == "__main__":
    main()
