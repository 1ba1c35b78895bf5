"""Core-speed witness: samples how fast one CPU runs right now.

    python3 perfbench/witness.py <cpu> <out-file>

Pinned to `<cpu>`, it times a fixed integer loop in its own thread CPU
time, writes `<perf_counter seconds> <loop ns>` to `<out-file>` and
sleeps `PERIOD_S`, until SIGTERM. Thread CPU time leaves out the time the
witness waits for the CPU, so a longer loop means the core itself ran
slower (a busy sibling hyperthread, a lower clock), not that `gemini`
kept it busy. An untimed warm-up pass first refills the caches the
program evicted during the sleep, so the program's own footprint moves
the reading little. `run.py` divides each timing by the witness's
slowdown over the same interval; see `stats.slowdown`.
"""

import os
import signal
import sys
import time

WARM, LOOP = 1000, 4000
PERIOD_S = 0.02


def spin(n):
    x = 0
    for i in range(n):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return x


def main():
    cpu, out = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    with open(out, "w", buffering=1) as f:
        while not stop:
            spin(WARM)
            c0 = time.thread_time_ns()
            spin(LOOP)
            ns = time.thread_time_ns() - c0
            f.write(f"{time.perf_counter():.6f} {ns}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
