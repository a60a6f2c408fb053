"""A fixed pure-Python loop that measures the speed of one CPU.

Usage: python3 perfbench/calibrate.py CPU

The process pins itself to CPU, lowers its priority to nice 19 and runs a
fixed loop of integer bit operations and dict stores until its input ends.
Each line read from standard input is answered with one line: the number
of loop rounds done so far and the process's CPU seconds so far.  run.py
pins its measured children to the same CPU.  At nice 19 the loop takes
about 1.5 % of the CPU from a busy child, and its rounds per CPU second
show how fast that CPU ran during any window.
"""

from __future__ import annotations

import os
import select
import sys
import time


def loop(n=200):
    """One round of fixed work: bit iteration, big-int arithmetic, dict stores."""
    acc = 0
    table = {}
    for i in range(n):
        m = (i * 2654435761) & 0xFFFF
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
        table[(i & 1023, acc & 7)] = i
    return acc


def main():
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.nice(19)
    rounds = 0
    while True:
        loop()
        rounds += 1
        if select.select([sys.stdin], [], [], 0)[0]:
            if not sys.stdin.readline():
                return
            sys.stdout.write(f"{rounds} {time.process_time()}\n")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
