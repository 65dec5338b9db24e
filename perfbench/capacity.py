#!/usr/bin/env python3
"""Closed-loop capacity of the `serve` workload's warm daemon.

    python3 perfbench/capacity.py [--seed N] [--seconds S]

Run from the root of a source checkout. Sets the daemon up the way the
`serve` workload does, then, for 1, 2, 4 and 8 clients that each send
checked remote sweeps back to back for S seconds, prints the completed
sweeps per second and the median and 90th-percentile latency. The
highest rate is the capacity that the `serve` workload's offered rate
(Serve.RATE_PER_S in run.py) is a stated share of.
"""

import argparse
import os
import shutil
import statistics
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def closed_loop(serve, clients, seconds):
    """Sweeps per second and latencies of @p clients back-to-back
    senders; raises CheckFailed on a wrong or failed sweep."""
    walls, errors = [], []
    stop = time.perf_counter() + seconds

    def client(user):
        k = user
        while time.perf_counter() < stop:
            name, line = serve.plan[k % len(serve.plan)]
            ran = serve.remote_sweep(name, line, user)
            if ran.rc != 0 or \
                    run.table_body(ran.out) != serve.golden[(name, line)]:
                errors.append(f"{name}/{line}B")
            walls.append(ran.wall)
            k += clients

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(u,))
               for u in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    run.check(not errors, f"wrong remote sweeps: {errors[:3]}")
    return len(walls) / elapsed, sorted(walls)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()

    dynex, daemon = run.build()
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    serve = run.Serve(dynex, daemon, args.seed, False, run.Spans())
    try:
        serve.prepare()
        serve.setup()
        print("clients  sweeps/s  p50_ms  p90_ms")
        for clients in (1, 2, 4, 8):
            rate, walls = closed_loop(serve, clients, args.seconds)
            p90 = walls[-1 - len(walls) // 10]
            print(f"{clients:7d}  {rate:8.2f}  "
                  f"{statistics.median(walls) * 1e3:6.1f}  "
                  f"{p90 * 1e3:6.1f}", flush=True)
    finally:
        serve.teardown()


if __name__ == "__main__":
    main()
