"""Benchmark of the tsvqvco pipeline.

    python3 bench/run.py --workload {qvco_core,qvco_buffered,design_sweep,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Runs one workload for about S seconds (by default BENCHMARK.json's
run_seconds), checks every operation's outputs
against bench/reference.json, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured untraced; with --trace 1
they are the per-layer ones, from a run that alternates untraced and
traced operations.  A full report (environment, host-speed calibration,
every batch's time, rejections, spans) goes to bench/results/.
--workload all runs the three workloads one after another, each in its
own process, and ends with one combined line.

README.md beside this file gives the workloads, the metrics and which
layer metric should move which end-to-end metric.
"""
import argparse
import json
import sys

import env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("qvco_core", "qvco_buffered", "design_sweep", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=env.spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env.configure()
    import harness  # numpy and the program load only after configure()

    result = harness.run_all(args) if args.workload == "all" else harness.run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
