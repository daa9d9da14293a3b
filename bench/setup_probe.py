"""Set-up probe: import the program, prepare one workload's inputs, and
print the wall-clock time (``time.time()``) at which they are ready.
run.py starts it several times and takes set-up time as that time minus
the moment it started the process.

    python3 bench/setup_probe.py <workload> <seed>
"""
import sys
import time

import env

if __name__ == "__main__":
    env.configure()
    import workloads

    workloads.prepare(sys.argv[1], int(sys.argv[2]))
    print(repr(time.time()))
