"""One set-up of a benchmark run, timed by the caller from process start.

Usage: python3 perfbench/setup_child.py WORKLOAD SCRATCH-DIR

Imports fbr, parses the workload's group and fiber specs and creates
the temporary cache directory, then prints "ready" and cleans up.
"""

import os
import sys
import tempfile

import fbr
import workloads


def main():
    for group, fiber in workloads.specs(sys.argv[1]):
        fbr.parse_group_spec(group)
        fbr.parse_fiber_spec(fiber)
    cache_dir = tempfile.mkdtemp(dir=sys.argv[2])
    print("ready", flush=True)
    os.rmdir(cache_dir)


if __name__ == "__main__":
    main()
