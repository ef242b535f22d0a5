"""Set-up probe: one fresh interpreter that imports prodgeo from the
checkout, builds what a workload's first op needs, prints ``ready`` and
exits.  ``run.py`` times it from spawn to that line, so the benchmark's
own input generation, which ``run.py`` does, is not part of it.

    python3 bench/probe.py WORKLOAD SEED TMPDIR
"""

import os
import sys


def main() -> int:
    workload, seed, tmpdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    w = workloads.WORKLOADS[workload](seed, tmpdir)
    w.ready(workloads.plain_api())
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
