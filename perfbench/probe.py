"""Set-up probe timed by run.py: start the interpreter, import cbrap from the
checkout's ``src`` and build a workload's first environment and projection.

    python3 perfbench/probe.py <workload> <seed> [--tiny]
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    w = workloads.WORKLOADS[sys.argv[1]]
    workloads.build_first(w, w.sizes("--tiny" in sys.argv[3:]), int(sys.argv[2]))
