"""Set-up time of one workload, measured inside this fresh process.

Times the import of the program's modules plus the workload's first
warm-up call (``protocol.warm_up(variant)``, or the smallest spectrum for
chain-sweep) and prints ``{"setup_s": seconds}``.  ``run.py`` starts it
several times and reports the median.

    python3 perfbench/probe_setup.py --workload electronic-haar --work-dir DIR
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload](args.work_dir).warm_up()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
