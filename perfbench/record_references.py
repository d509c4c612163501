"""Record the reference output of every instance a seed can choose.

Run from the root of a checkout at the commit whose outputs are the
reference:

    python3 perfbench/record_references.py

Writes perfbench/references.json: the sha256 of each instance's stdout and
the number of work items in it.  It refuses to record an output that exits
nonzero or reports a failed check.
"""

import hashlib
import json
import sys
import time

import run
import workloads


def main() -> int:
    refs = {}
    with run.Spawner() as spawner:
        for argv in workloads.candidates():
            inv = spawner.run([sys.executable, "-m", "udrfusion", *argv], time.perf_counter() + 600)
            if inv.returncode != 0:
                print(f"udrfusion {' '.join(argv)} exited {inv.returncode}", file=sys.stderr)
                return 1
            failed = workloads.failed_checks(inv.stdout)
            if failed:
                print(f"udrfusion {' '.join(argv)} failed checks: {', '.join(failed)}",
                      file=sys.stderr)
                return 1
            refs[" ".join(argv)] = {
                "sha256": hashlib.sha256(inv.stdout).hexdigest(),
                "items": workloads.items_in(argv, inv.stdout),
            }
            print(f"{inv.wall:7.2f} s  udrfusion {' '.join(argv)}")
    workloads.REFERENCES_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
