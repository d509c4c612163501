"""The process entry of the CLI: `python -m udrfusion` and the `udrfusion`
console script both call run().

At exit the interpreter runs a full cyclic collection over every object
still alive, then frees the same objects by refcount anyway.  run()
collects the young generations, which hold the garbage the command left
(frozen, it would keep its pages through the teardown and raise the peak
RSS), and freezes the rest, so that last collection has nothing to walk.
It does not end the process itself, so atexit hooks and the final flush
of stdout and stderr run as before.  cli.main(argv) leaves the collector
alone, for callers in a process that goes on.
"""

import gc
import sys

from . import cli


def run() -> int:
    code = cli.main()
    gc.collect(1)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
