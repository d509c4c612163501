"""Phase probe: where a CLI call's wall time goes, in fresh interpreters.

    python3 tools/phases.py [--src DIR] [--runs N] ARGV [ARGV ...]

Each ARGV is one quoted CLI command line, such as "verify".  For each,
N rounds (default 15) of fresh interpreters, one at a time, import the
package from DIR (default: the src/ next to this script), output
discarded, and the probe prints the median of each phase:
  start     `python -c pass`, spawn to exit: the interpreter and site
  parser    `import udrfusion.cli; cli.build_parser()`, spawn to exit
  command   the call as `python -m udrfusion ARGV` runs it, spawn to exit
  shutdown  of that call, from cli.main's return (time.perf_counter in
            the child) to this process's wait4
The environment decides whether a bytecode cache is read or written.
Standard library only; not part of the tests."""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

PARSER = "import udrfusion.cli as cli; cli.build_parser()"
# `python -m udrfusion`, with cli.main's return time written to fd argv[1]
COMMAND = """import os, runpy, sys, time
from udrfusion import cli
fd, main = int(sys.argv.pop(1)), cli.main
def stamped(argv=None):
    code = main(argv)
    os.write(fd, repr(time.perf_counter()).encode())
    return code
cli.main = stamped
runpy.run_module("udrfusion", run_name="__main__", alter_sys=True)
"""


def _spawn(args: list[str], env: dict) -> tuple[float, float, int]:
    """Run python with args, output discarded: (start, end, exit code)."""
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=quiet)
    _, status, _ = os.wait4(pid, 0)
    return start, time.perf_counter(), os.waitstatus_to_exitcode(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("argv", nargs="+", help="one quoted CLI command line per probe")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for line in args.argv:
        phases = {"start": [], "parser": [], "command": [], "shutdown": []}
        codes = set()
        for _ in range(args.runs):
            for name, code in (("start", "pass"), ("parser", PARSER)):
                start, end, _ = _spawn(["-c", code], env)
                phases[name].append(end - start)
            read_fd, write_fd = os.pipe()
            os.set_inheritable(write_fd, True)
            start, end, exit_code = _spawn(["-c", COMMAND, str(write_fd), *line.split()], env)
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as pipe:
                stamp = pipe.read()  # empty when cli.main did not return
            phases["command"].append(end - start)
            phases["shutdown"].append(end - float(stamp) if stamp else float("nan"))
            codes.add(exit_code)
        print(f"$ {line}  (exit {', '.join(map(str, sorted(codes)))}; medians of {args.runs})")
        for name, values in phases.items():
            print(f"  {name:<9}{1000 * statistics.median(values):8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
