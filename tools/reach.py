"""Reachability probe: what a CLI call compiles of the package, and which
of its functions the call never enters.

    python3 tools/reach.py [--src DIR] ARGV [ARGV ...]

Each ARGV is one quoted command line of the CLI, such as "verify" or
"analyze abelian --orders 2,3 --p 397 --theta1 1,1 --theta2 1,2".  Each
runs in a fresh interpreter that imports the package from DIR (by
default the src/ next to this script) under sys.setprofile, with its
output discarded.  For each the probe prints the package modules the
call loaded, the non-blank lines of each (what a process compiles when
no bytecode cache is read) and the functions of each, methods and
nested functions included, that no frame entered.  Comprehensions and
lambdas are not counted.  Standard library only; not part of the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = "udrfusion"
CO_OPTIMIZED = 0x0001  # a function's frame, not a module's or a class body's


def _functions(code):
    """The named function code objects under code, nested ones included."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def _key(code) -> tuple[int, str]:
    return code.co_firstlineno, getattr(code, "co_qualname", code.co_name)


def _probe(argv: list[str]) -> dict:
    """Run the CLI on argv in this process under a profile hook and
    report, per loaded package module, its non-blank lines and the
    functions never entered."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from udrfusion import cli

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    finally:
        sys.setprofile(None)
    seen = {(c.co_filename, *_key(c)) for c in entered}
    modules = {}
    for name, module in sorted(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if not (name == PACKAGE or name.startswith(PACKAGE + ".")) or path is None:
            continue
        source = Path(path).read_text()
        compiled = compile(source, path, "exec")
        modules[name] = {
            "lines": sum(1 for line in source.splitlines() if line.strip()),
            "functions": sum(1 for _ in _functions(compiled)),
            "never_entered": sorted(
                _key(f)[1] for f in _functions(compiled) if (path, *_key(f)) not in seen
            ),
        }
    return {"argv": argv, "exit": code, "modules": modules}


def _report(result: dict) -> str:
    modules = result["modules"]
    width = max(map(len, modules), default=0)
    lines = [f"$ {' '.join(result['argv'])}  (exit {result['exit']})",
             f"{'module':<{width}}  lines  functions  never entered"]
    for name, row in modules.items():
        lines.append(f"{name:<{width}}  {row['lines']:>5}  {row['functions']:>9}  "
                     f"{len(row['never_entered']):>13}")
    lines.append(f"{'total':<{width}}  {sum(r['lines'] for r in modules.values()):>5}  "
                 f"{sum(r['functions'] for r in modules.values()):>9}  "
                 f"{sum(len(r['never_entered']) for r in modules.values()):>13}")
    for name, row in modules.items():
        if row["never_entered"]:
            lines.append(f"  {name}: {', '.join(row['never_entered'])}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs="+", help="one quoted CLI command line per probe")
    args = parser.parse_args()
    if args.child:
        print(json.dumps(_probe(args.argv)))
        return 0
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for line in args.argv:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--", *line.split()],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        print(_report(json.loads(proc.stdout.splitlines()[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
