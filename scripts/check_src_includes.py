#!/usr/bin/env python3
"""Fail when a header under src/ is dead: included by no program source.

    python3 scripts/check_src_includes.py

Run from anywhere inside a checkout. A header counts as live when some file
under src/, bench/, perfbench/ or examples/ other than the header itself
includes it as "<dir>/<name>.hpp" (the form every source here uses). Tests
do not count: a module that only its own tests include is dead code. Prints
each dead header and exits 1 if there is any, else exits 0.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USERS = ("src", "bench", "perfbench", "examples")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = {".hpp", ".h", ".cpp", ".cc"}


def main():
    included = {}  # include path -> set of files including it
    for top in USERS:
        for f in (ROOT / top).rglob("*"):
            if f.suffix not in SOURCE_SUFFIXES or not f.is_file():
                continue
            for path in INCLUDE.findall(f.read_text(encoding="utf-8")):
                included.setdefault(path, set()).add(f)

    dead = []
    for header in sorted(SRC.rglob("*.hpp")):
        key = header.relative_to(SRC).as_posix()
        if not included.get(key, set()) - {header}:
            dead.append(key)
    for key in dead:
        print(f"check_src_includes: src/{key} is included by nothing in "
              f"{', '.join(USERS)}", file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
