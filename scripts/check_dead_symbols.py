#!/usr/bin/env python3
"""Fail when an out-of-line function under src/ is linked into no program.

    python3 scripts/check_dead_symbols.py --libs BUILD/src \\
        --programs BUILD/bench BUILD/examples PERFBENCH_BUILD

`--libs` names directories searched for the static libraries built from
src/; every global text symbol (`nm` type `T`) they define is a candidate.
`--programs` names directories searched for program executables (CMake's
own probe binaries under CMakeFiles/ are skipped). A candidate is live when
some program contains it; tests do not count, so a function only its own
tests call is dead. Prints each dead symbol that ALLOWLIST does not name and
exits 1 if there is any, else exits 0. A name on ALLOWLIST that is no longer
dead (deleted, or now linked into a program) fails too, so the list cannot
rot.

The build must be unoptimised and garbage-collect unreferenced sections:

    -O0 -ffunction-sections -fdata-sections  /  -Wl,--gc-sections

At -O2 a called function that was inlined everywhere leaves no symbol in
any program and reads as dead. Without --gc-sections a program carries every
function of each object file it links, called or not.

Header-only code (inline functions, templates, class bodies in .hpp files)
is not covered: it is emitted as weak or local symbols only where used, so
nothing here can tell it is unused. scripts/check_src_includes.py catches a
header nothing includes; a dead inline function in a live header passes.
"""

import argparse
import pathlib
import re
import subprocess
import sys

# Functions no program calls that stay, keyed by demangled name without the
# parameter list (overloads share an entry), each with the reason it stays.
ACCESSOR = "observability accessor: the API tests observe a run through"
SLOT_FORMAT = ("slot-format group: nine test files build their irregular-pattern "
               "DuplexConfig from it; a copy inside tests/ would not be smaller")
ALLOWLIST = {
    "u5g::E2eSystem::metrics": ACCESSOR,
    "u5g::E2eSystem::tracer": ACCESSOR,
    "u5g::E2eSystem::reliability_at": ACCESSOR,
    "u5g::E2eSystem::missed_grants": ACCESSOR,
    "u5g::E2eSystem::simulator": ACCESSOR,
    "u5g::E2eSystem::effective_duplex": ACCESSOR,
    "u5g::ShardedEngine::lbt_stats": ACCESSOR,
    "u5g::ShardedEngine::packets_started": ACCESSOR,
    "u5g::ShardedEngine::radio_deadline_misses": ACCESSOR,
    "u5g::ShardedEngine::threads": ACCESSOR,
    "u5g::SlotFormatConfig::SlotFormatConfig": SLOT_FORMAT,
    "u5g::SlotFormatConfig::format_of_slot": SLOT_FORMAT,
    "u5g::SlotFormatConfig::name": SLOT_FORMAT,
    "u5g::SlotFormat::mask": SLOT_FORMAT,
    "u5g::SlotFormat::render": SLOT_FORMAT,
    "u5g::slot_format": SLOT_FORMAT,
    "u5g::slot_format_table": SLOT_FORMAT,
    "u5g::DecidedFormat::to_slot_format": SLOT_FORMAT,
}

PARAMS = re.compile(r"\(.*\)( const)?$")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")


def archives(dirs):
    for d in dirs:
        yield from sorted(pathlib.Path(d).rglob("*.a"))


def programs(dirs):
    for d in dirs:
        for f in sorted(pathlib.Path(d).rglob("*")):
            if "CMakeFiles" in f.parts or not f.is_file():
                continue
            if not f.stat().st_mode & 0o111:
                continue
            with f.open("rb") as fh:
                if fh.read(4) != b"\x7fELF":
                    continue
            yield f


def nm(path, *flags):
    """(type, mangled name) for every symbol nm prints for `path`."""
    out = subprocess.run(["nm", *flags, str(path)], check=True, capture_output=True,
                         text=True).stdout
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3:
            yield parts[1], parts[2]


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--libs", nargs="+", required=True)
    ap.add_argument("--programs", nargs="+", required=True)
    args = ap.parse_args()

    libs = list(archives(args.libs))
    bins = list(programs(args.programs))
    if not libs or not bins:
        print(f"check_dead_symbols: found {len(libs)} libraries and {len(bins)} "
              "programs; nothing to compare", file=sys.stderr)
        return 2

    defined = set()
    for a in libs:
        defined.update(n for t, n in nm(a, "-g", "--defined-only") if t == "T")
    linked = set()
    for b in bins:
        linked.update(n for _, n in nm(b, "--defined-only"))

    dead = sorted(defined - linked)
    names = {m: PARAMS.sub("", ABI_TAG.sub("", d)) for m, d in zip(dead, demangle(dead))}
    failures = [m for m in dead if names[m] not in ALLOWLIST]
    stale = sorted(set(ALLOWLIST) - set(names.values()))

    for m in failures:
        print(f"check_dead_symbols: {demangle([m])[0]} is linked into no program",
              file=sys.stderr)
    for s in stale:
        print(f"check_dead_symbols: allowlisted {s} is not dead (gone or linked)",
              file=sys.stderr)
    print(f"check_dead_symbols: {len(defined)} global text symbols in "
          f"{len(libs)} libraries, {len(dead)} in no program of {len(bins)}, "
          f"{len(dead) - len(failures)} allowlisted")
    return 1 if failures or stale else 0


if __name__ == "__main__":
    sys.exit(main())
