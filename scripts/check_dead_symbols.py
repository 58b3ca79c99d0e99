#!/usr/bin/env python3
"""Fail when a function defined under src/ is linked into no program.

    python3 scripts/check_dead_symbols.py --libs BUILD/src \\
        --programs BUILD/bench BUILD/examples PERFBENCH_BUILD --tests BUILD/tests

Candidates come from three places:

  * every global text symbol (`nm` type `T`) of the static libraries found
    under `--libs`: the out-of-line functions of src/'s .cpp files;
  * a generated translation unit that includes every src/**/*.hpp, compiled
    with `c++ -O0 -g -fkeep-inline-functions`: every non-template function
    defined in a header, with the line `nm -l` reports for it;
  * the test executables under `--tests`: every function whose `nm -l`
    location is a header under src/, which adds the template members that
    only tests instantiate.

`--programs` names directories searched for program executables (CMake's
own probe binaries under CMakeFiles/ are skipped). A candidate is live when
some program contains a function of the same name, compared after
demangling and dropping parameters, return type, ABI tags and template
arguments: a constructor's C1/C2 variants, the overloads of one name and
`LruCache<int, int>` in a test beside `LruCache<CanonicalWords, ...>` in a
program are one name each. Tests do not count, so a function only its own
tests call is dead. Special members the compiler generated (their source
line does not declare them) are skipped. Prints each dead name that
ALLOWLIST does not name and exits 1 if there is any, else exits 0. A name on
ALLOWLIST that is no longer dead (deleted, or now linked into a program)
fails too, so the list cannot rot.

Every build must be unoptimised and garbage-collect unreferenced sections:

    -O0 -ffunction-sections -fdata-sections  /  -Wl,--gc-sections

At -O2 a called function that was inlined everywhere leaves no symbol in
any program and reads as dead. Without --gc-sections a program carries every
function of each object file it links, called or not. A function that only
constant expressions call leaves no symbol either and reads as dead at -O0
too; confirm a deletion by building. A template that nothing instantiates
has no symbol anywhere and is not covered; scripts/check_src_includes.py
catches a header nothing includes.
"""

import argparse
import functools
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Functions no program calls that stay, keyed by normalised name (see
# `normalise`), each with the reason it stays.
ACCESSOR = "observability accessor: the API tests observe a live mechanism through"
ORACLE = "oracle: the closed form tests compare the live mechanism against"
KERNEL = ("kernel stepping: the kernel-vs-reference fuzz drives the live event "
          "kernel one event at a time through it")
SLOT_FORMAT = ("slot-format group: nine test files build their irregular-pattern "
               "DuplexConfig from it; a copy inside tests/ would not be smaller")
ALLOWLIST = {
    "u5g::Arena::stats": ACCESSOR,
    "u5g::Arena::warm_capacity": ACCESSOR,
    "u5g::ArrivalPredictor::period_estimate": ACCESSOR,
    "u5g::BufferPool::global_stats": ACCESSOR,
    "u5g::BufferPool::stats": ACCESSOR,
    "u5g::ByteBuffer::generation": ACCESSOR,
    "u5g::ByteBuffer::is_inline": ACCESSOR,
    "u5g::CanonicalWords::size": ACCESSOR,
    "u5g::Crew::width": ACCESSOR,
    "u5g::E2eSystem::effective_duplex": ACCESSOR,
    "u5g::E2eSystem::missed_grants": ACCESSOR,
    "u5g::E2eSystem::reliability_at": ACCESSOR,
    "u5g::FlatHashMap::size": ACCESSOR,
    "u5g::GilbertElliott::in_bad_state": ACCESSOR,
    "u5g::LatencyHistogram::bucket_count": ACCESSOR,
    "u5g::LbtGate::cw": ACCESSOR,
    "u5g::LruCache::size": ACCESSOR,
    "u5g::MetricsRegistry::counters": ACCESSOR,
    "u5g::MetricsRegistry::histograms": ACCESSOR,
    "u5g::PdcpRx::expected_count": ACCESSOR,
    "u5g::PdcpRx::integrity_failures": ACCESSOR,
    "u5g::PdcpTx::next_count": ACCESSOR,
    "u5g::PredictiveConfiguredGrant::predictor": ACCESSOR,
    "u5g::RlcRx::pending_reassemblies": ACCESSOR,
    "u5g::RunningStats::max": ACCESSOR,
    "u5g::RunningStats::min": ACCESSOR,
    "u5g::SampleSet::min": ACCESSOR,
    "u5g::ShardedEngine::lbt_stats": ACCESSOR,
    "u5g::ShardedEngine::packets_started": ACCESSOR,
    "u5g::ShardedEngine::radio_deadline_misses": ACCESSOR,
    "u5g::ShardedEngine::threads": ACCESSOR,
    "u5g::Simulator::idle": ACCESSOR,
    "u5g::Simulator::pending_events": ACCESSOR,
    "u5g::SmallVec::empty": ACCESSOR,
    "u5g::Tracer::category_total": ACCESSOR,
    "u5g::Tracer::packets_closed": ACCESSOR,
    "u5g::Tracer::total": ACCESSOR,
    "u5g::UePopulation::latency": ACCESSOR,
    "u5g::GilbertElliott::Params::average_loss": ORACLE,
    "u5g::GilbertElliott::Params::stationary_bad": ORACLE,
    "u5g::LognormalParams::mean": ORACLE,
    "u5g::LognormalParams::stddev": ORACLE,
    "u5g::Simulator::step": KERNEL,
    "u5g::SlotFormatConfig::SlotFormatConfig": SLOT_FORMAT,
    "u5g::SlotFormatConfig::dl_mask": SLOT_FORMAT,
    "u5g::SlotFormatConfig::format_of_slot": SLOT_FORMAT,
    "u5g::SlotFormatConfig::name": SLOT_FORMAT,
    "u5g::SlotFormatConfig::period_slots": SLOT_FORMAT,
    "u5g::SlotFormatConfig::ul_mask": SLOT_FORMAT,
    "u5g::SlotFormat::mask": SLOT_FORMAT,
    "u5g::SlotFormat::render": SLOT_FORMAT,
    "u5g::slot_format": SLOT_FORMAT,
    "u5g::slot_format_table": SLOT_FORMAT,
    "u5g::DecidedFormat::to_slot_format": SLOT_FORMAT,
}

TEXT = set("TtWw")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
# Operator names that contain brackets, so stripping groups leaves them alone.
OPERATOR = re.compile(r"operator\s*(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\(\)|\[\])")
QUALIFIERS = re.compile(r"(\s*(const|volatile|&&|&|noexcept))+$")
SPECIAL = re.compile(r"(\w+)::(~?)\1$")


def strip_groups(s, open_, close):
    """`s` with every bracketed group open_ ... close (nested) removed."""
    out, depth = [], 0
    for c in s:
        if c == open_:
            depth += 1
        elif c == close and depth:
            depth -= 1
        elif not depth:
            out.append(c)
    return "".join(out)


def normalise(demangled):
    """Demangled name without parameters, return type, ABI tags or template
    arguments: `u5g::LruCache<K, V>::find(K const&)` -> `u5g::LruCache::find`."""
    ops = []
    s = OPERATOR.sub(lambda m: ops.append(m.group(1)) or f"operator\x00{len(ops) - 1}\x00",
                     ABI_TAG.sub("", demangled))
    s = strip_groups(strip_groups(s, "<", ">"), "(", ")")
    s = QUALIFIERS.sub("", s).strip()
    op = s.find("operator")
    cut = s.rfind(" ", 0, op) if op >= 0 else s.rfind(" ")
    s = s[cut + 1:]
    return re.sub(r"\x00(\d+)\x00", lambda m: ops[int(m.group(1))], s)


def archives(dirs):
    for d in dirs:
        yield from sorted(pathlib.Path(d).rglob("*.a"))


def executables(dirs):
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
    """(type, mangled name, location or None) for each symbol nm prints."""
    out = subprocess.run(["nm", *flags, str(path)], check=True, capture_output=True,
                         text=True).stdout
    for line in out.splitlines():
        sym, _, where = line.partition("\t")
        parts = sym.split()
        if len(parts) == 3:
            yield parts[1], parts[2], where or None


def demangle(names):
    names = list(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


@functools.cache
def source_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def header_line(where):
    """(header path relative to the repo, line number, source line) when
    `where` (nm -l's `file:line`) is a header under src/, else None."""
    path, _, line = where.rpartition(":")
    try:
        p = pathlib.Path(path).resolve()
        rel = p.relative_to(SRC)
        n = int(line)
    except ValueError:
        return None
    if p.suffix != ".hpp" or not p.is_file():
        return None
    lines = source_lines(p)
    return f"src/{rel.as_posix()}", n, lines[n - 1] if 0 < n <= len(lines) else ""


def compiler_generated(name, source):
    """True for a constructor, destructor or assignment whose source line does
    not declare it, or a lambda closure's member other than its call operator:
    the compiler generated it from the class definition or the lambda."""
    scope, _, last = name.rpartition("::")
    if scope.rpartition("::")[2].startswith("{lambda"):
        return last != "operator()"
    if last == "operator=":
        return not re.search(r"operator\s*=\s*\(", source)
    special = SPECIAL.search(name)
    if not special:
        return False
    cls, tilde = special.groups()
    return not re.search(rf"{tilde}\s*\b{cls}\s*\(", source)


def header_candidates(objects):
    """{normalised name: 'file:line'} of the functions defined in src/
    headers that nm -l locates in `objects`."""
    located = {}
    for obj in objects:
        for t, m, where in nm(obj, "-l", "--defined-only"):
            if t in TEXT and where:
                located.setdefault(m, where)
    found = {}
    names = demangle(located)
    for m, where in sorted(located.items()):
        at = header_line(where)
        if at is None:
            continue
        name = normalise(names[m])
        if not compiler_generated(name, at[2]):
            found.setdefault(name, f"{at[0]}:{at[1]}")
    return found


def header_object(tmp):
    """Compile one translation unit including every src/**/*.hpp with every
    inline function kept; returns the object file."""
    tu = tmp / "all_headers.cpp"
    tu.write_text("".join(f'#include "{h.relative_to(SRC).as_posix()}"\n'
                          for h in sorted(SRC.rglob("*.hpp"))))
    obj = tmp / "all_headers.o"
    subprocess.run(["c++", "-std=c++20", "-O0", "-g", "-fkeep-inline-functions",
                    f"-I{SRC}", "-c", str(tu), "-o", str(obj)], check=True)
    return obj


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--libs", nargs="+", required=True)
    ap.add_argument("--programs", nargs="+", required=True)
    ap.add_argument("--tests", nargs="+", required=True)
    args = ap.parse_args()

    libs = list(archives(args.libs))
    bins = list(executables(args.programs))
    tests = list(executables(args.tests))
    if not libs or not bins or not tests:
        print(f"check_dead_symbols: found {len(libs)} libraries, {len(bins)} "
              f"programs and {len(tests)} tests; nothing to compare", file=sys.stderr)
        return 2

    out_of_line = set()
    for a in libs:
        out_of_line.update(m for t, m, _ in nm(a, "-g", "--defined-only") if t == "T")
    candidates = {normalise(d): "out of line" for d in demangle(out_of_line).values()}
    with tempfile.TemporaryDirectory() as tmp:
        inline = header_candidates([header_object(pathlib.Path(tmp)), *tests])
    for name, where in inline.items():
        candidates.setdefault(name, where)

    linked = set()
    for b in bins:
        linked.update(m for t, m, _ in nm(b, "--defined-only") if t in TEXT)
    linked = {normalise(d) for d in demangle(linked).values()}

    dead = sorted(set(candidates) - linked)
    failures = [n for n in dead if n not in ALLOWLIST]
    stale = sorted(set(ALLOWLIST) - set(dead))

    for n in failures:
        print(f"check_dead_symbols: {n} ({candidates[n]}) is linked into no program",
              file=sys.stderr)
    for s in stale:
        print(f"check_dead_symbols: allowlisted {s} is not dead (gone or linked)",
              file=sys.stderr)
    print(f"check_dead_symbols: {len(candidates)} function names ({len(out_of_line)} "
          f"global text symbols in {len(libs)} libraries, {len(inline)} names "
          f"defined in headers), {len(dead)} in no program of {len(bins)}, "
          f"{len(dead) - len(failures)} allowlisted")
    return 1 if failures or stale else 0


if __name__ == "__main__":
    sys.exit(main())
