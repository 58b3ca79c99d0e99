#!/usr/bin/env python3
"""Collect, summarise and compare result sets of the repository benchmark.

    python3 perfbench/compare.py collect OUT.json [--seeds 10] [--trace 0|1]
    python3 perfbench/compare.py show SET.json
    python3 perfbench/compare.py compare BASE.json NEW.json

`collect` runs BENCHMARK.json's command once per workload and seed (seeds
1..N, every workload, run_seconds each; workloads in turn, so host drift
spreads over all of them) and stores every result line and diagnostic line.
`show` prints, per workload and metric, the median, the quartiles and the
spread (quartile distance over the median) against the metric's bound:
steady below a third of the bound, ok within it, NOISY beyond it.
`compare` pairs runs by workload and seed and prints each set's error_frac
and, per metric, both medians and quartiles, the pairs the new set won,
and a verdict:

  win         the new set won at least 9/10 of the pairs (ties count for
              neither) and its median is better than the base median by
              more than the base quartile distance, with no more failed
              ops than the base and every run correct;
  regressed   the new median is worse than the base median by more than
              the bound;
  unresolved  the base spread is wider than the bound, or a would-be win
              comes with more failed ops or an incorrect run;
  unchanged   otherwise.

sim_p99_us and sim_miss_frac are deterministic per seed: they are compared
run by run and reported as identical or changed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("sim_p99_us", "sim_miss_frac")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(trace):
    return {m["name"]: m for m in spec()["per_layer" if trace else "end_to_end"]}


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def collect(args):
    s = spec()
    runs = []
    for seed in range(1, args.seeds + 1):
        for w in (w["name"] for w in s["workloads"]):
            cmd = s["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(s["run_seconds"]), "--trace", str(args.trace)]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                sys.exit(f"compare.py: {w} seed {seed} failed with code {res.returncode}")
            diag = {}
            for line in lines[:-1]:
                if line.startswith("# diag "):
                    diag = {k: v["value"] for k, v in json.loads(line[7:]).items()}
            runs.append({"workload": w, "seed": seed, "result": json.loads(lines[-1]),
                         "diag": diag})
            print(f"{w} seed {seed}: done", file=sys.stderr)
            with open(args.out, "w") as f:
                json.dump({"seconds": s["run_seconds"], "trace": args.trace, "runs": runs}, f,
                          indent=1)
    show_set({"trace": args.trace, "runs": runs})


def load(path):
    with open(path) as f:
        return json.load(f)


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def errors(rs):
    failed = sum(r["result"]["failed"] for r in rs)
    attempted = sum(r["result"]["attempted"] for r in rs)
    correct = all(r["result"]["correct"] for r in rs)
    return failed, attempted, correct


def show_set(st):
    specs = metric_specs(st["trace"])
    for w, rs in by_workload(st["runs"]).items():
        failed, attempted, correct = errors(rs)
        print(f"\n{w}: {len(rs)} runs, correct={correct}, "
              f"error_frac={failed / attempted:.3g} ({failed}/{attempted})")
        print(f"  {'metric':30} {'unit':>9} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, m in specs.items():
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "NOISY")
            print(f"  {name:30} {m['unit']:>9} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} {flag}")
        for k in sorted({k for r in rs for k in r["diag"]}):
            vals = [r["diag"][k] for r in rs if k in r["diag"]]
            print(f"  (diag) {k:23} {'':>9} {statistics.median(vals):14.6g}")


def show(args):
    show_set(load(args.set))


def verdict(base, new, better, bound, clean):
    """`clean`: the new set has no more failed ops than the base and every
    new run is correct."""
    sign = 1.0 if better == "higher" else -1.0
    q1b, medb, q3b = quartiles(base)
    _, medn, _ = quartiles(new)
    won = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    if won >= 0.9 * len(base) and sign * (medn - medb) > q3b - q1b:
        return ("win" if clean else "unresolved"), won
    if medb and -sign * (medn - medb) / medb > bound:
        return "regressed", won
    if medb and (q3b - q1b) / medb > bound:
        return "unresolved", won
    return "unchanged", won


def compare(args):
    base, new = load(args.base), load(args.new)
    for key in ("seconds", "trace"):
        if base[key] != new[key]:
            sys.exit(f"compare.py: the sets differ in {key}: {base[key]} vs {new[key]}")
    specs = metric_specs(base["trace"])
    base_w, new_w = by_workload(base["runs"]), by_workload(new["runs"])
    for w, brs in base_w.items():
        nrs = {r["seed"]: r for r in new_w.get(w, [])}
        brs = [r for r in brs if r["seed"] in nrs]
        if not brs:
            continue
        bf, ba, bc = errors(brs)
        nf, na, nc = errors([nrs[r["seed"]] for r in brs])
        clean = nc and nf <= bf
        print(f"\n{w}: {len(brs)} seed pairs; error_frac base {bf / ba:.3g} ({bf}/{ba}, "
              f"correct={bc}), new {nf / na:.3g} ({nf}/{na}, correct={nc})")
        print(f"  {'metric':30} {'unit':>9} {'base median':>13} {'base q1-q3':>25} "
              f"{'new median':>13} {'new q1-q3':>25} {'won':>7}  verdict")
        for name, m in specs.items():
            b = [r["result"]["metrics"][name]["value"] for r in brs]
            n = [nrs[r["seed"]]["result"]["metrics"][name]["value"] for r in brs]
            q1b, medb, q3b = quartiles(b)
            q1n, medn, q3n = quartiles(n)
            if name in EXACT:
                v, won = ("identical" if b == n else "changed"), "-"
            elif "bound" in m:
                v, wins = verdict(b, n, m["better"], m["bound"], clean)
                won = f"{wins}/{len(b)}"
            else:
                v, won = "", "-"
            print(f"  {name:30} {m['unit']:>9} {medb:13.6g} {q1b:12.5g}-{q3b:<12.5g} "
                  f"{medn:13.6g} {q1n:12.5g}-{q3n:<12.5g} {won:>7}  {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", type=int, default=10)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.set_defaults(fn=collect)
    s = sub.add_parser("show")
    s.add_argument("set")
    s.set_defaults(fn=show)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=compare)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
