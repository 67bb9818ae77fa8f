#!/usr/bin/env python3
"""Compare two checkouts with perfbench, or measure one checkout's spread.

    # Alternate parent and change, ten seeds, one workload:
    python3 perfbench/pair.py pair --parent ../parent --change . \
        --workload detailed --pairs 10

    # Run-to-run spread of one checkout over ten seeds:
    python3 perfbench/pair.py spread --dir . --workload serve --runs 10

`pair` runs `perfbench/run.py` in each checkout, alternating which side
goes first, with the same seed for both sides of a pair. Both checkouts
must hold the same perfbench/ and BENCHMARK.json, and their records must
report the same host CPU count and the same engine choices, or nothing
is compared. For each metric it prints each side's median and quartiles,
the fraction of pairs the change won (ties count for neither side) and
a verdict:

  gain        the change won at least 9 of 10 pairs and the medians
              differ by more than the parent's own quartile spread;
  regression  the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  either side's quartile spread exceeds the bound, unless
              every change run beat every parent run;
  same        none of the above.

`spread` prints each metric's median, quartiles and spread (Q3 - Q1 as a
share of the median) next to its bound.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """Q1 and Q3 as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """(Q3 - Q1) / median; 0 for a zero median."""
    q1, q3 = quartiles(values)
    m = statistics.median(values)
    return (q3 - q1) / abs(m) if m else 0.0


def better(a, b, direction):
    """Whether value a beats b under 'higher' or 'lower'."""
    return a > b if direction == "higher" else a < b


def win_fraction(parent, change, direction):
    """Share of pairs (same index) the change won; ties win nothing."""
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    return wins / len(parent)


def verdict(parent, change, direction, bound):
    """Classify one metric's pair runs (see the module docstring)."""
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    dominates = all(better(c, p, direction) for c in change for p in parent)
    if bound is not None and pm:
        worse = (pm - cm) if direction == "higher" else (cm - pm)
        if worse / abs(pm) > bound:
            return "regression"
        if max(spread(parent), spread(change)) > bound and not dominates:
            return "unresolved"
    if (win_fraction(parent, change, direction) >= 0.9
            and better(cm, pm, direction) and abs(cm - pm) > pq3 - pq1):
        return "gain"
    return "same"


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = (m["better"], m.get("bound"))
    return spec, metrics


def tree_digest(checkout, spec):
    """Hash of BENCHMARK.json and every file under the benchmark paths."""
    h = hashlib.sha256()
    files = [os.path.join(checkout, "BENCHMARK.json")]
    for p in spec["paths"]:
        for dirpath, dirs, names in os.walk(os.path.join(checkout, p)):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            files += [os.path.join(dirpath, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, checkout).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_once(checkout, spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    # Each checkout builds into its own tree, so alternating sides never
    # rebuild over each other.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    res = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed (exit {res.returncode})")
    record = next((json.loads(l.split(" ", 1)[1]) for l in lines
                   if l.startswith("perfbench-record ")), {})
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return record, values


def host_key(record):
    """What must match before two records may be compared."""
    return record.get("nproc"), tuple(sorted(record.get("engines", {})))


def table(rows, header):
    print("  ".join(f"{h:>{w}}" for h, w in header))
    for r in rows:
        print("  ".join(f"{c:>{w}}" for c, (_, w) in zip(r, header)))


def cmd_pair(a):
    spec, metrics = load_spec(a.change)
    if tree_digest(a.parent, spec) != tree_digest(a.change, spec):
        sys.exit("perfbench/ or BENCHMARK.json differ between the checkouts: "
                 "copy the change's benchmark into the parent first")
    for w in a.workload:
        runs = {"parent": [], "change": []}
        for i in range(a.pairs):
            seed = a.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = a.parent if side == "parent" else a.change
                runs[side].append(run_once(checkout, spec, w, seed, a.trace))
        keys = {host_key(r) for side in runs.values() for r, _ in side}
        if len(keys) != 1:
            sys.exit(f"{w}: records differ in host CPUs or engine choice {keys}; "
                     "not comparable")
        rows = []
        for name, (direction, bound) in metrics.items():
            p = [v[name] for _, v in runs["parent"] if name in v]
            c = [v[name] for _, v in runs["change"] if name in v]
            if len(p) < 2 or len(p) != len(c):
                continue
            pq, cq = quartiles(p), quartiles(c)
            rows.append((name,
                         f"{statistics.median(p):.5g} [{pq[0]:.4g}, {pq[1]:.4g}]",
                         f"{statistics.median(c):.5g} [{cq[0]:.4g}, {cq[1]:.4g}]",
                         f"{win_fraction(p, c, direction):.2f}",
                         verdict(p, c, direction, bound)))
        print(f"\n{w}: {a.pairs} pairs, seeds {a.seed0}..{a.seed0 + a.pairs - 1}, "
              f"nproc {runs['parent'][0][0].get('nproc')}")
        table(rows, [("metric", 28), ("parent median [Q1, Q3]", 34),
                     ("change median [Q1, Q3]", 34), ("win", 5), ("verdict", 11)])


def cmd_spread(a):
    spec, metrics = load_spec(a.dir)
    for w in a.workload:
        runs = [run_once(a.dir, spec, w, a.seed0 + i, a.trace) for i in range(a.runs)]
        rows = []
        for name, (_, bound) in metrics.items():
            vals = [v[name] for _, v in runs if name in v]
            if len(vals) < 2:
                continue
            q1, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if bound is None else ("ok" if s < bound / 3 else
                                             "WIDE" if s > bound else "> bound/3")
            rows.append((name, f"{statistics.median(vals):.5g}", f"{q1:.5g}", f"{q3:.5g}",
                         f"{s:.4f}", "-" if bound is None else f"{bound}", flag))
        print(f"\n{w}: {a.runs} runs, seeds {a.seed0}..{a.seed0 + a.runs - 1}, "
              f"nproc {runs[0][0].get('nproc')}")
        table(rows, [("metric", 28), ("median", 12), ("Q1", 12), ("Q3", 12),
                     ("spread", 8), ("bound", 6), ("", 9)])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pair")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pairs", type=int, default=10)
    s = sub.add_parser("spread")
    s.add_argument("--dir", default=".")
    s.add_argument("--runs", type=int, default=10)
    for q in (p, s):
        q.add_argument("--workload", action="append", required=True)
        q.add_argument("--seed0", type=int, default=1)
        q.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    (cmd_pair if a.cmd == "pair" else cmd_spread)(a)


if __name__ == "__main__":
    main()
