#!/usr/bin/env python3
"""Judge a change against its parent by interleaved perfbench pairs.

    pairs.py PARENT CHANGE WORKLOAD PAIRS SECONDS [--seed0 N] [--claim METRIC]
    pairs.py --self-test

PARENT and CHANGE are two checkouts, each with perfbench built
(``cargo build --release --offline --manifest-path perfbench/Cargo.toml``).
Pair ``i`` runs both sides at seed ``N + i`` (default N = 1000) for SECONDS,
``--trace 0``, parent first when ``i`` is even, each from its own checkout.
Every run's last line must say ``"correct": true`` and ``"failed": 0``.
Each run prints one line to stderr as it finishes: its pair, side, seed and
every end-to-end metric.

For each end-to-end metric in CHANGE's ``BENCHMARK.json`` it prints each
side's median [quartiles], the median per-pair ratio change/parent with its
IQR, and how many pairs the change won and lost (ties count for neither).
The verdict is ``UNRESOLVED`` when the parent's IQR exceeds the metric's
bound relative to the parent's median (the runs spread too widely to judge
it), else ``WORSE`` when the change's median is past the bound, else ``ok``.

``--claim METRIC`` applies the gain rule to one metric: ``CLAIM MET`` only
when the change wins at least 9 of every 10 pairs and the gap between the
medians exceeds the parent's IQR.

Exits 1 when a metric is ``WORSE`` or the claim is not met.
``--self-test`` checks these rules on synthetic runs, without running
perfbench.
"""

import argparse
import contextlib
import io
import json
import statistics as st
import subprocess
import sys


def run_pairs(parent, change, workload, pairs, seconds, seed0, names):
    """Runs the interleaved pairs; returns {side: [{metric: value}, ...]}.
    Prints one stderr line per finished run: its pair, side, seed and each
    metric in ``names``."""
    sides = {"parent": parent, "change": change}
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for side in (["parent", "change"] if i % 2 == 0 else ["change", "parent"]):
            out = subprocess.run(
                [f"{sides[side]}/perfbench/target/release/perfbench", "--workload", workload,
                 "--seed", str(seed0 + i), "--seconds", seconds, "--trace", "0"],
                cwd=sides[side], capture_output=True, text=True, check=True).stdout
            r = json.loads(out.strip().splitlines()[-1])
            assert r["correct"] is True and r["failed"] == 0, (side, i, r)
            run = {k: v["value"] for k, v in r["metrics"].items()}
            runs[side].append(run)
            print(f"pair {i} {side} seed {seed0 + i}: "
                  + " ".join(f"{name} {run[name]:.4g}" for name in names),
                  file=sys.stderr, flush=True)
    return runs


def judge(runs, bounds, claim=None):
    """Judges every metric in ``bounds`` ({name: (better, bound)}); returns
    one row per metric and whether anything failed."""
    rows = []
    failed = False
    for name, (better, bound) in bounds.items():
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pq, cq = st.quantiles(p, n=4), st.quantiles(c, n=4)
        rq = st.quantiles([y / x for x, y in zip(p, c)], n=4)
        sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: change better
        wins = sum(sign * (x - y) > 0 for x, y in zip(p, c))
        losses = sum(sign * (x - y) < 0 for x, y in zip(p, c))
        iqr = pq[2] - pq[0]
        worse = cq[1] > pq[1] * (1 + bound) if better == "lower" else cq[1] < pq[1] * (1 - bound)
        verdict = "UNRESOLVED" if iqr > bound * pq[1] else "WORSE" if worse else "ok"
        row = {"name": name, "verdict": verdict, "wins": wins, "losses": losses,
               "pairs": len(p), "pq": pq, "cq": cq, "rq": rq, "iqr": iqr, "claim": None}
        if name == claim:
            gap = sign * (pq[1] - cq[1])
            row["gap"] = gap
            row["claim"] = wins >= 0.9 * len(p) and gap > iqr
            failed |= not row["claim"]
        failed |= verdict == "WORSE"
        rows.append(row)
    return rows, failed


def report(rows):
    for r in rows:
        pq, cq, rq = r["pq"], r["cq"], r["rq"]
        print(f"{r['name']}: parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] change {cq[1]:.4g} "
              f"[{cq[0]:.4g}, {cq[2]:.4g}] ratio {rq[1]:.3f} IQR [{rq[0]:.3f}, {rq[2]:.3f}] "
              f"won {r['wins']} lost {r['losses']} of {r['pairs']} {r['verdict']}")
        if r["claim"] is not None:
            print(f"{'CLAIM MET' if r['claim'] else 'CLAIM NOT MET'}: {r['name']} won "
                  f"{r['wins']} of {r['pairs']} pairs; median gap {r['gap']:.4g} against "
                  f"parent IQR {r['iqr']:.4g}")


def self_test():
    """Checks the rules on synthetic runs; returns the number of failures."""
    bounds = {"setup_s": ("lower", 0.25), "throughput_per_s": ("higher", 0.25)}

    def runs(parent, change):
        return {side: [{"setup_s": v, "throughput_per_s": 1000.0 / v} for v in values]
                for side, values in (("parent", parent), ("change", change))}

    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    halved = [v * 0.5 for v in parent]
    eight_of_ten = halved[:8] + [v * 1.1 for v in parent[8:]]
    ties = halved[:5] + parent[5:]
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.5, 1.5, 0.6, 1.4]
    cases = []

    rows, failed = judge(runs(parent, halved), bounds, claim="setup_s")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        report(rows)
    cases.append(("10/10 wins, gap above parent IQR: CLAIM MET",
                  rows[0]["claim"] is True and rows[0]["wins"] == 10 and not failed
                  and "\nCLAIM MET: setup_s won 10 of 10" in printed.getvalue()))
    rows, failed = judge(runs(parent, eight_of_ten), bounds, claim="setup_s")
    cases.append(("8/10 wins: CLAIM NOT MET, exit 1",
                  rows[0]["claim"] is False and rows[0]["wins"] == 8 and failed))
    rows, _ = judge(runs(parent, [v * 0.999 for v in parent]), bounds, claim="setup_s")
    cases.append(("10/10 wins, gap inside parent IQR: CLAIM NOT MET", rows[0]["claim"] is False))
    rows, _ = judge(runs(parent, ties), bounds)
    cases.append(("ties count for neither side",
                  (rows[0]["wins"], rows[0]["losses"]) == (5, 0)
                  and (rows[1]["wins"], rows[1]["losses"]) == (5, 0)))
    rows, failed = judge(runs(wide, [v * 2 for v in wide]), bounds)
    cases.append(("parent IQR above the bound: UNRESOLVED, even when worse",
                  rows[0]["verdict"] == "UNRESOLVED" and not failed))
    rows, failed = judge(runs(parent, [v * 1.5 for v in parent]), bounds)
    cases.append(("median past the bound: WORSE on both directions, exit 1",
                  [r["verdict"] for r in rows] == ["WORSE", "WORSE"] and failed))
    rows, failed = judge(runs(parent, [v * 1.2 for v in parent]), bounds)
    cases.append(("median inside the bound: ok",
                  [r["verdict"] for r in rows] == ["ok", "ok"] and not failed))

    bad = 0
    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        bad += not ok
    print(f"\nself-test: {len(cases) - bad}/{len(cases)} checks passed")
    return bad


def main():
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(1 if self_test() else 0)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    for arg in ("parent", "change", "workload"):
        ap.add_argument(arg)
    ap.add_argument("pairs", type=int)
    ap.add_argument("seconds")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--claim", metavar="METRIC")
    a = ap.parse_args()
    with open(f"{a.change}/BENCHMARK.json") as f:
        bounds = {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}
    if a.claim not in (None, *bounds):
        ap.error(f"unknown metric {a.claim}")
    runs = run_pairs(a.parent, a.change, a.workload, a.pairs, a.seconds, a.seed0, list(bounds))
    rows, failed = judge(runs, bounds, a.claim)
    report(rows)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
