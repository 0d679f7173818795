#!/usr/bin/env python3
"""Judge the throughput grid's production arm by interleaved pairs.

    gridpairs.py PARENT CHANGE PAIRS [--floor PREFIX=RATIO ...]
    gridpairs.py --self-test

PARENT and CHANGE are two checkouts, each with ``target/release/throughput``
built (``cargo build --release --offline --workspace --bins``). Pair ``i``
runs both in default mode with identical flags, parent first when ``i`` is
even, each from its own checkout.

Per grid cell it prints each side's median ``production_users_per_sec``,
the median per-pair ratio change/parent with its IQR, and how many pairs the
change won and lost (ties count for neither). A cell whose median ratio is
under the floor of its longest matching protocol prefix (e.g.
``--floor Sampling=0.95 --floor Composition=0.85``) is marked ``BELOW``.

Exits 1 when any cell's ``estimate_checksum`` differs between any two runs.
``--self-test`` checks these rules on synthetic runs, without running the
grid.
"""

import argparse
import contextlib
import io
import json
import os
import statistics as st
import subprocess
import sys
import tempfile


def run_pairs(parent, change, pairs):
    """Runs the interleaved pairs; returns {side: [{cell key: cell}, ...]}."""
    sides = {"parent": parent, "change": change}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(pairs):
            for side in (["parent", "change"] if i % 2 == 0 else ["change", "parent"]):
                out = os.path.join(tmp, f"{side}.json")
                subprocess.run([f"{sides[side]}/target/release/throughput", "--out", out],
                               cwd=sides[side], stdout=subprocess.DEVNULL, check=True)
                with open(out) as f:
                    cells = json.load(f)["cells"]
                runs[side].append({(c["protocol"], c["eps"], c["d"], c["k"]): c for c in cells})
    return runs


def judge(runs, floors):
    """Judges every cell; returns (lines, cells below their floor, cells
    whose checksum differs)."""
    lines = []
    mismatched = below = 0
    for key in runs["parent"][0]:
        p = [r[key]["production_users_per_sec"] for r in runs["parent"]]
        c = [r[key]["production_users_per_sec"] for r in runs["change"]]
        rq = st.quantiles([y / x for x, y in zip(p, c)], n=4, method="inclusive")
        wins = sum(y > x for x, y in zip(p, c))
        losses = sum(y < x for x, y in zip(p, c))
        floor = max((f for f in floors if key[0].startswith(f[0])), key=lambda f: len(f[0]),
                    default=None)
        flag = ""
        if floor and rq[1] < floor[1]:
            below += 1
            flag = f" BELOW {floor[1]}"
        if len({r[key]["estimate_checksum"] for side in runs.values() for r in side}) != 1:
            mismatched += 1
            flag += " CHECKSUM DIFFERS"
        name = f"{key[0]} eps={key[1]} d={key[2]} k={key[3]}"
        lines.append(f"{name}: parent {st.median(p):.4g} change {st.median(c):.4g} "
                     f"ratio {rq[1]:.3f} IQR [{rq[0]:.3f}, {rq[2]:.3f}] "
                     f"won {wins} lost {losses} of {len(p)}{flag}")
    lines.append(f"{below} cells below their floor; {mismatched} cells with differing checksums")
    return lines, below, mismatched


def report(runs, floors):
    """Prints the judgement; returns the exit status."""
    lines, _, mismatched = judge(runs, floors)
    print("\n".join(lines))
    return 1 if mismatched else 0


def self_test():
    """Checks the rules on synthetic runs; returns the number of failures."""
    def cell(protocol, speed, checksum="0xabc"):
        return {"protocol": protocol, "eps": 1.0, "d": 8, "k": 16,
                "production_users_per_sec": speed, "estimate_checksum": checksum}

    def runs(parent, change):
        """Two cells per run; each side lists (sampling, composition) speeds."""
        return {side: [{("Sampling(HM+OUE)", 1.0, 8, 16): cell("Sampling(HM+OUE)", s),
                        ("Composition(Laplace+GRR)", 1.0, 8, 16):
                            cell("Composition(Laplace+GRR)", co)} for s, co in values]
                for side, values in (("parent", parent), ("change", change))}

    floors = [("Sampling", 0.95), ("Composition", 0.85), ("Composition(Laplace", 0.5)]
    parent = [(100.0, 10.0)] * 4
    cases = []

    lines, below, _ = judge(runs(parent, [(110.0, 9.0)] * 4), floors)
    cases.append(("cells over their floors are not BELOW",
                  below == 0 and "BELOW" not in "".join(lines)))
    lines, below, _ = judge(runs(parent, [(90.0, 8.0)] * 4), floors)
    cases.append(("a cell under its floor is BELOW; the longest matching prefix sets it",
                  below == 1 and "BELOW 0.95" in lines[0] and "BELOW" not in lines[1]))
    lines, _, _ = judge(runs(parent, [(100.0, 10.0), (100.0, 10.0), (110.0, 9.0), (90.0, 11.0)]),
                        floors)
    cases.append(("ties count for neither side",
                  "won 1 lost 1 of 4" in lines[0] and "won 1 lost 1 of 4" in lines[1]))
    differing = runs(parent, [(100.0, 10.0)] * 4)
    differing["change"][2][("Sampling(HM+OUE)", 1.0, 8, 16)]["estimate_checksum"] = "0xabd"
    with contextlib.redirect_stdout(io.StringIO()):
        same_status = report(runs(parent, [(100.0, 10.0)] * 4), floors)
        differing_status = report(differing, floors)
    cases.append(("matching checksums exit 0", same_status == 0))
    cases.append(("a differing checksum exits non-zero", differing_status == 1))

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
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("pairs", type=int)
    ap.add_argument("--floor", action="append", default=[], metavar="PREFIX=RATIO")
    a = ap.parse_args()
    if a.pairs < 2:
        ap.error("need at least two pairs for quartiles")
    floors = [(prefix, float(ratio)) for prefix, ratio in (f.split("=", 1) for f in a.floor)]
    sys.exit(report(run_pairs(a.parent, a.change, a.pairs), floors))


if __name__ == "__main__":
    main()
