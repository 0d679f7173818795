#!/usr/bin/env python3
"""Gate a fresh bench run against its committed BENCH_*.json artifact.

The script dispatches on the top-level ``bench`` field of the two JSONs:

* ``"throughput"`` — the perf/accuracy gate described below, against
  ``BENCH_throughput.json``.
* ``"audit"`` — the privacy gate, against ``BENCH_audit.json``: every
  audited (cell, arm) in BOTH files must satisfy
  ``<arm>_eps_emp_upper <= eps_theory`` (plus ``--eps-slop``, default 1e-9,
  for float formatting only). The certified bound only *shrinks* with fewer
  trials, so a quick CI re-audit applies the exact same inequality as the
  committed million-trial artifact — there is no "tolerant" variant of this
  gate. Every committed cell (keyed on protocol/eps/d/k/sampled_k) and
  every committed arm must be present in the measured JSON; a candidate
  that silently stops auditing a cell must not pass by omission. Tally
  sanity (wins <= trials, lower <= upper) is checked on both sides too.

For the throughput gate there are two kinds of fields, two kinds of gates:

* accuracy fields (``estimate_checksum`` per grid cell and per worker-sweep
  entry, ``total_bytes`` and ``wal_replayed`` per wire cell) are
  deterministic — fixed seeds, fixed populations, a bit-exact batched-RNG
  layer, an exact-length wire codec — so they must match EXACTLY. Any drift
  means an estimate or a wire byte changed and fails the job.
* speed fields (``<arm>_users_per_sec`` per grid cell,
  ``<arm>_reports_per_sec`` per wire cell) are measured on shared CI
  runners, so the gate is deliberately generous: the job only fails when a
  matched cell drops below ``--min-ratio`` (default 0.2, i.e. a 5x
  regression) of the committed number. The committed JSON — regenerated on
  a quiet machine whenever the hot path changes — remains the authoritative
  trajectory; this gate just catches catastrophic regressions before they
  merge.

Which speed fields are gated is driven by the ``arms`` lists each JSON
declares (top-level for the grid — ``reference`` and ``production`` —
and ``wire.arms`` for the wire section): every arm the committed JSON
declares — except the deliberately slow ``reference`` arm — MUST be
present in the measured JSON, and is compared. A committed arm (or a
whole committed section, like ``wire``) that the measured JSON lacks is a
hard failure with its own message — a candidate that silently stops
reporting an arm must not pass the gate by omission, and a committed JSON
that declares no arms fails too. Measured-side extras are fine: adding an
arm to the bench needs no change here.

On failure the full per-cell delta table (every matched cell x every gated
arm, measured/committed ratio) is printed so a regression can be localized
from the CI log alone.

``--self-test`` runs the gate's own unit checks against synthetic reports
(missing arms fail, byte drift fails, healthy pairs pass) and exits
non-zero on any violation; CI runs it before trusting the real comparison.

Platform caveat for the exact gate: the draw streams are platform-fixed,
but a few oracle/mechanism parameters pass through libm transcendentals
(exp/ln), which may differ by an ulp across libc/architectures. Regenerate
the committed BENCH_throughput.json on the CI platform family
(x86_64 linux) so its checksums are the ones CI reproduces; a one-bit
checksum drift on a perf-only refresh made from another platform means
exactly this, not a real estimate change.

Cells are matched on (protocol, eps, d, k, sampled_k) — (protocol, eps, d,
k) for wire cells; a quick-mode run covers a subset of the committed
default-mode grid, and unmatched committed cells are fine. Zero matched
cells fails (the grids no longer line up).
"""

import argparse
import json
import sys

# Deliberately-slow reference arms that are recorded but not speed-gated.
UNGATED_ARMS = {"reference"}


def cell_key(cell):
    return (
        cell["protocol"],
        float(cell["eps"]),
        int(cell["d"]),
        int(cell["k"]),
        int(cell["sampled_k"]),
    )


def wire_cell_key(cell):
    return (cell["protocol"], float(cell["eps"]), int(cell["d"]), int(cell["k"]))


def gated_fields(committed, measured, suffix, failures, section=""):
    """``<arm>_<suffix>`` for the committed arms, hard-failing on any
    committed arm the measured JSON no longer declares."""
    where = f"{section} " if section else ""
    committed_arms = committed.get("arms")
    if not committed_arms:
        failures.append(f"committed JSON declares no {where}arms — nothing to gate")
        return []
    measured_arms = measured.get("arms", [])
    missing = [
        arm
        for arm in committed_arms
        if arm not in UNGATED_ARMS and arm not in measured_arms
    ]
    if missing:
        failures.append(
            f"measured JSON dropped committed {where}arm(s): {', '.join(missing)} "
            f"— every committed arm must be present in the candidate"
        )
    shared = [
        arm
        for arm in committed_arms
        if arm in measured_arms and arm not in UNGATED_ARMS
    ]
    return [f"{arm}_{suffix}" for arm in shared]


def gate_speed(label, field, cell, ref, min_ratio, failures, delta_rows):
    """One tolerant speed comparison; a declared-but-absent field fails."""
    for side, report in (("measured", cell), ("committed", ref)):
        if field not in report:
            failures.append(
                f"{label}: {side} cell is missing declared speed field {field}"
            )
            return
    ratio = cell[field] / ref[field]
    delta_rows.append((label, field, cell[field], ref[field], ratio))
    if ratio < min_ratio:
        failures.append(f"{label}: {field} regressed to x{ratio:.2f} of committed")


def compare(committed, measured, min_ratio):
    """Full gate. Returns (failures, delta_rows, matched_cell_count)."""
    failures = []
    delta_rows = []

    fields = gated_fields(committed, measured, "users_per_sec", failures)
    committed_cells = {cell_key(c): c for c in committed["cells"]}
    matched = 0

    for cell in measured["cells"]:
        key = cell_key(cell)
        ref = committed_cells.get(key)
        if ref is None:
            continue
        matched += 1
        label = "{} eps={} d={} k={}".format(*key[:4])

        # Accuracy: exact. The checksum population and seed are fixed across
        # modes, so any difference is a real estimate change.
        if cell["estimate_checksum"] != ref["estimate_checksum"]:
            failures.append(
                f"{label}: estimate_checksum drifted "
                f"({ref['estimate_checksum']} -> {cell['estimate_checksum']})"
            )

        # Speed: generous. Shared runners wobble; only a collapse fails.
        for field in fields:
            gate_speed(label, field, cell, ref, min_ratio, failures, delta_rows)

    if matched == 0:
        failures.append("no measured cell matched any committed cell — grid keys drifted")

    # Wire codec section: canonical Submit-report bytes. total_bytes is
    # deterministic (fixed seed, fixed report count, exact-length codec), so
    # it gates exactly; the encode/decode rates gate tolerantly like any arm.
    wire_ref = committed.get("wire")
    wire_got = measured.get("wire")
    if wire_ref is not None:
        if wire_got is None:
            failures.append(
                "committed JSON declares a wire section but the measured JSON "
                "has none — the candidate must keep reporting it"
            )
        else:
            wire_fields = gated_fields(
                wire_ref, wire_got, "reports_per_sec", failures, section="wire"
            )
            ref_cells = {wire_cell_key(c): c for c in wire_ref["cells"]}
            wire_matched = 0
            for cell in wire_got["cells"]:
                ref = ref_cells.get(wire_cell_key(cell))
                if ref is None:
                    continue
                wire_matched += 1
                label = "wire {} eps={} d={} k={}".format(*wire_cell_key(cell))
                # ``wal_replayed`` (records recovered by replaying the WAL
                # the wal arm writes) is deterministic like the byte counts,
                # so it gates exactly too. A cell on either side that lacks
                # one of these fields fails the same way a drift does —
                # ``get`` yields None, which never equals a count.
                for exact in ("reports", "total_bytes", "wal_replayed"):
                    if cell.get(exact) != ref.get(exact):
                        failures.append(
                            f"{label}: {exact} drifted "
                            f"({ref.get(exact)} -> {cell.get(exact)}) — the wire codec "
                            f"changed the canonical byte image"
                        )
                for field in wire_fields:
                    gate_speed(
                        label, field, cell, ref, min_ratio, failures, delta_rows
                    )
            if wire_matched == 0:
                failures.append(
                    "no measured wire cell matched any committed wire cell"
                )

    # Range-query section: HDG answers over the fixed census workload. The
    # answer checksum and grid layout are deterministic (fixed seed, fixed
    # population, pure answer-time post-processing), so they gate exactly;
    # answers_per_sec gates tolerantly like any arm; and on BOTH sides the
    # repaired HDG error must beat the naive full-domain baseline — the
    # accuracy claim the query subsystem exists for, re-checked here so a
    # bad committed artifact cannot become the baseline either.
    q_ref = committed.get("queries")
    q_got = measured.get("queries")
    if q_ref is not None:
        if q_got is None:
            failures.append(
                "committed JSON declares a queries section but the measured "
                "JSON has none — the candidate must keep reporting it"
            )
        else:
            ref_cells = {float(c["eps"]): c for c in q_ref["cells"]}
            q_matched = 0
            for cell in q_got["cells"]:
                ref = ref_cells.get(float(cell["eps"]))
                if ref is None:
                    continue
                q_matched += 1
                label = "queries eps={}".format(cell["eps"])
                for exact in ("queries", "g1", "g2", "grids", "answer_checksum"):
                    if cell[exact] != ref[exact]:
                        failures.append(
                            f"{label}: {exact} drifted "
                            f"({ref[exact]} -> {cell[exact]}) — the range-query "
                            f"pipeline changed its deterministic output"
                        )
                gate_speed(
                    label, "answers_per_sec", cell, ref, min_ratio, failures, delta_rows
                )
            if q_matched == 0:
                failures.append(
                    "no measured query cell matched any committed query cell"
                )
        for name, section in (("committed", q_ref), ("measured", q_got)):
            for cell in (section or {}).get("cells", []):
                hdg = float(cell["hdg_mean_rel_err"])
                naive = float(cell["naive_mean_rel_err"])
                if not hdg < naive:
                    failures.append(
                        f"{name} queries eps={cell['eps']}: hdg_mean_rel_err {hdg} "
                        f"is not below naive_mean_rel_err {naive} — the repaired "
                        f"grids no longer beat the naive baseline"
                    )

    # Worker sweep: same fixed users/seed in every mode, so checksums are
    # exact too, and all entries within one file must agree with each other.
    for name, report in (("committed", committed), ("measured", measured)):
        sweep = report.get("worker_sweep")
        if sweep:
            sums = {c["estimate_checksum"] for c in sweep["cells"]}
            if len(sums) > 1:
                failures.append(f"{name} worker_sweep checksums disagree internally: {sums}")
    if "worker_sweep" in committed and "worker_sweep" in measured:
        a = committed["worker_sweep"]["cells"][0]["estimate_checksum"]
        b = measured["worker_sweep"]["cells"][0]["estimate_checksum"]
        if a != b:
            failures.append(f"worker_sweep estimate_checksum drifted ({a} -> {b})")

    return failures, delta_rows, matched


def audit_cell_key(cell):
    return (
        cell["protocol"],
        float(cell["eps"]),
        int(cell["d"]),
        int(cell["k"]),
        int(cell["sampled_k"]),
    )


def audit_check_side(name, report, slop, failures, rows):
    """The privacy gate proper, applied to one JSON: certified empirical
    epsilon must never exceed the theoretical budget, and the tallies must
    be internally consistent. Runs on the committed artifact too — a bad
    artifact must not become the baseline everything else is compared to."""
    arms = report.get("arms", [])
    if not arms:
        failures.append(f"{name} audit JSON declares no arms")
    for cell in report.get("cells", []):
        label = "{} {} eps={} d={} k={}".format(
            name, cell["protocol"], cell["eps"], cell["d"], cell["k"]
        )
        theory = float(cell["eps_theory"])
        for arm in arms:
            fields = [f"{arm}_{f}" for f in (
                "trials", "wins_v1", "wins_v2", "eps_emp_lower", "eps_emp_upper"
            )]
            missing = [f for f in fields if f not in cell]
            if missing:
                # Only flag arms this cell is expected to carry: the
                # ``direct`` arm exists on 1-D GRR cells alone, and a cell
                # with no trace of the arm simply doesn't run it.
                if any(f in cell for f in fields):
                    failures.append(f"{label}: missing audit field(s) {missing}")
                continue
            trials, w1, w2 = (int(cell[f"{arm}_{f}"]) for f in ("trials", "wins_v1", "wins_v2"))
            lower, upper = (float(cell[f"{arm}_eps_emp_{b}"]) for b in ("lower", "upper"))
            if w1 + w2 > trials:
                failures.append(
                    f"{label}: {arm} wins exceed trials ({w1}+{w2} > {trials}) "
                    f"— tally conservation broken"
                )
            if lower > upper + slop:
                failures.append(
                    f"{label}: {arm} eps_emp_lower {lower} > eps_emp_upper {upper}"
                )
            rows.append((label, arm, upper, theory))
            if upper > theory + slop:
                failures.append(
                    f"{label}: {arm} certified eps_emp_upper {upper} exceeds "
                    f"theoretical eps {theory} — the implementation leaks more "
                    f"privacy than it claims"
                )


def compare_audit(committed, measured, slop):
    """The audit gate. Returns (failures, rows, matched_cell_count) where
    rows are (label, arm, eps_emp_upper, eps_theory) for the log."""
    failures = []
    rows = []

    audit_check_side("committed", committed, slop, failures, rows)
    audit_check_side("measured", measured, slop, failures, rows)

    committed_arms = committed.get("arms", [])
    measured_arms = measured.get("arms", [])
    dropped = [a for a in committed_arms if a not in measured_arms]
    if dropped:
        failures.append(
            f"measured audit JSON dropped committed arm(s): {', '.join(dropped)}"
        )

    # The audit grid is mode-independent (quick mode reduces trials, not
    # cells), so every committed cell must reappear in the candidate.
    measured_cells = {audit_cell_key(c) for c in measured.get("cells", [])}
    matched = 0
    for cell in committed.get("cells", []):
        key = audit_cell_key(cell)
        if key in measured_cells:
            matched += 1
        else:
            failures.append(
                "committed audit cell {} eps={} d={} k={} missing from the "
                "measured grid".format(*key[:4])
            )
    if matched == 0:
        failures.append("no measured audit cell matched any committed cell")

    return failures, rows, matched


def self_test():
    """Unit checks for the gate itself, on synthetic reports. Returns the
    number of violated expectations (0 = pass)."""

    def grid_cell(**over):
        cell = {
            "protocol": "Sampling(HM+OUE)",
            "eps": 1.0,
            "d": 8,
            "k": 16,
            "sampled_k": 3,
            "estimate_checksum": "0xabc",
            "reference_users_per_sec": 10.0,
            "production_users_per_sec": 100.0,
        }
        cell.update(over)
        return cell

    def wire_cell(**over):
        cell = {
            "protocol": "Sampling(HM+OUE)",
            "eps": 1.0,
            "d": 8,
            "k": 16,
            "reports": 20000,
            "total_bytes": 123456,
            "wal_replayed": 20000,
            "encode_reports_per_sec": 1000.0,
            "decode_reports_per_sec": 2000.0,
            "wal_reports_per_sec": 500.0,
        }
        cell.update(over)
        return cell

    def query_cell(**over):
        cell = {
            "eps": 1.0,
            "queries": 16,
            "g1": 21,
            "g2": 7,
            "grids": 10,
            "hdg_mean_rel_err": 0.12,
            "naive_mean_rel_err": 0.45,
            "answers_per_sec": 50000.0,
            "answer_checksum": "0x123",
        }
        cell.update(over)
        return cell

    def report(**over):
        rep = {
            "arms": ["reference", "production"],
            "cells": [grid_cell()],
            "wire": {"arms": ["encode", "decode", "wal"], "cells": [wire_cell()]},
            "queries": {"users": 30000, "cells": [query_cell()]},
            "worker_sweep": {"cells": [{"estimate_checksum": "0xfff"}]},
        }
        rep.update(over)
        return rep

    cases = []

    def expect(name, want_failure_containing, committed, measured):
        failures, _, _ = compare(committed, measured, min_ratio=0.2)
        if want_failure_containing is None:
            ok = not failures
            detail = f"unexpected failures: {failures}" if not ok else ""
        else:
            ok = any(want_failure_containing in f for f in failures)
            detail = (
                f"no failure containing {want_failure_containing!r} in {failures}"
                if not ok
                else ""
            )
        cases.append((name, ok, detail))

    expect("identical reports pass", None, report(), report())
    expect(
        "dropped grid arm fails",
        "dropped committed arm(s): production",
        report(),
        report(arms=["reference"]),
    )
    expect(
        "committed JSON without arms fails",
        "declares no arms",
        {k: v for k, v in report().items() if k != "arms"},
        report(),
    )
    expect(
        "dropped wire arm fails",
        "dropped committed wire arm(s): decode",
        report(),
        report(wire={"arms": ["encode"], "cells": [wire_cell()]}),
    )
    expect(
        "missing wire section fails",
        "measured JSON has none",
        report(),
        {k: v for k, v in report().items() if k != "wire"},
    )
    expect(
        "wire byte drift fails",
        "total_bytes drifted",
        report(),
        report(wire={"arms": ["encode", "decode"], "cells": [wire_cell(total_bytes=123457)]}),
    )
    expect(
        "wal replayed-count drift fails",
        "wal_replayed drifted",
        report(),
        report(
            wire={
                "arms": ["encode", "decode", "wal"],
                "cells": [wire_cell(wal_replayed=19999)],
            }
        ),
    )
    expect(
        "dropped wal_replayed field fails",
        "wal_replayed drifted",
        report(),
        report(
            wire={
                "arms": ["encode", "decode", "wal"],
                "cells": [{k: v for k, v in wire_cell().items() if k != "wal_replayed"}],
            }
        ),
    )
    expect(
        "wal rate collapse fails",
        "wal_reports_per_sec regressed",
        report(),
        report(
            wire={
                "arms": ["encode", "decode", "wal"],
                "cells": [wire_cell(wal_reports_per_sec=1.0)],
            }
        ),
    )
    expect(
        "committed wire cell without wal_replayed fails",
        "wal_replayed drifted",
        report(
            wire={
                "arms": ["encode", "decode", "wal"],
                "cells": [{k: v for k, v in wire_cell().items() if k != "wal_replayed"}],
            }
        ),
        report(),
    )
    expect(
        "checksum drift fails",
        "estimate_checksum drifted",
        report(),
        report(cells=[grid_cell(estimate_checksum="0xdef")]),
    )
    expect(
        "speed collapse fails",
        "regressed to",
        report(),
        report(cells=[grid_cell(production_users_per_sec=1.0)]),
    )
    expect(
        "reference arm stays ungated",
        None,
        report(),
        report(cells=[grid_cell(reference_users_per_sec=0.0001)]),
    )
    expect(
        "declared-but-absent speed field fails",
        "missing declared speed field",
        report(),
        report(
            cells=[
                {k: v for k, v in grid_cell().items() if k != "production_users_per_sec"}
            ]
        ),
    )
    expect(
        "measured-side extra arm is fine",
        None,
        report(),
        report(arms=["reference", "production", "turbo"]),
    )
    expect(
        "grid mismatch fails",
        "no measured cell matched",
        report(),
        report(cells=[grid_cell(d=99)]),
    )
    expect(
        "missing queries section fails",
        "declares a queries section but the measured JSON has none",
        report(),
        {k: v for k, v in report().items() if k != "queries"},
    )
    expect(
        "query answer checksum drift fails",
        "answer_checksum drifted",
        report(),
        report(queries={"users": 30000, "cells": [query_cell(answer_checksum="0x124")]}),
    )
    expect(
        "query grid layout drift fails",
        "g1 drifted",
        report(),
        report(queries={"users": 30000, "cells": [query_cell(g1=24)]}),
    )
    expect(
        "measured hdg worse than naive fails",
        "no longer beat the naive baseline",
        report(),
        report(queries={"users": 30000, "cells": [query_cell(hdg_mean_rel_err=0.5)]}),
    )
    expect(
        "committed hdg worse than naive fails",
        "no longer beat the naive baseline",
        report(queries={"users": 30000, "cells": [query_cell(hdg_mean_rel_err=0.5)]}),
        report(),
    )
    expect(
        "query answer rate collapse fails",
        "answers_per_sec regressed",
        report(),
        report(queries={"users": 30000, "cells": [query_cell(answers_per_sec=100.0)]}),
    )
    expect(
        "query eps mismatch fails",
        "no measured query cell matched",
        report(),
        report(queries={"users": 30000, "cells": [query_cell(eps=9.0)]}),
    )

    # --- audit-gate cases ---

    def audit_cell(**over):
        cell = {
            "protocol": "Oracle(GRR)",
            "eps": 1.0,
            "d": 1,
            "k": 2,
            "sampled_k": 1,
            "eps_theory": 1.0,
            "encode_trials": 1000000,
            "encode_wins_v1": 365000,
            "encode_wins_v2": 365000,
            "encode_advantage": 0.46,
            "encode_eps_emp_lower": 0.98,
            "encode_eps_emp_upper": 0.99,
        }
        cell.update(over)
        return cell

    def audit_report(**over):
        rep = {
            "bench": "audit",
            "mode": "default",
            "arms": ["encode"],
            "cells": [audit_cell()],
        }
        rep.update(over)
        return rep

    def expect_audit(name, want_failure_containing, committed, measured):
        failures, _, _ = compare_audit(committed, measured, slop=1e-9)
        if want_failure_containing is None:
            ok = not failures
            detail = f"unexpected failures: {failures}" if not ok else ""
        else:
            ok = any(want_failure_containing in f for f in failures)
            detail = (
                f"no failure containing {want_failure_containing!r} in {failures}"
                if not ok
                else ""
            )
        cases.append((name, ok, detail))

    expect_audit("healthy audit pair passes", None, audit_report(), audit_report())
    # The deliberately-broken cell: a certificate above the theoretical
    # budget must fail no matter which side carries it.
    expect_audit(
        "measured eps violation fails",
        "exceeds theoretical eps",
        audit_report(),
        audit_report(cells=[audit_cell(encode_eps_emp_upper=1.07)]),
    )
    expect_audit(
        "committed eps violation fails",
        "exceeds theoretical eps",
        audit_report(cells=[audit_cell(encode_eps_emp_upper=1.07)]),
        audit_report(),
    )
    expect_audit(
        "missing committed audit cell fails",
        "missing from the measured grid",
        audit_report(cells=[audit_cell(), audit_cell(k=16)]),
        audit_report(),
    )
    expect_audit(
        "dropped audit arm fails",
        "dropped committed arm(s): encode",
        audit_report(),
        audit_report(arms=[], cells=[audit_cell()]),
    )
    expect_audit(
        "tally conservation violation fails",
        "wins exceed trials",
        audit_report(),
        audit_report(cells=[audit_cell(encode_wins_v1=700000, encode_wins_v2=700000)]),
    )
    expect_audit(
        "inverted bounds fail",
        "eps_emp_lower",
        audit_report(),
        audit_report(
            cells=[audit_cell(encode_eps_emp_lower=0.99, encode_eps_emp_upper=0.5)]
        ),
    )
    expect_audit(
        "quick re-audit with smaller certificates passes",
        None,
        audit_report(),
        audit_report(
            mode="quick",
            cells=[
                audit_cell(
                    encode_trials=50000,
                    encode_wins_v1=18000,
                    encode_wins_v2=18000,
                    encode_eps_emp_lower=0.90,
                    encode_eps_emp_upper=0.93,
                )
            ],
        ),
    )

    bad = 0
    for name, ok, detail in cases:
        print(f"{'ok' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        if not ok:
            bad += 1
    print(f"\nself-test: {len(cases) - bad}/{len(cases)} checks passed")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--committed", help="committed BENCH_throughput.json")
    parser.add_argument("--measured", help="freshly measured JSON")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.2,
        help="fail when measured/committed users-per-sec drops below this",
    )
    parser.add_argument(
        "--eps-slop",
        type=float,
        default=1e-9,
        help="audit gate: tolerated float slack on eps_emp_upper <= eps_theory",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the gate's own unit checks on synthetic reports and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        sys.exit(1 if self_test() else 0)
    if not args.committed or not args.measured:
        parser.error("--committed and --measured are required unless --self-test")

    with open(args.committed) as f:
        committed = json.load(f)
    with open(args.measured) as f:
        measured = json.load(f)

    kinds = (committed.get("bench", "throughput"), measured.get("bench", "throughput"))
    if kinds[0] != kinds[1]:
        print(f"bench kinds disagree: committed={kinds[0]} measured={kinds[1]}")
        sys.exit(1)

    if kinds[0] == "audit":
        failures, rows, matched = compare_audit(committed, measured, args.eps_slop)
        for label, arm, upper, theory in rows:
            marker = "OK" if upper <= theory + args.eps_slop else "FAIL"
            print(f"{marker} {label} {arm}: eps_emp_upper {upper} vs eps {theory}")
        print(f"\n{matched} audit cells matched against the committed grid")
        if failures:
            print("\nFAILURES:")
            for f in failures:
                print(f"  - {f}")
            sys.exit(1)
        print("privacy audit gate passed")
        return

    failures, delta_rows, matched = compare(committed, measured, args.min_ratio)

    gated = sorted({field for _, field, _, _, _ in delta_rows})
    print(f"gated speed fields seen: {', '.join(gated) if gated else '(none)'}")
    for label, field, got, ref, ratio in delta_rows:
        marker = "OK" if ratio >= args.min_ratio else "FAIL"
        print(f"{marker} {label} {field}: {got:.0f} vs {ref:.0f} (x{ratio:.2f})")

    print(f"\n{matched} cells matched against the committed grid")
    if failures:
        print("\nper-cell delta table (measured vs committed):")
        width = max((len(r[0]) for r in delta_rows), default=0)
        for label, field, got, ref, ratio in delta_rows:
            arm = field.removesuffix("_users_per_sec").removesuffix("_reports_per_sec")
            print(f"  {label:<{width}}  {arm:>9}: {got:>12.0f} / {ref:>12.0f}  x{ratio:.3f}")
        print("\nFAILURES:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("bench regression gate passed")


if __name__ == "__main__":
    main()
