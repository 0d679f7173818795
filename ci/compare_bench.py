#!/usr/bin/env python3
"""Gate a fresh bench run against its committed BENCH_*.json artifact.

The gate is one table, ``TABLES``, and one comparator, ``compare``, that
walks it. The table has one entry per bench kind (the top-level ``bench``
field of both JSONs: ``"throughput"`` against ``BENCH_throughput.json``,
``"audit"`` against ``BENCH_audit.json``) and, for each kind, one row per
section of the JSON. A row names:

* its match key: the cell fields that pair a measured cell with a
  committed one;
* its exact fields, which must match EXACTLY;
* its ratio-gated speed fields, ``<arm>_<suffix>`` for every arm the
  committed section declares except the deliberately slow ``reference``
  arm, which fail only below ``--min-ratio`` of the committed number;
* its per-side checks, run on every cell of BOTH files.

Exact fields (estimate and answer checksums, query grid layouts, wire
byte totals, replayed WAL record counts) are deterministic: fixed seeds,
fixed populations, a bit-exact batched-RNG layer, an exact-length wire
codec. Any drift means an estimate or a wire byte changed, and fails the
job. The checksum, wire, query and sweep runs have the same size in every
mode, so a quick CI run is exactly comparable with the committed
default-mode artifact.

Speed fields are measured on shared CI runners, so the gate is
deliberately generous: it fails only when a matched cell drops below
``--min-ratio`` (default 0.2, i.e. a 5x regression) of the committed
number. The committed JSON, regenerated on a quiet machine whenever the
hot path changes, remains the authoritative trajectory; this gate just
catches catastrophic regressions before they merge. The gated arms come
from the committed JSON's own ``arms`` list, so adding an arm to the bench
needs no change here, and measured-side extra arms are fine.

The audit's per-side check is the privacy gate: every audited (cell, arm)
must satisfy ``<arm>_eps_emp_upper <= eps_theory`` (plus ``--eps-slop``,
default 1e-9, for float formatting only). The certified bound only
*shrinks* with fewer trials, so a quick CI re-audit applies the exact same
inequality as the committed million-trial artifact; there is no
"tolerant" variant of this gate. Tally sanity (wins <= trials,
lower <= upper) is checked too.

Nothing passes by omission. A committed section, cell, arm or field that
the measured JSON lacks is a hard failure with its own message, and so is
a committed JSON that declares no arms. Only the throughput grid may be
matched partially, since a quick-mode run covers a subset of the committed
default-mode grid; every other section reports the same cells in every
mode. Zero matched cells fails (the grids no longer line up). A committed
section with a ``cells`` list that no row names fails too, so a section
added to a BENCH_*.json later cannot go ungated. The per-side checks run
on the committed artifact as well: a bad artifact must not become the
baseline everything else is compared to.

On failure the full per-cell delta table (every matched cell x every gated
field, measured/committed ratio) is printed, so a regression can be
localized from the CI log alone.

``--self-test`` runs the gate's own cases on synthetic reports (missing
arms fail, byte drift fails, healthy pairs pass) and exits non-zero on any
violation; CI runs it before trusting the real comparison.

Platform caveat for the exact gate: the draw streams are platform-fixed,
but a few oracle/mechanism parameters pass through libm transcendentals
(exp/ln), which may differ by an ulp across libc/architectures. Regenerate
the committed BENCH_throughput.json on the CI platform family
(x86_64 linux) so its checksums are the ones CI reproduces; a one-bit
checksum drift on a perf-only refresh made from another platform means
exactly this, not a real estimate change.
"""

import argparse
import json
import sys
from dataclasses import dataclass

# Deliberately-slow reference arms that are recorded but not speed-gated.
UNGATED_ARMS = {"reference"}

# The per-arm tallies of one audit cell, as ``<arm>_<field>``.
AUDIT_FIELDS = ("trials", "wins_v1", "wins_v2", "eps_emp_lower", "eps_emp_upper")


def hdg_beats_naive(label, cell, **_):
    """The accuracy claim the range-query subsystem exists for: the
    repaired HDG error is below the naive full-domain baseline's."""
    hdg, naive = cell["hdg_mean_rel_err"], cell["naive_mean_rel_err"]
    if hdg < naive:
        return []
    return [
        f"{label}: hdg_mean_rel_err {hdg} is not below naive_mean_rel_err "
        f"{naive} — the repaired grids no longer beat the naive baseline"
    ]


def certified(label, cell, arms, slop, deltas):
    """The privacy gate proper: the certified empirical epsilon never
    exceeds the theoretical budget, and the tallies are consistent."""
    problems = []
    for arm in arms:
        fields = [f"{arm}_{f}" for f in AUDIT_FIELDS]
        missing = [f for f in fields if f not in cell]
        if len(missing) == len(fields):
            # The ``direct`` arm exists on 1-D GRR cells alone; a cell with
            # no trace of an arm simply doesn't run it.
            continue
        if missing:
            problems.append(f"{label}: missing audit field(s) {missing}")
            continue
        trials, w1, w2, lower, upper = (cell[f] for f in fields)
        theory = cell["eps_theory"]
        if w1 + w2 > trials:
            problems.append(
                f"{label}: {arm} wins exceed trials ({w1}+{w2} > {trials}) "
                f"— tally conservation broken"
            )
        if lower > upper + slop:
            problems.append(f"{label}: {arm} eps_emp_lower {lower} > eps_emp_upper {upper}")
        ok = upper <= theory + slop
        deltas.append((label, f"{arm}_eps_emp_upper", upper, theory, ok))
        if not ok:
            problems.append(
                f"{label}: {arm} certified eps_emp_upper {upper} exceeds "
                f"theoretical eps {theory} — the implementation leaks more "
                f"privacy than it claims"
            )
    return problems


@dataclass(frozen=True)
class Section:
    """One gated section of a bench JSON: a ``cells`` list, either at the
    top level (``path`` None) or in the object under ``path``.

    Cells of one file that share a key must also agree on every exact
    field, so a section whose value does not depend on the cell (the
    worker sweep) is keyed on no field at all."""

    name: str
    path: str | None
    key: tuple
    exact: tuple = ()
    # The section declares ``arms``; every committed arm must be measured.
    arms: bool = False
    # Suffix of the ratio-gated ``<arm>_<speed>`` fields.
    speed: str | None = None
    # Per-side checks: ``check(label, cell, arms=, slop=, deltas=)`` returns
    # failure messages.
    checks: tuple = ()
    # A measured run may cover a subset of the committed cells.
    partial: bool = False


GRID_KEY = ("protocol", "eps", "d", "k", "sampled_k")

TABLES = {
    "throughput": (
        Section(
            "grid",
            None,
            GRID_KEY,
            exact=("estimate_checksum",),
            arms=True,
            speed="users_per_sec",
            partial=True,
        ),
        Section(
            "wire",
            "wire",
            ("protocol", "eps", "d", "k"),
            exact=("reports", "total_bytes", "wal_replayed"),
        ),
        Section(
            "queries",
            "queries",
            ("eps",),
            exact=("queries", "g1", "g2", "grids", "answer_checksum"),
            checks=(hdg_beats_naive,),
        ),
        # Every worker count must produce the same estimates.
        Section("worker_sweep", "worker_sweep", (), exact=("estimate_checksum",)),
    ),
    "audit": (
        # Quick mode reduces trials, not cells.
        Section("audit", None, GRID_KEY, exact=("eps_theory",), arms=True, checks=(certified,)),
    ),
}


def cell_label(row, cell):
    parts = [str(cell.get(f)) if f == "protocol" else f"{f}={cell.get(f)}" for f in row.key]
    return " ".join([row.name, *parts])


def gate(row, committed, measured, min_ratio, slop, failures, deltas):
    """Gates one section; returns its matched cell count."""
    sides = {}
    for side, report in (("committed", committed), ("measured", measured)):
        section = report if row.path is None else report.get(row.path)
        if isinstance(section, dict) and isinstance(section.get("cells"), list):
            sides[side] = section
        else:
            failures.append(f"{side} JSON has no {row.name} section")
    if len(sides) < 2:
        return 0

    arms = {side: section.get("arms", []) for side, section in sides.items()}
    if row.arms:
        if not arms["committed"]:
            failures.append(f"{row.name}: committed JSON declares no arms — nothing to gate")
        dropped = [a for a in arms["committed"] if a not in arms["measured"]]
        if dropped:
            failures.append(
                f"{row.name}: measured JSON dropped committed arm(s): {', '.join(dropped)}"
            )

    speed = []
    if row.speed:
        speed = [
            f"{arm}_{row.speed}"
            for arm in arms["committed"]
            if arm not in UNGATED_ARMS and arm in arms["measured"]
        ]

    # Per-side checks on every cell, and each side's cells by key.
    by_key = {}
    for side, section in sides.items():
        by_key[side] = {}
        for cell in section["cells"]:
            label = cell_label(row, cell)
            try:
                key = tuple(cell[f] for f in row.key)
                for check in row.checks:
                    failures.extend(
                        check(f"{side} {label}", cell, arms=arms[side], slop=slop, deltas=deltas)
                    )
            except KeyError as missing:
                failures.append(f"{label}: {side} cell has no {missing.args[0]}")
                continue
            first = by_key[side].setdefault(key, cell)
            for field in row.exact + tuple(speed):
                if field not in cell:
                    failures.append(f"{label}: {side} cell has no {field}")
                elif field in row.exact and field in first and first[field] != cell[field]:
                    failures.append(
                        f"{side} {label}: cells of one key disagree on {field} "
                        f"({first[field]} vs {cell[field]})"
                    )

    matched = 0
    for key, ref in by_key["committed"].items():
        label = cell_label(row, ref)
        cell = by_key["measured"].get(key)
        if cell is None:
            if not row.partial:
                failures.append(f"{label}: committed cell is missing from the measured JSON")
            continue
        matched += 1
        # A field either side lacks has failed by name above.
        for field in (f for f in row.exact if f in ref and f in cell):
            if cell[field] != ref[field]:
                failures.append(f"{label}: {field} drifted ({ref[field]} -> {cell[field]})")
        for field in (f for f in speed if f in ref and f in cell):
            ratio = cell[field] / ref[field]
            deltas.append((label, field, cell[field], ref[field], ratio >= min_ratio))
            if ratio < min_ratio:
                failures.append(f"{label}: {field} regressed to x{ratio:.2f} of committed")
    if matched == 0:
        failures.append(
            f"no measured {row.name} cell matched any committed {row.name} cell "
            f"— the keys drifted"
        )
    return matched


def compare(committed, measured, min_ratio=0.2, slop=1e-9):
    """The whole gate for the committed JSON's bench kind. Returns
    (failures, deltas, matched): deltas are (label, field, measured,
    committed or bound, ok) rows for the log, and matched counts the cells
    of the kind's first row (the grid, or the audit cells)."""
    kind = committed.get("bench", "throughput")
    if measured.get("bench", "throughput") != kind:
        return [f"bench kinds disagree: committed={kind} measured={measured.get('bench')}"], [], 0
    if kind not in TABLES:
        return [f"no gate for bench kind {kind!r}"], [], 0
    rows = TABLES[kind]
    failures, deltas = [], []
    gated = {row.path for row in rows}
    for name, section in committed.items():
        if isinstance(section, dict) and isinstance(section.get("cells"), list):
            if name not in gated:
                failures.append(
                    f"committed section {name} has cells that no {kind} row gates "
                    f"— add a row for it to TABLES"
                )
    matched = [gate(row, committed, measured, min_ratio, slop, failures, deltas) for row in rows]
    return failures, deltas, matched[0]


# --- self-test: the gate's own cases, on synthetic reports.

GRID_CELL = {
    "protocol": "Sampling(HM+OUE)",
    "eps": 1.0,
    "d": 8,
    "k": 16,
    "sampled_k": 3,
    "estimate_checksum": "0xabc",
    "reference_users_per_sec": 10.0,
    "production_users_per_sec": 100.0,
}
WIRE_CELL = {
    "protocol": "Sampling(HM+OUE)",
    "eps": 1.0,
    "d": 8,
    "k": 16,
    "reports": 20000,
    "total_bytes": 123456,
    "wal_replayed": 20000,
}
QUERY_CELL = {
    "eps": 1.0,
    "queries": 16,
    "g1": 21,
    "g2": 7,
    "grids": 10,
    "hdg_mean_rel_err": 0.12,
    "naive_mean_rel_err": 0.45,
    "answer_checksum": "0x123",
}
AUDIT_CELL = {
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


def edit(base, *drop, **over):
    """``base`` without the fields in ``drop``, with ``over`` applied."""
    out = {k: v for k, v in base.items() if k not in drop}
    out.update(over)
    return out


def report(*drop, **over):
    rep = {
        "bench": "throughput",
        "arms": ["reference", "production"],
        "cells": [GRID_CELL],
        "wire": {"cells": [WIRE_CELL]},
        "queries": {"users": 30000, "cells": [QUERY_CELL]},
        "worker_sweep": {
            "cells": [{"workers": w, "estimate_checksum": "0xfff"} for w in (1, 2)]
        },
    }
    return edit(rep, *drop, **over)


def grid(*drop, **over):
    return report(cells=[edit(GRID_CELL, *drop, **over)])


def wire(*drop, **over):
    return report(wire={"cells": [edit(WIRE_CELL, *drop, **over)]})


def queries(*drop, **over):
    return report(queries={"users": 30000, "cells": [edit(QUERY_CELL, *drop, **over)]})


def sweep(*checksums):
    cells = [{"workers": w, "estimate_checksum": c} for w, c in enumerate(checksums, 1)]
    return report(worker_sweep={"cells": cells})


def audit(cells=(AUDIT_CELL,), **over):
    rep = {"bench": "audit", "mode": "default", "arms": ["encode"], "cells": list(cells)}
    return edit(rep, **over)


def audit_cell(**over):
    return audit([edit(AUDIT_CELL, **over)])


QUICK_AUDIT = edit(
    AUDIT_CELL,
    encode_trials=50000,
    encode_wins_v1=18000,
    encode_wins_v2=18000,
    encode_eps_emp_lower=0.90,
    encode_eps_emp_upper=0.93,
)

# (name, expected failure or None for a passing pair, committed, measured)
CASES = [
    ("identical reports pass", None, report(), report()),
    ("dropped grid arm fails", "dropped committed arm(s): production",
     report(), report(arms=["reference"])),
    ("committed JSON without arms fails", "declares no arms", report("arms"), report()),
    ("missing wire section fails", "measured JSON has no wire section", report(), report("wire")),
    ("wire byte drift fails", "total_bytes drifted", wire(), wire(total_bytes=123457)),
    ("wal replayed-count drift fails", "wal_replayed drifted", wire(), wire(wal_replayed=19999)),
    ("dropped wal_replayed field fails", "measured cell has no wal_replayed",
     wire(), wire("wal_replayed")),
    ("committed wire cell without wal_replayed fails", "committed cell has no wal_replayed",
     wire("wal_replayed"), wire()),
    ("missing committed wire cell fails", "k=64: committed cell is missing",
     report(wire={"cells": [WIRE_CELL, edit(WIRE_CELL, k=64)]}), report()),
    ("checksum drift fails", "estimate_checksum drifted",
     report(), grid(estimate_checksum="0xdef")),
    ("grid cell without estimate_checksum fails", "measured cell has no estimate_checksum",
     report(), grid("estimate_checksum")),
    ("speed collapse fails", "regressed to", report(), grid(production_users_per_sec=1.0)),
    ("reference arm stays ungated", None, report(), grid(reference_users_per_sec=0.0001)),
    ("declared-but-absent speed field fails", "measured cell has no production_users_per_sec",
     report(), grid("production_users_per_sec")),
    ("measured-side extra arm is fine", None,
     report(), report(arms=["reference", "production", "turbo"])),
    ("grid mismatch fails", "no measured grid cell matched", report(), grid(d=99)),
    ("missing queries section fails", "measured JSON has no queries section",
     report(), report("queries")),
    ("query answer checksum drift fails", "answer_checksum drifted",
     report(), queries(answer_checksum="0x124")),
    ("query cell without answer_checksum fails", "measured cell has no answer_checksum",
     report(), queries("answer_checksum")),
    ("query grid layout drift fails", "g1 drifted", report(), queries(g1=24)),
    ("measured hdg worse than naive fails", "no longer beat the naive baseline",
     report(), queries(hdg_mean_rel_err=0.5)),
    ("committed hdg worse than naive fails", "no longer beat the naive baseline",
     queries(hdg_mean_rel_err=0.5), report()),
    ("query eps mismatch fails", "no measured queries cell matched", report(), queries(eps=9.0)),
    ("missing worker_sweep section fails", "measured JSON has no worker_sweep section",
     report(), report("worker_sweep")),
    ("worker_sweep checksum drift fails", "estimate_checksum drifted (0xfff -> 0xeee)",
     report(), sweep("0xeee", "0xeee")),
    ("worker_sweep checksums disagreeing within one file fail",
     "measured worker_sweep: cells of one key disagree on estimate_checksum",
     report(), sweep("0xfff", "0xeee")),
    ("ungated committed section fails", "committed section kernels has cells that no throughput",
     report(kernels={"cells": [GRID_CELL]}), report(kernels={"cells": [GRID_CELL]})),
    # --- audit cases ---
    ("healthy audit pair passes", None, audit(), audit()),
    # The deliberately-broken cell: a certificate above the theoretical
    # budget must fail no matter which side carries it.
    ("measured eps violation fails", "exceeds theoretical eps",
     audit(), audit_cell(encode_eps_emp_upper=1.07)),
    ("committed eps violation fails", "exceeds theoretical eps",
     audit_cell(encode_eps_emp_upper=1.07), audit()),
    ("missing committed audit cell fails", "committed cell is missing from the measured JSON",
     audit([AUDIT_CELL, edit(AUDIT_CELL, k=16)]), audit()),
    ("dropped audit arm fails", "dropped committed arm(s): encode", audit(), audit(arms=[])),
    ("tally conservation violation fails", "wins exceed trials",
     audit(), audit_cell(encode_wins_v1=700000, encode_wins_v2=700000)),
    ("inverted bounds fail", "eps_emp_lower",
     audit(), audit_cell(encode_eps_emp_lower=0.99, encode_eps_emp_upper=0.5)),
    ("quick re-audit with smaller certificates passes", None,
     audit(), audit([QUICK_AUDIT], mode="quick")),
]


def self_test():
    """Runs every case; returns the number that went wrong (0 = pass)."""
    bad = 0
    for name, want, committed, measured in CASES:
        failures, _, _ = compare(committed, measured)
        if want is None:
            ok, detail = not failures, f"unexpected failures: {failures}"
        else:
            ok = any(want in f for f in failures)
            detail = f"no failure containing {want!r} in {failures}"
        print(f"ok {name}" if ok else f"FAIL {name}: {detail}")
        bad += not ok
    print(f"\nself-test: {len(CASES) - bad}/{len(CASES)} checks passed")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--committed", help="committed BENCH_*.json")
    parser.add_argument("--measured", help="freshly measured JSON")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.2,
        help="fail when a gated speed field's measured/committed ratio drops below this",
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
        help="run the gate's own cases on synthetic reports and exit",
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

    failures, deltas, matched = compare(committed, measured, args.min_ratio, args.eps_slop)
    fields = sorted({field for _, field, _, _, _ in deltas})
    print(f"gated fields seen: {', '.join(fields) if fields else '(none)'}")
    for label, field, got, ref, ok in deltas:
        mark = "OK" if ok else "FAIL"
        print(f"{mark} {label} {field}: {got:.12g} vs {ref:.12g} (x{got / ref:.2f})")
    kind = committed.get("bench", "throughput")
    print(f"\n{matched} {kind} cells matched against the committed grid")
    if failures:
        print("\nper-cell delta table (measured vs committed):")
        width = max((len(row[0]) for row in deltas), default=0)
        for label, field, got, ref, _ in deltas:
            ratio = got / ref
            print(f"  {label:<{width}}  {field:>24}: {got:>16.12g} / {ref:>16.12g}  x{ratio:.3f}")
        print("\nFAILURES:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print(f"{kind} gate passed")


if __name__ == "__main__":
    main()
