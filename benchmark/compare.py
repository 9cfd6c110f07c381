#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

    benchmark/compare.py PARENT.json... -- CHANGE.json...

Each file is a results file written by run.sh (full mode). Values of each
side are pooled across its files, in order. For every workload and every
end-to-end metric both sides report, one row gives:

  * each side's median and quartiles;
  * the pair win share: the i-th parent value against the i-th change
    value, the share of pairs the change wins (ties count for neither);
  * the bound check: the change's median may be worse than the parent's by
    at most the metric's bound (a share of the parent median; fail_rate's
    is absolute, setup_s's is at least 5 ms);
  * "unresolved" when the parent's own spread (q3 - q1) exceeds the bound,
    unless every change value beats every parent value;
  * "gain" when the change wins at least nine tenths of the pairs and the
    medians differ by more than the parent's spread.

A rise in the share of failed runs or of failed queries is flagged too.
Exit status: 1 if any metric regressed or a failed share rose, else 0.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import ABSOLUTE_BOUND, E2E, SETUP_FLOOR_S, quartiles  # noqa: E402


def pooled(paths):
    """workload -> {"metrics": name -> (unit, values), runs, failed...}."""
    out = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for w, s in data["workloads"].items():
            d = out.setdefault(w, {"metrics": {}, "runs": 0,
                                   "failed_runs": 0, "issued": 0,
                                   "failed": 0})
            d["runs"] += s["runs"]
            d["failed_runs"] += s["failed_runs"]
            d["issued"] += s["counts"].get("queries_issued", 0)
            d["failed"] += s["counts"].get("queries_failed", 0)
            for name, m in s["metrics"].items():
                unit, vals = d["metrics"].setdefault(name, (m["unit"], []))
                vals.extend(m["values"])
    return out


def compare_metric(name, parent, change):
    _, better, bound, _ = E2E[name]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if name in ABSOLUTE_BOUND:
        allowed = bound
    elif name == "setup_s":
        allowed = max(bound * abs(pm), SETUP_FLOOR_S)
    else:
        allowed = bound * abs(pm)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - pm)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    spread = p3 - p1
    if worse_by > allowed:
        verdict = "REGRESSION"
    elif spread > allowed and not all_better:
        verdict = "unresolved"
    elif win_share >= 0.9 and -worse_by > spread and worse_by < 0:
        verdict = "gain"
    else:
        verdict = "ok"
    return {"parent": (pm, p1, p3, len(parent)),
            "change": (cm, c1, c3, len(change)),
            "delta": (cm - pm) / pm if pm else 0.0, "win": win_share,
            "allowed": allowed, "verdict": verdict}


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent_paths, change_paths = argv[:cut], argv[cut + 1:]
    if not parent_paths or not change_paths:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = pooled(parent_paths), pooled(change_paths)
    bad = False
    totals = {"REGRESSION": 0, "unresolved": 0, "gain": 0, "ok": 0}
    for w in parent:
        if w not in change:
            continue
        p, c = parent[w], change[w]
        rows = []
        for name, (unit, pvals) in p["metrics"].items():
            # raw_* and host_scale are diagnostics of the host, not gates.
            if name not in E2E or name not in c["metrics"]:
                continue
            rows.append((name, unit, compare_metric(name, pvals,
                                                    c["metrics"][name][1])))
        counts = {k: sum(1 for r in rows if r[2]["verdict"] == k)
                  for k in totals}
        for k in totals:
            totals[k] += counts[k]
        flags = []
        p_fail = p["failed_runs"] / max(p["runs"], 1)
        c_fail = c["failed_runs"] / max(c["runs"], 1)
        if c_fail > p_fail:
            flags.append(f"FAILED-RUN SHARE ROSE {p_fail:.4f} -> {c_fail:.4f}")
        p_q = p["failed"] / p["issued"] if p["issued"] else 0.0
        c_q = c["failed"] / c["issued"] if c["issued"] else 0.0
        if c_q > p_q:
            flags.append(f"FAILED-QUERY SHARE ROSE {p_q:.4f} -> {c_q:.4f}")
        bad = bad or counts["REGRESSION"] > 0 or bool(flags)
        print(f"{w}: {counts['REGRESSION']} regressed, "
              f"{counts['unresolved']} unresolved, {counts['gain']} gain, "
              f"{counts['ok']} within bound; failed runs "
              f"{p['failed_runs']}/{p['runs']} -> "
              f"{c['failed_runs']}/{c['runs']}"
              + ("; " + "; ".join(flags) if flags else ""))
        print(f"  {'metric':<19} {'unit':<6} {'parent median [q1, q3] n':>36}"
              f" {'change median [q1, q3] n':>36} {'delta':>8} {'win':>5}"
              f" {'bound':>10}  verdict")
        for name, unit, r in rows:
            pm, p1, p3, pn = r["parent"]
            cm, c1, c3, cn = r["change"]
            print(f"  {name:<19} {unit:<6} "
                  f"{pm:>12.6g} [{p1:.5g}, {p3:.5g}] {pn:>2} "
                  f"{cm:>12.6g} [{c1:.5g}, {c3:.5g}] {cn:>2} "
                  f"{100 * r['delta']:>+7.2f}% {100 * r['win']:>4.0f}% "
                  f"{r['allowed']:>10.4g}  {r['verdict']}")
    print(f"total: {totals['REGRESSION']} regressed, "
          f"{totals['unresolved']} unresolved, {totals['gain']} gain, "
          f"{totals['ok']} within bound")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
