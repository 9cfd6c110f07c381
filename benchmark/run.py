#!/usr/bin/env python3
"""Runs the repository benchmark and reports its metrics.

Called by run.sh once the driver is built. Three modes:

  --workload NAME --seed S --seconds T --trace 0|1
      One workload in one process for T seconds. Prints every metric with
      its unit, then, as the last line, the result object
      {"correct", "attempted", "failed", "metrics"} holding BENCHMARK.json's
      end_to_end metrics (--trace 0) or per_layer metrics (--trace 1).

  [--seed S] [--rounds R] [--reps K] [--trace] [--out FILE]
      The full set: R rounds, each running every workload once in its own
      process (one discarded check repetition, then K timed ones). A host
      metric is the median of the per-process medians; simulated-time
      metrics must repeat exactly across repetitions and rounds. --trace adds one traced
      run per workload (per-layer metrics and a Chrome trace of bench-side
      spans). Writes a results file for compare.py.

  --smoke
      One seed, short spans, two repetitions per workload, traced; checks
      that every metric name and unit in BENCHMARK.json is produced.

Exit status is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
DRIVER = os.path.join(BUILD, "diknn_benchmark")
WORKLOADS = ["paper_5_1", "served_hotspot", "uniform_itineraries",
             "substrate_100k"]
DRIVER_TIMEOUT_S = 170

# Every end-to-end metric the benchmark prints: unit, better, bound, kind.
# Host metrics are medians over timed repetitions of wall-clock times
# scaled to the reference host speed (driver.cc, HostGauge); the driver
# also reports them unscaled as raw_*. Simulated-time ("sim") metrics are
# deterministic for a seed set and must repeat exactly. A bound is a share
# of the parent's median; fail_rate's is absolute, and setup_s may also
# move by 5 ms. compare.py gates all of them on equal seeds.
# BENCHMARK.json carries only those every workload reports whose spread
# over different seeds stays within a bound, with wider bounds.
E2E = {
    "wall_s": ("s", "lower", 0.10, "host"),
    "setup_s": ("s", "lower", 0.10, "host"),
    "peak_rss_mb": ("MB", "lower", 0.10, "host"),
    "queries_per_s": ("1/s", "higher", 0.10, "host"),
    "frames_per_s": ("1/s", "higher", 0.10, "host"),
    "goodput_qps": ("1/s", "higher", 0.02, "sim"),
    "latency_p50_s": ("s", "lower", 0.02, "sim"),
    "latency_p90_s": ("s", "lower", 0.02, "sim"),
    "latency_p95_s": ("s", "lower", 0.02, "sim"),
    "latency_p99_s": ("s", "lower", 0.02, "sim"),
    "post_accuracy": ("ratio", "higher", 0.02, "sim"),
    "energy_j_per_query": ("J", "lower", 0.02, "sim"),
    "fail_rate": ("ratio", "lower", 0.005, "sim"),
    "delivery_ratio": ("ratio", "higher", 0.02, "sim"),
}
ABSOLUTE_BOUND = {"fail_rate"}
SETUP_FLOOR_S = 0.005


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_driver(workload, seed, seconds=None, reps=None, trace=False,
               smoke=False):
    """Runs the driver once and returns its parsed result object."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)] if seconds else ["--reps", str(reps)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        out_dir = os.path.join(BUILD, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                os.path.join(out_dir, f"trace_{workload}_{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"driver exited {proc.returncode}")
    if trace:
        result["trace_file"] = os.path.relpath(cmd[-1], ROOT)
        result["errors"] += check_traced(result, cmd[-1])
        result["correct"] = not result["errors"]
    return result


def check_traced(result, trace_path):
    """The traced run's Chrome trace loads, and its wall-time parts add up:
    net.substrate_s + workload.oracle_s + query_plane.wall_s must equal
    trace.wall_s - setup.warmup_s (query_plane.wall_s is the remainder)."""
    errors = []
    try:
        with open(trace_path) as f:
            if not json.load(f)["traceEvents"]:
                errors.append("Chrome trace has no events")
    except (OSError, ValueError, KeyError) as e:
        errors.append(f"Chrome trace does not load: {e}")
    v = {k: m["value"] for k, m in result["layers"].items()}
    parts = v["net.substrate_s"] + v["workload.oracle_s"] + \
        v["query_plane.wall_s"]
    whole = v["trace.wall_s"] - v["setup.warmup_s"]
    if abs(parts - whole) > 1e-9 * max(abs(whole), 1.0):
        errors.append(f"wall-time parts {parts} != {whole}")
    return errors


def e2e_values(result):
    """Per-metric value lists of one driver result: host metrics per
    repetition, peak RSS once, simulated-time metrics once."""
    values = {}
    for name, series in result["host"].items():
        values[name] = (series["unit"], list(series["values"]))
    for name, m in result["once"].items():
        values[name] = (m["unit"], [m["value"]])
    for name, m in result["sim"].items():
        if name in E2E:
            values[name] = (m["unit"], [m["value"]])
    return values


def summarize(results):
    """Folds one workload's driver results (one process per round) into
    metric summaries, checking that simulated time repeated exactly. A host
    metric's `values` hold one median per process (the runs compare.py
    pairs); `reps` hold every repetition."""
    errors = []
    for r in results:
        errors += r["errors"]
    fingerprints = {r["sim_fingerprint"] for r in results}
    if len(fingerprints) > 1:
        errors.append("simulated-time metrics differ between rounds")
    metrics = {}
    for r in results:
        for name, (unit, vals) in e2e_values(r).items():
            entry = metrics.setdefault(name, {"unit": unit, "values": [],
                                              "reps": []})
            if E2E.get(name, (0, 0, 0, "host"))[3] == "sim":
                entry["values"] = vals
            else:
                entry["values"].append(statistics.median(vals))
                entry["reps"] += vals
    for entry in metrics.values():
        entry["q1"], entry["median"], entry["q3"] = quartiles(entry["values"])
        if not entry["reps"]:
            del entry["reps"]
    return {
        "correct": not errors,
        "runs": sum(r["runs"] for r in results),
        "failed_runs": sum(r["failed_runs"] for r in results),
        "errors": errors[:20],
        "seeds_per_rep": results[0]["seeds_per_rep"],
        "sim_fingerprint": results[0]["sim_fingerprint"],
        "metrics": metrics,
        # Simulated counts behind the metrics (latency_samples,
        # queries_issued, queries_failed, frames, ...).
        "counts": {k: m["value"] for k, m in results[0]["sim"].items()
                   if k not in E2E},
    }


def print_metrics(workload, summary):
    print(f"--- {workload} (seeds/rep {summary['seeds_per_rep']}, "
          f"runs {summary['runs']}, failed {summary['failed_runs']})")
    for name, m in summary["metrics"].items():
        # Quartiles over processes, or over repetitions for one process.
        sample = m["values"] if len(m["values"]) > 1 else m.get("reps", [])
        spread = ""
        if len(sample) > 1:
            q1, _, q3 = quartiles(sample)
            spread = f"  [q1 {q1:.6g}, q3 {q3:.6g}, n={len(sample)}]"
        print(f"  {name:<20} {m['median']:>14.6g} {m['unit']:<6}{spread}")
    for name, value in summary["counts"].items():
        print(f"  {name:<20} {value:>14.6g} count")
    for e in summary["errors"]:
        print(f"  CHECK FAILED: {e}")
    sys.stdout.flush()


def print_layers(workload, result):
    print(f"--- {workload} per-layer (traced run, {result['trace_file']})")
    for name, m in result["layers"].items():
        # The query plane's wall time is a remainder of noisy timings; a
        # negative value means it is below what this run can resolve.
        note = ("  unresolved (negative remainder)"
                if name == "query_plane.wall_s" and m["value"] < 0 else "")
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}{note}")
    sys.stdout.flush()


def provenance(build_type):
    sha = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "build_type": build_type, "host": platform.machine(),
            "date": time.strftime("%Y-%m-%d")}


def missing(wanted, have):
    """BENCHMARK.json metric specs that `have` (name -> {"unit", ...})
    does not report with the declared unit."""
    return [spec for spec in wanted
            if have.get(spec["name"], {}).get("unit") != spec["unit"]]


def contract_run(args, bench):
    result = run_driver(args.workload, args.seed, seconds=args.seconds,
                        trace=bool(args.trace))
    summary = summarize([result])
    print_metrics(args.workload, summary)
    if args.trace:
        wanted = bench["per_layer"]
        have = result["layers"]
        print_layers(args.workload, result)
    else:
        wanted = bench["end_to_end"]
        have = {name: {"value": m["median"], "unit": m["unit"]}
                for name, m in summary["metrics"].items()}
    for spec in missing(wanted, have):
        log(f"run.py: {args.workload} does not report {spec['name']} "
            f"in {spec['unit']}")
        return 1
    metrics = {spec["name"]: {"value": have[spec["name"]]["value"],
                              "unit": spec["unit"]} for spec in wanted}
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["runs"],
                      "failed": summary["failed_runs"],
                      "metrics": metrics}))
    return 0 if summary["correct"] else 1


def full_run(args, bench):
    if args.smoke:
        rounds, reps, trace = 1, 2, True
    else:
        rounds, reps, trace = args.rounds, args.reps, bool(args.trace)
    per_workload = {w: [] for w in WORKLOADS}
    started = time.time()
    for rnd in range(rounds):
        for w in WORKLOADS:
            log(f"round {rnd + 1}/{rounds}: {w}")
            per_workload[w].append(
                run_driver(w, args.seed, reps=reps, smoke=args.smoke))
    traced = {}
    if trace:
        for w in WORKLOADS:
            log(f"traced run: {w}")
            traced[w] = run_driver(w, args.seed, reps=reps, smoke=args.smoke,
                                   trace=True)

    ok = True
    build_type = per_workload[WORKLOADS[0]][0]["build_type"]
    out = {"provenance": provenance(build_type), "seed": args.seed,
           "rounds": rounds, "reps": reps, "smoke": args.smoke,
           "workloads": {}, "traced": {}}
    for w in WORKLOADS:
        summary = summarize(per_workload[w])
        if w in traced:
            t = traced[w]
            if t["sim_fingerprint"] != summary["sim_fingerprint"]:
                summary["errors"].append(
                    "traced run's simulated-time metrics differ")
            summary["errors"] += t["errors"]
            summary["correct"] = not summary["errors"]
            out["traced"][w] = {
                "trace_file": t["trace_file"],
                "layers": {k: v["value"] for k, v in t["layers"].items()},
                "units": {k: v["unit"] for k, v in t["layers"].items()},
            }
        ok = ok and summary["correct"]
        out["workloads"][w] = summary
        print_metrics(w, summary)
    for w in out["traced"]:
        print_layers(w, traced[w])

    if args.smoke:
        ok = check_names(bench, out, traced) and ok
    out["elapsed_s"] = round(time.time() - started, 1)
    path = args.out or os.path.join(BUILD, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)} in {out['elapsed_s']} s; "
          f"correct: {ok}")
    return 0 if ok else 1


def check_names(bench, out, traced):
    """Every BENCHMARK.json metric, with its unit, on every workload."""
    ok = True
    for w in WORKLOADS:
        for kind, have in (("end_to_end", out["workloads"][w]["metrics"]),
                           ("per_layer", traced[w]["layers"])):
            for spec in missing(bench[kind], have):
                print(f"SMOKE: {w} lacks {kind} {spec['name']} "
                      f"[{spec['unit']}]")
                ok = False
    print(f"smoke: BENCHMARK.json names and units {'ok' if ok else 'MISSING'}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out")
    args = p.parse_args()
    bench = load_benchmark_json()
    if args.workload:
        if not args.seconds:
            p.error("--workload needs --seconds")
        return contract_run(args, bench)
    return full_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
