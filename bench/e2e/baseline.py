#!/usr/bin/env python3
"""Records the benchmark's baseline: sets of untraced runs over many seeds.

    python3 bench/e2e/baseline.py [--sets 2] [--seeds 1-10] [--out FILE]
    python3 bench/e2e/baseline.py --from FILE [--out FILE]

Run from the repository root. Each set runs every workload of
BENCHMARK.json once per seed (seed-major, so drift of the host over a set
reaches every workload alike) with BENCHMARK.json's run_seconds, and
reports, per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median. The summary
also gives the shift of each later set's median from the first set's, and
flags a spread above the metric's bound or a third of it, and a shift above
the bound. The raw result lines go into the output file beside the summary;
--from summarizes the runs recorded in such a file again, against the
bounds BENCHMARK.json now holds, without running anything. Exits 1 when
any run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return result


def record_set(bench, number, seeds):
    runs = {w["name"]: [] for w in bench["workloads"]}
    for seed in seeds:
        for w in runs:
            result = run_once(bench["command"], w, seed, bench["run_seconds"])
            runs[w].append({"seed": seed, **result})
            print(f"set {number} {w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    return runs


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", default=".bench_out/baseline.json")
    parser.add_argument("--from", dest="recorded")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    if args.recorded:
        with open(args.recorded) as f:
            recorded = json.load(f)
        seeds, run_seconds = recorded["seeds"], recorded["run_seconds"]
        sets = recorded["runs"]
    else:
        seeds, run_seconds = args.seeds, bench["run_seconds"]
        sets = [record_set(bench, s + 1, seeds) for s in range(args.sets)]

    summary = {}
    for w in workloads:
        summary[w] = {}
        for m in metrics:
            metric, bound = m["name"], m["bound"]
            per_set = [summarize([r["metrics"][metric]["value"]
                                  for r in runs[w]]) for runs in sets]
            first = per_set[0]["median"]
            shifts = [p["median"] / first - 1.0 for p in per_set[1:]]
            worse = 1.0 if m["better"] == "lower" else -1.0
            flags = []
            widest = max(p["spread"] for p in per_set)
            if metric != "setup_s" and widest > bound:
                flags.append("spread above bound")
            elif metric != "setup_s" and widest > bound / 3:
                flags.append("spread above bound/3")
            if any(worse * x > bound for x in shifts):
                flags.append("shift above bound")
            summary[w][metric] = {"bound": bound, "sets": per_set,
                                  "shift": shifts, "flags": flags}
            print(f"{w:20s} {metric:16s} " + " ".join(
                f"med {p['median']:.4g} spread {p['spread']:.3f}"
                for p in per_set) + "".join(f" shift {x:+.3f}" for x in shifts)
                + (" [" + "; ".join(flags) + "]" if flags else ""))

    with open(args.out, "w") as f:
        json.dump({"seeds": seeds, "run_seconds": run_seconds,
                   "summary": summary, "runs": sets}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
