#!/usr/bin/env python3
"""Steadiness record of the end-to-end benchmark.

    python3 perfbench/steadiness.py [--sets N] [--seeds K]
                                    [--workloads a,b] [--out FILE]

Runs N sets; a set runs every workload once per seed 1..K (run.py with
BENCHMARK.json's run_seconds, tracing off).  For each workload and
end-to-end metric it reports every set's median and quartiles, the spread
(interquartile distance over the median, as statistics.quantiles(n=4)
gives the quartiles), and the set-to-set drift (how much worse the worst
later set median is than the first, as a share of the first).  Spreads
(except setup_s) and drifts are compared with the metric's bound.  The raw
values and the summary are written as JSON to --out.  Exits 1 when a run
fails its output checks.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return {"median": centre, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / centre if centre else 0.0}


def worse_by(first, later, better):
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=str(ROOT / ".bench_build" /
                                             "steadiness.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    raw = {w: [] for w in workloads}
    started = time.time()
    for s in range(args.sets):
        for w in workloads:
            runs = [run_once(w, seed, args.seconds)
                    for seed in range(1, args.seeds + 1)]
            raw[w].append(runs)
            print(f"set {s + 1} {w}: run_s " +
                  " ".join(f"{r['run_s']:.4f}" for r in runs), flush=True)

    summary = {}
    steady = True
    for w in workloads:
        summary[w] = {}
        for m in metrics:
            name = m["name"]
            sets = [summarize([r[name] for r in runs]) for runs in raw[w]]
            drift = max([0.0] + [worse_by(sets[0]["median"], x["median"],
                                          m["better"]) for x in sets[1:]])
            spread = max(x["spread"] for x in sets)
            ok = drift <= m["bound"] and (name == "setup_s" or
                                          spread <= m["bound"])
            steady &= ok
            summary[w][name] = {"sets": sets, "max_spread": spread,
                                "drift": drift, "bound": m["bound"],
                                "within_bound": ok,
                                "below_third_of_bound":
                                    drift < m["bound"] / 3 and
                                    spread < m["bound"] / 3}
            medians = " ".join(f"{x['median']:.6g}" for x in sets)
            print(f"{w:12s} {name:17s} medians {medians:32s} "
                  f"spread {spread:.4f} drift {drift:+.4f} "
                  f"bound {m['bound']:.2f} {'ok' if ok else 'OVER'}")

    out = {"run_seconds": args.seconds, "sets": args.sets,
           "seeds": list(range(1, args.seeds + 1)),
           "wall_s": round(time.time() - started, 1),
           "within_bounds": steady, "summary": summary, "raw": raw}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}; every metric within its bound: {steady}")


if __name__ == "__main__":
    main()
