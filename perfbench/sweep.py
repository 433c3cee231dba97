#!/usr/bin/env python3
"""Repeat the benchmark over seeds and judge its figures against the bounds.

    python3 perfbench/sweep.py [--workloads stream,train] [--runs 10]
        [--seed0 1] [--out sweep.json] [--against earlier.json]

Run it from the root of a checkout. For each workload it runs
`perfbench/run.py` once per seed (seed0, seed0 + 1, ...) and reports, for
every end-to-end metric, the median and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share of
the median. A spread above the metric's bound in BENCHMARK.json fails, except
for setup_s: its bound guards against work moved into set-up, which shifts the
median, so only its median is judged, against an earlier sweep. With --against, each median is also compared with the same
metric's median in an earlier sweep; a median worse by more than the bound is
a regression. Exit status 1 means some check failed.
"""
import argparse
import json
import statistics
import subprocess
import sys


def summarize(values):
    """Median, quartiles and relative spread of one metric's values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "n": len(values)}


def worse_by(old, new, better):
    """How much worse `new` is than `old`, as a share of `old`; negative when better."""
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def spread_failures(summaries, spec):
    """Metrics whose spread exceeds their bound (setup_s is exempt: only its
    median is judged, by `regressions`)."""
    out = []
    for m in spec["end_to_end"]:
        s = summaries.get(m["name"])
        if s is not None and m["name"] != "setup_s" and s["spread"] > m["bound"]:
            out.append(f"{m['name']}: spread {s['spread']:.4f} > bound {m['bound']}")
    return out


def regressions(old, new, spec):
    """Metrics whose median in `new` is worse than in `old` by more than the bound."""
    out = []
    for m in spec["end_to_end"]:
        if m["name"] in old and m["name"] in new:
            w = worse_by(old[m["name"]]["median"], new[m["name"]]["median"], m["better"])
            if w > m["bound"]:
                out.append(f"{m['name']}: worse by {w:.4f} > bound {m['bound']}")
    return out


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--against")
    a = ap.parse_args()

    earlier = {}
    if a.against:
        with open(a.against) as f:
            earlier = json.load(f)
    sweep, problems = {}, []
    for w in a.workloads.split(","):
        results = []
        for i in range(a.runs):
            results.append(run_once(spec, w, a.seed0 + i))
            print(f"{w} seed {a.seed0 + i}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
        for i, r in enumerate(results):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} seed {a.seed0 + i}: correct={r['correct']} failed={r['failed']}")
        names = [m["name"] for m in spec["end_to_end"]]
        sweep[w] = {n: summarize([r["metrics"][n]["value"] for r in results]) for n in names}
        sweep[w]["_values"] = {n: [r["metrics"][n]["value"] for r in results] for n in names}
        problems += [f"{w} {p}" for p in spread_failures(sweep[w], spec)]
        if w in earlier:
            problems += [f"{w} {p}" for p in regressions(earlier[w], sweep[w], spec)]
        for n in names:
            s = sweep[w][n]
            print(f"{w:6s} {n:18s} median {s['median']:14.4f}  q1 {s['q1']:14.4f}  "
                  f"q3 {s['q3']:14.4f}  spread {s['spread']:.4f}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump(sweep, f, indent=1)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
