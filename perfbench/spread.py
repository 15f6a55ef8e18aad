"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1,2,3 [--trace 0|1]

Runs ``run.py`` once per listed seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (Q3 - Q1) / median.  A seed listed twice must give the
same value for every count and ratio; any that differ are
printed and the exit code is 1.  The raw results go to
``perfbench/out/spread-<workload>-trace<trace>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(seed, json.dumps(res), flush=True)
        runs.append((seed, res))

    ok = all(r["correct"] for _, r in runs)
    summary = {}
    for name in runs[0][1]["metrics"]:
        vals = [r["metrics"][name]["value"] for _, r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:45s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {summary[name]['spread']:.4f}")
    by_seed = {}
    for seed, res in runs:
        by_seed.setdefault(seed, []).append(res["metrics"])
    for seed, ms in by_seed.items():
        for name, m in ms[0].items():
            if m["unit"] in ("count", "ratio") and any(o[name]["value"] != m["value"] for o in ms[1:]):
                print(f"seed {seed}: {name} does not repeat: "
                      f"{[o[name]['value'] for o in ms]}")
                ok = False
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    print("all runs correct" if ok else "NOT all runs correct / repeatable")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
