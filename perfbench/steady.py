#!/usr/bin/env python3
"""Steadiness, tracing-overhead and repeat checks for the benchmark.

Run from the root of the repository:

  python3 perfbench/steady.py [--workloads sweep,stream,serve,raster]
      [--runs 10] [--seed 1] [--second-seed 1001] [--seconds S]
      [--overhead] [--repeat-check]

For each workload it runs the benchmark --runs times on consecutive
seeds from --seed, and again from --second-seed, and prints each
end-to-end metric's median and quartiles (statistics.quantiles, n=4) for
both sets.  It flags a metric whose spread (third minus first quartile,
over the median) exceeds the bound in BENCHMARK.json (setup_s excepted),
and a metric whose second-set median is worse than the first by more
than its bound.  --second-seed 0 runs only the first set, a quicker
look while tuning.

--overhead also makes one traced run per seed of the first set and
reports how the traced run's end-to-end metrics differ from the
untraced medians: the tracing overhead.

--repeat-check runs each in-process workload (sweep, stream, raster)
traced twice on one seed and requires the per-operation work counters
(allocated words, synthesis node counts, ...) to repeat exactly.

Exit status is non-zero when anything is flagged or any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUN = ["bash", "perfbench/run.sh"]


def run(workload, seed, seconds, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1]), lines


def traced_e2e(lines):
    """The end-to-end metrics a traced run prints before its per-layer ones."""
    out, on = {}, False
    for line in lines:
        if line.startswith("end-to-end metrics of this traced run"):
            on = True
        elif line.startswith("per-layer metrics"):
            break
        elif on:
            name, value, _unit = line.split()
            out[name] = float(value)
    return out


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    d = (second - first) / first
    return d if better == "lower" else -d


def steadiness(bench, workloads, runs, seed, second_seed, seconds, overhead):
    flagged = False
    for w in workloads:
        sets = []
        for start in [s for s in (seed, second_seed) if s]:
            results = []
            for s in range(start, start + runs):
                res, _ = run(w, s, seconds, 0)
                if not res["correct"] or res["failed"]:
                    print(f"{w} seed {s}: output check failed ({res['failed']} of {res['attempted']})")
                    flagged = True
                results.append(res["metrics"])
            sets.append(results)
        print(f"\n== {w}: {runs} runs from seed {seed} and from seed {second_seed}")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'median2':>12} {'spread2':>8} {'worse':>7} {'bound':>6}")
        medians = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = []
            for results in sets:
                vals = [r[name]["value"] for r in results]
                q1, q2, q3 = quartiles(vals)
                rows.append((q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0))
            medians[name] = rows[0][0]
            if len(rows) == 1:
                rows.append(rows[0])
            worse = worse_by(rows[0][0], rows[1][0], m["better"])
            notes = []
            spread = max(rows[0][3], rows[1][3])
            if name != "setup_s" and spread > bound:
                notes.append("SPREAD>BOUND")
            elif name != "setup_s" and spread > bound / 3:
                notes.append("spread>bound/3")
            if worse > bound:
                notes.append("MEDIANS DIFFER")
            if any(n.isupper() for n in notes):
                flagged = True
            print(f"  {name:24} {rows[0][0]:12.6g} {rows[0][1]:12.6g} {rows[0][2]:12.6g} "
                  f"{rows[0][3]:8.4f} {rows[1][0]:12.6g} {rows[1][3]:8.4f} {worse:7.4f} "
                  f"{bound:6.3f} {' '.join(notes)}")
        if overhead:
            traced = [traced_e2e(run(w, s, seconds, 1)[1]) for s in range(seed, seed + runs)]
            print(f"  tracing overhead ({runs} traced runs vs the untraced medians):")
            for m in bench["end_to_end"]:
                name = m["name"]
                t = statistics.median(r[name] for r in traced)
                base = medians[name]
                rel = (t - base) / base if base else 0.0
                print(f"    {name:24} traced {t:12.6g} untraced {base:12.6g} ({rel:+.2%})")
    return flagged


def repeat_check(workloads, seed, seconds):
    flagged = False
    for w in workloads:
        if w == "serve":
            continue  # its work happens in the daemon, not in this process
        dumps = []
        for _ in range(2):
            run(w, seed, seconds, 1)
            with open(f".perfbench/counters-{w}-{seed}.txt") as f:
                dumps.append(f.read().splitlines())
        n = min(len(dumps[0]), len(dumps[1]))
        diff = [i for i in range(n) if dumps[0][i] != dumps[1][i]]
        status = "repeat exactly" if n and not diff else "DIFFER"
        print(f"{w}: {n} operations compared, counters {status}")
        for i in diff[:5]:
            print(f"  first run : {dumps[0][i]}\n  second run: {dumps[1][i]}")
        flagged |= bool(diff) or n == 0
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int, default=1001)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--repeat-check", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    if args.runs < 2:
        raise SystemExit("need --runs >= 2 for quartiles")
    flagged = False
    if args.repeat_check:
        flagged |= repeat_check(workloads, args.seed, seconds)
    else:
        flagged |= steadiness(bench, workloads, args.runs, args.seed, args.second_seed,
                              seconds, args.overhead)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
