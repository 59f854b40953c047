#!/usr/bin/env python3
"""Repeat phasebench runs and summarize them. Run from the repository root.

Seed sweep (each end-to-end metric's median, quartiles, and spread
(q3 - q1) / median, checked against a third of its bound):

    python3 bench/runs.py sweep --seeds 1-10 [--workloads a,b] [--seconds N] [--records FILE]

Baseline (two sets at seed 1; a set is, per workload, --runs untraced runs
reduced to their medians plus one traced run for the per-layer metrics and
the output digests):

    python3 bench/runs.py baseline --out bench/results/baseline.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SPEC = json.load(open("BENCHMARK.json"))


def run(workload, seed, seconds, trace):
    """One run of the benchmark command; returns the -out record."""
    os.makedirs(".bench_build", exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=".bench_build", suffix=".json") as f:
        cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace),
                                 "--out", os.path.abspath(f.name)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
        last = json.loads(p.stdout.strip().splitlines()[-1])
        rec = json.load(open(f.name))
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if sorted(last["metrics"]) != sorted(names) or not last["correct"]:
        sys.exit(f"{workload} seed {seed}: bad result line {last}")
    print(f"  {workload} seed={seed} trace={trace}: "
          + " ".join(f"{n}={last['metrics'][n]['value']:.6g}" for n in names[:6]),
          file=sys.stderr)
    return rec


def value(rec, name):
    return rec["metrics"][name]["value"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(args):
    ok = True
    for w in args.workloads:
        recs = [run(w, s, args.seconds, 0) for s in seeds(args.seeds)]
        if args.records:
            with open(args.records, "a") as f:
                for r in recs:
                    f.write(json.dumps(r) + "\n")
        for m in SPEC["end_to_end"]:
            q1, med, q3 = statistics.quantiles([value(r, m["name"]) for r in recs], n=4)
            spread = (q3 - q1) / med
            rq1, rmed, rq3 = statistics.quantiles([value(r, "raw." + m["name"]) for r in recs], n=4)
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            ok &= flag == "ok"
            print(f"{w:18} {m['name']:24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {100 * spread:5.2f}% (raw {100 * (rq3 - rq1) / rmed:5.2f}%) "
                  f"bound {100 * m['bound']:.0f}% {flag}")
    return 0 if ok else 1


def baseline(args):
    sets = []
    for i in range(2):
        print(f"set {i + 1}", file=sys.stderr)
        s = {}
        for w in args.workloads:
            recs = [run(w, 1, args.seconds, 0) for _ in range(args.runs)]
            traced = run(w, 1, args.seconds, 1)
            s[w] = {
                "stamp": traced["stamp"],
                "end_to_end": {m["name"]: statistics.median(value(r, m["name"]) for r in recs)
                               for m in SPEC["end_to_end"]},
                "traced": {n: v["value"] for n, v in traced["metrics"].items()},
                # Batch output digests; service replies are checked against
                # the reference pipeline inside every run instead.
                "digests": traced["digests"] or {},
            }
        sets.append(s)
    spread, ok = {}, True
    for w in args.workloads:
        a, b = sets[0][w], sets[1][w]
        spread[w] = {}
        for m in SPEC["end_to_end"]:
            x, y = a["end_to_end"][m["name"]], b["end_to_end"][m["name"]]
            d = abs(x - y) / x
            spread[w][m["name"]] = d
            ok &= d <= m["bound"]
        for n, v in a["traced"].items():
            exact = n.startswith(("uarch.", "simpoint.cpi_err", "simpoint.sim", "simpoint.phase_cov"))
            ok &= not exact or v == b["traced"][n]
        ok &= a["digests"] == b["digests"]
    out = {"runs_per_set": args.runs, "seconds": args.seconds, "sets": sets,
           "spread": spread, "sets_agree": ok}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}; sets agree within bounds and exact metrics match: {ok}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["sweep", "baseline"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--out", default="bench/results/baseline.json")
    ap.add_argument("--records", help="sweep: also append every run's full --out record to this file")
    args = ap.parse_args()
    args.workloads = args.workloads.split(",")
    return sweep(args) if args.mode == "sweep" else baseline(args)


if __name__ == "__main__":
    sys.exit(main())
