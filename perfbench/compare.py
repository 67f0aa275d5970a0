#!/usr/bin/env python3
"""Compares benchmark runs of two commits (or two sets of one commit).

Run pairs and compare (each side is a checkout holding perfbench/):

    python3 perfbench/compare.py run --base ../parent --head . \\
        --pairs 10 --save pairs.jsonl [--workloads w1,w2] [--seed0 100]

Compare saved runs again, or check one set's own spread:

    python3 perfbench/compare.py report pairs.jsonl
    python3 perfbench/compare.py spread runs.jsonl

Pair i runs seed seed0 + i on both sides, alternating which side runs
first.  For every workload and end-to-end metric the report prints each
side's median and quartiles, the share of pairs the head wins (ties
count for neither), and a verdict, with the bounds of BENCHMARK.json:

  better      head wins >= 9 of 10 pairs and the medians differ by more
              than the base's own quartile spread
  worse       head's median is worse than the base's by more than the bound
  unresolved  the base's quartile spread is wider than the bound (unless
              every head run beats every base run: then better)
  same        none of the above
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, spec, workload, seed, trace=0):
    cmd = [spec["command"][0]] + [os.path.join(checkout, a) if a.endswith(".py")
                                  else a for a in spec["command"][1:]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("run failed in %s (%s seed %d):\n%s" %
                 (checkout, workload, seed, done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def metric_values(records, side, workload, name):
    return [r["result"]["metrics"][name]["value"] for r in records
            if r["side"] == side and r["workload"] == workload]


def verdict(base, head, bound, lower_is_better):
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    better = (lambda h, b: h < b) if lower_is_better else (lambda h, b: h > b)
    wins = sum(1 for h, b in zip(head, base) if better(h, b))
    share = wins / len(base)
    worse_by = (hm - bm) / bm if lower_is_better else (bm - hm) / bm
    all_better = all(better(h, b) for h in head for b in base)
    if share >= 0.9 and abs(hm - bm) > (b3 - b1) and better(hm, bm):
        return share, "better"
    if (b3 - b1) / bm > bound:
        return share, "better" if all_better else "unresolved"
    if worse_by > bound:
        return share, "worse"
    return share, "same"


def report(records, spec):
    failed_share = {}
    for r in records:
        key = (r["side"], r["workload"])
        att, fail = failed_share.get(key, (0, 0))
        failed_share[key] = (att + r["result"]["attempted"],
                             fail + r["result"]["failed"])
    print("%-20s %-20s %12s %25s %12s %25s %5s  %s" %
          ("workload", "metric", "base median", "base q1..q3", "head median",
           "head q1..q3", "wins", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        if not any(r["workload"] == name for r in records):
            continue
        for m in spec["end_to_end"]:
            base = metric_values(records, "base", name, m["name"])
            head = metric_values(records, "head", name, m["name"])
            if not base or not head:
                continue
            share, v = verdict(base, head, m["bound"], m["better"] == "lower")
            b1, bm, b3 = quartiles(base)
            h1, hm, h3 = quartiles(head)
            print("%-20s %-20s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %5.2f  %s"
                  % (name, m["name"], bm, b1, b3, hm, h1, h3, share, v))
        for side in ("base", "head"):
            att, fail = failed_share.get((side, name), (0, 0))
            if att:
                print("%-20s %s failed %d of %d operations" % (name, side, fail, att))


def print_spread(records, spec):
    for w in spec["workloads"]:
        runs = [r for r in records if r["workload"] == w["name"]]
        if not runs:
            continue
        print("%s: %d runs, correct in %d" % (
            w["name"], len(runs), sum(r["result"]["correct"] for r in runs)))
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            flag = "ok" if s <= m["bound"] / 3 else (
                "ok(setup)" if m["name"] == "setup_s" else "WIDE")
            print("  %-20s median %-12.5g q1 %-12.5g q3 %-12.5g spread %.4f "
                  "(bound %.2f) %s" % (m["name"], q2, q1, q3, s, m["bound"], flag))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--base", required=True)
    run.add_argument("--head", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed0", type=int, default=100)
    run.add_argument("--workloads")
    run.add_argument("--save", required=True)
    for mode in ("report", "spread"):
        p = sub.add_parser(mode)
        p.add_argument("files", nargs="+")
    args = parser.parse_args()

    spec = load_spec(os.path.dirname(HERE))
    if args.mode == "run":
        if args.pairs < 10:
            sys.exit("at least ten pairs are needed for a verdict")
        names = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
        records = []
        with open(args.save, "a") as out:
            for name in names:
                for i in range(args.pairs):
                    seed = args.seed0 + i
                    order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                    for side in order:
                        root = args.base if side == "base" else args.head
                        rec = {"side": side, "workload": name, "seed": seed,
                               "result": run_once(os.path.abspath(root), spec,
                                                  name, seed)}
                        records.append(rec)
                        out.write(json.dumps(rec) + "\n")
                        out.flush()
        report(records, spec)
        return
    records = []
    for path in args.files:
        with open(path) as f:
            records += [json.loads(line) for line in f if line.strip()]
    if args.mode == "report":
        report(records, spec)
    else:
        print_spread(records, spec)


if __name__ == "__main__":
    main()
