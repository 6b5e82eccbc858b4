#!/usr/bin/env python3
"""Same-host A/B comparison of two commits with this benchmark.

    python3 perfbench/ab.py --base REV --head REV [--pairs 10]
        [--workloads lu-large,batch-small] [--seconds S] [--seed0 N]
        [--workdir DIR] [--json OUT] [extra perfbench flags]

Exports each commit with `git archive` into its own directory under
--workdir (a new temporary directory by default, outside the repository),
copies THIS benchmark (perfbench/ and BENCHMARK.json) into both trees so
both sides run identical benchmark code, and builds each with run.py.  Then
it runs every workload in alternating pairs (base first on even pairs, head
first on odd ones); pair i uses seed seed0 + i on both sides.

For each workload and end-to-end metric it reports both sides' median and
quartiles, the fraction of pairs the head won (ties count for neither), and
a verdict:

  better      head wins >= 90% of pairs and the medians differ by more than
              the base's own quartile spread
  worse       head's median is worse than base's by more than the bound
  unresolved  base's quartile spread is wider than the bound, and the two
              sides' runs overlap
  lost        head loses >= 90% of pairs by more than the base's spread,
              but stays within the bound
  same        none of the above

The exit code is 1 when any metric is "worse" or any run failed, else 0.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export(rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.check_call(["tar", "-x", "-C", dest], stdin=archive.stdout)
    if archive.wait() != 0:
        raise SystemExit("ab: git archive %s failed" % rev)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run(tree, workload, seed, seconds, extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    p = subprocess.run(cmd + extra, cwd=tree, env=env, capture_output=True,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
    frac = wins / len(base)
    spread = (b3 - b1) / bm if bm else 0.0
    worse_by = ((hm - bm) if lower else (bm - hm)) / bm if bm else 0.0
    all_better = (max(head) < min(base)) if lower else (min(head) > max(base))
    all_worse = (min(head) > max(base)) if lower else (max(head) < min(base))
    losses = sum(1 for b, h in zip(base, head) if (h > b if lower else h < b))
    clear = abs(hm - bm) > (b3 - b1)
    if frac >= 0.9 and clear:
        v = "better"
    elif spread > bound and not (all_better or all_worse):
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif losses / len(base) >= 0.9 and clear:
        v = "lost"
    else:
        v = "same"
    return {"base": [b1, bm, b3], "head": [h1, hm, h3], "head_won": frac,
            "base_spread": spread, "bound": bound, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workdir", default="")
    ap.add_argument("--json", default="")
    args, extra = ap.parse_known_args()
    if args.pairs < 10:
        print("ab: note: fewer than 10 pairs cannot support a claim",
              file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    work = args.workdir or tempfile.mkdtemp(prefix="perfbench-ab-")
    trees = {"base": os.path.join(work, "base"),
             "head": os.path.join(work, "head")}
    for side, rev in (("base", args.base), ("head", args.head)):
        export(rev, trees[side])

    report = {"base": args.base, "head": args.head, "pairs": args.pairs,
              "seconds": seconds, "workloads": {}}
    failed = False
    for w in workloads:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                r = run(trees[side], w, args.seed0 + i, seconds, extra)
                if r is None or not r["correct"]:
                    failed = True
                runs[side].append(r)
            print("ab: %s pair %d/%d done" % (w, i + 1, args.pairs),
                  file=sys.stderr)
        ok = [i for i in range(args.pairs)
              if runs["base"][i] and runs["head"][i]]
        row = {"failed_share": {
            s: [r["failed"] / r["attempted"] if r else None for r in runs[s]]
            for s in runs}, "metrics": {}}
        if ok:
            for m in bench["end_to_end"]:
                b = [runs["base"][i]["metrics"][m["name"]]["value"] for i in ok]
                h = [runs["head"][i]["metrics"][m["name"]]["value"] for i in ok]
                row["metrics"][m["name"]] = verdict(m, b, h)
                failed |= row["metrics"][m["name"]]["verdict"] == "worse"
        report["workloads"][w] = row

        print("\n%s  (%d/%d pairs ran)" % (w, len(ok), args.pairs))
        print("  %-18s %-32s %-32s %5s %7s  %s" %
              ("metric", "base q1 / median / q3", "head q1 / median / q3",
               "won", "spread", "verdict"))
        for name, v in row["metrics"].items():
            print("  %-18s %-32s %-32s %5.2f %7.3f  %s" %
                  (name, " / ".join("%.5g" % x for x in v["base"]),
                   " / ".join("%.5g" % x for x in v["head"]), v["head_won"],
                   v["base_spread"], v["verdict"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
    print("\nab: trees and builds kept in %s" % work)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
