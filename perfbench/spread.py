"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, for the ``run_seconds``
that ``BENCHMARK.json`` sets, and prints each metric's
median and its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  Also
prints the failed share of each run, which must be the same in all of them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    with open(SPEC, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    values, shares = {}, set()
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(Fraction(result["failed"], result["attempted"]))
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print("seed %d correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"], line), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        print("%-12s median %.4f  spread %.3f" % (k, statistics.median(vs), (q3 - q1) / statistics.median(vs)))
    print("failed shares:", ", ".join(str(x) for x in sorted(shares)))


if __name__ == "__main__":
    main()
