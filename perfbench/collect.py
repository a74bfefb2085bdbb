"""Run every workload on ten seeds and write the numbers to a file.

    python3 perfbench/collect.py --out perfbench/baseline.json

Each run is its own process, as ``run.py`` is meant to be called, for
``run_seconds`` of BENCHMARK.json, on seeds 21 to 30.  For each workload
and end-to-end metric the file holds the ten values, their median and
quartiles, and the spread (interquartile distance over the median) that
BENCHMARK.json's bounds are judged against.  One traced run per workload
adds the per-layer metrics and each layer's share of the loop time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(21, 31)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    prov = next((json.loads(line[len("provenance "):]) for line in lines
                 if line.startswith("provenance ")), None)
    return json.loads(lines[-1]), prov


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in [w["name"] for w in bench["workloads"]]:
        runs, prov = [], None
        for seed in SEEDS:
            result, prov = run_once(name, seed, seconds, 0)
            runs.append(result)
            print(name, seed, json.dumps(result), flush=True)
        traced, _ = run_once(name, SEEDS[0], seconds, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        loop = layer["loop_ms"]
        report["provenance"] = prov
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and
            traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: spread([r["metrics"][m["name"]]["value"]
                                   for r in runs])
                for m in bench["end_to_end"]},
            "per_layer": layer,
            "layer_share": {
                k.split(".")[0]: v / loop for k, v in layer.items()
                if (k.endswith(".self_ms") and not k.startswith("setup."))
                or k == "untraced_ms"},
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
