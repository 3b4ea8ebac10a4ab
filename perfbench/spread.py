"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads point-so40 markov --seeds 1-10 [--trace 1] [--out FILE]

Runs ``run.py`` once per workload and seed, one after another, and
prints for every metric the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, that
is (Q3 - Q1) / median.  ``--out`` writes the same summary, with every
value, as JSON; ``baseline.json`` was made this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        metrics: dict[str, list[float]] = {}
        units = {}
        runs = []
        for seed in seeds_from(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next(json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("environment: "))
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if not n.endswith(".calls")
            ), flush=True)
        report[workload] = {
            "environment": env,
            "runs": runs,
            "metrics": {name: {"unit": units[name], **summary(v)} for name, v in metrics.items()},
        }
        for name, s in report[workload]["metrics"].items():
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"Q1 {s['q1']:.6g}, Q3 {s['q3']:.6g}, spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
