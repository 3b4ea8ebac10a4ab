"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at tiny sizes (``--smoke``), untraced and traced,
   and asserts that it exits 0, that its checks pass, and that its last
   line is the result object with every metric of ``BENCHMARK.json`` and
   its unit.
2. Asserts that a sweep writes byte-identical CSV files with 1 and 2
   workers, the program's determinism contract.
3. Asserts that the benchmark fails, printing no result, in a directory
   that holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys

import run  # sets the BLAS thread pins before numpy loads
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check_smoke_runs() -> None:
    for workload in BENCHMARK["workloads"]:
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(run.ROOT, "--workload", workload["name"], "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
            expected = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, (workload["name"], trace, printed)
            for name in expected:
                assert f"  {name} = " in proc.stdout, name
            print(f"ok  smoke {workload['name']} --trace {trace}: {result['attempted']} items checked")


def check_csv_determinism() -> None:
    cli = run.import_program()
    workdir = run.OUT_DIR / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.build("sweep-lam", 7, smoke=True)
        argv = workload.argv(0, workdir)[:-2]
        outputs = []
        for workers in (1, 2):
            out = workdir / f"w{workers}.csv"
            assert cli.main(argv + ["--out", str(out), "--workers", str(workers)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], "sweep CSV differs between 1 and 2 workers"
    finally:
        run.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok  sweep CSV bytes identical with 1 and 2 workers")


def check_fails_without_program() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "markov", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without src/: " + proc.stderr.strip().splitlines()[-1])


if __name__ == "__main__":
    check_smoke_runs()
    check_csv_determinism()
    check_fails_without_program()
