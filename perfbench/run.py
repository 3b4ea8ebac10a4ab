"""Benchmark entry point for qdmr.

    python3 perfbench/run.py --workload point-so40 --seed 1 --seconds 15 --trace 0

Runs one workload (see ``workloads.py``) against the package under
``src/`` of the checkout this file sits in, for about ``--seconds``
seconds, and checks every output.  It prints each metric by name with
its unit and a record of the environment, then, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics; ``--trace 1``
runs half the time untraced and half traced and gives the per-layer
metrics, including the tracing overhead.  Each result is also appended
to ``.perfbench_out/results.jsonl``.
"""

import os

# one BLAS thread in this process and in every process it starts: this is
# how sweep workers run, and it keeps timings independent of the schedule
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 6
# a fresh interpreter that imports the whole command line and parses the
# workload's config: everything `qdmr point` does before its first solve
SETUP_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); from qdmr import cli; cli.load_config(sys.argv[2])"
MAX_PROBLEMS_SHOWN = 20


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def import_program():
    if not (SRC / "qdmr" / "__init__.py").is_file():
        raise BenchError(f"no qdmr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdmr.cli

    if Path(qdmr.cli.__file__).resolve().parent != SRC / "qdmr":
        raise BenchError(f"imported qdmr from {qdmr.cli.__file__}, not from {SRC}")
    return qdmr.cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = None  # a repository around the checkout, not this one
    except (OSError, ValueError, subprocess.CalledProcessError):
        sha = None  # the checkout is not a git repository
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdmr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_pins": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def stop_children() -> None:
    """Waits for every process the run started, so none outlives it.

    The sweep pool joins its workers itself, but the spawn context also
    starts multiprocessing's resource tracker, which would otherwise stay
    until this process exits and then end as an orphan.
    """
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


class SetupProbes:
    """Times fresh interpreters between operations, spread over the whole run.

    The host's speed drifts over seconds, so probes taken back to back
    would all see one moment of it; their median over the run is steadier.
    """

    def __init__(self, ini: Path) -> None:
        self.ini = ini
        self.times: list[float] = []

    def keep_up(self, done_share: float) -> None:
        """Probes until their count matches the share of the run that is done."""
        while len(self.times) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * done_share)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(self.ini)], cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            self.times.append(time.perf_counter() - start)


class Runner:
    """Runs operations of one workload and tallies their checks."""

    def __init__(self, workload, workdir: Path, reference, checker, tracer) -> None:
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.checker = checker
        self.tracer = tracer
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.worker_dumps: list[dict] = []
        self.outputs: dict[str, object] = {}  # last outputs of each input, by index

    def pool(self, *args, **kwargs):
        """Stands in for the sweep's ProcessPoolExecutor: same pool, plus the worker hooks."""
        return ProcessPoolExecutor(
            *args, initializer=tracing.worker_init,
            initargs=(str(self.workdir), self.tracer.enabled), **kwargs,
        )

    def run(self, seconds: float, between=None) -> list[float]:
        """Closed loop: start operations until ``seconds`` have passed (at least one).

        ``between``, if given, is called after each operation with the
        share of ``seconds`` done; the time it takes does not count.
        """
        walls = []
        start = time.perf_counter()
        paused = 0.0
        while not walls or time.perf_counter() - start - paused < seconds:
            argv = self.workload.argv(self.index, self.workdir)
            self.checker.clear()
            began = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = sys.modules["qdmr.cli"].main(argv)
            except Exception as exc:  # a crash of the program is a failed operation
                rc = None
                outcome = workloads.Outcome(1, 1, [f"raised {type(exc).__name__}: {exc}"])
            walls.append(time.perf_counter() - began)
            dumps = tracing.read_worker_dumps(self.workdir)
            self.worker_dumps += dumps
            key = str(self.index % len(self.workload.inputs))
            if rc is not None:
                self.checker.records += [r for d in dumps for r in d["checks"]]
                reference = None if self.reference is None else self.reference[key]
                try:
                    outcome = workloads.check(self.workload, self.index, self.workdir, rc, self.checker, reference)
                except (OSError, KeyError, ValueError, IndexError) as exc:  # missing or malformed output
                    outcome = workloads.Outcome(1, 1, [f"unreadable output: {type(exc).__name__}: {exc}"])
                self.outputs[key] = outcome.outputs
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.problems += [f"{self.workload.name}[{self.index}] {p}" for p in outcome.problems]
            self.index += 1
            if between is not None:
                began = time.perf_counter()
                between((began - start - paused) / seconds)
                paused += time.perf_counter() - began
        return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    try:
        import_program()
        if args.workload not in workloads.NAMES:
            raise BenchError(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")
        workload = workloads.build(args.workload, args.seed, args.smoke)
        reference = workloads.load_reference(args.workload, args.seed, args.smoke)
        env = environment()
    except (BenchError, ImportError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tracer = tracing.Tracer(enabled=False)
        if args.trace:
            tracer.install()
        checker = tracing.OutputChecker()  # outermost, so check time stays out of the spans
        checker.install()
        runner = Runner(workload, workdir, reference, checker, tracer)
        sys.modules["qdmr.sweep"].ProcessPoolExecutor = runner.pool
        if workload.command != "sweep":
            # one untimed operation first: it maps the memory and finishes
            # the lazy set-up that later operations in this process reuse;
            # a sweep starts new workers every time, so it has none to warm
            runner.run(0.0)

        if args.trace:
            untraced = runner.run(args.seconds / 2)
            tracer.enabled = True
            worker_dumps_before = len(runner.worker_dumps)
            traced = runner.run(args.seconds / 2)
            metrics = tracing.layer_metrics(
                tracer.dump(), runner.worker_dumps[worker_dumps_before:], len(traced),
                workloads.WORKERS, traced, untraced,
            )
            samples = f"{len(untraced)} untraced and {len(traced)} traced operations"
            record_extra = {"untraced_walls_s": untraced, "traced_walls_s": traced}
        else:
            config_argv = workload.argv(0, workdir)
            probes = SetupProbes(Path(config_argv[config_argv.index("--config") + 1]))
            walls = runner.run(args.seconds, between=probes.keep_up)
            setup = probes.times
            usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "op_s": {"value": statistics.median(walls), "unit": "s"},
                "peak_rss_mb": {"value": usage / 1024.0, "unit": "MB"},
            }
            samples = f"{len(walls)} operations, {len(setup)} setup probes"
            record_extra = {"op_walls_s": walls, "setup_walls_s": setup}
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: setup probe failed: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}, {samples}; "
          f"{runner.failed} of {runner.attempted} checked items failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"args": vars(args), "environment": env, "result": result, **record_extra}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
