"""Record the reference outputs of every workload for the default seed.

    python3 perfbench/record_reference.py

Runs each input of each workload once at full size and writes
``perfbench/reference.json``.  Later runs with the default seed compare
their outputs against it (see ``workloads.py`` for the tolerances).
Refuses to write when any output check fails.  Record it only from a
commit whose outputs are known good; a change that claims a speed-up
must not re-record it.
"""

import json
import shutil
import sys

import run  # sets the BLAS thread pins before numpy loads
import tracing
import workloads


def main() -> int:
    run.import_program()

    recorded = {}
    workdir = run.OUT_DIR / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        checker = tracing.OutputChecker()
        checker.install()
        for name in workloads.NAMES:
            workload = workloads.build(name, workloads.DEFAULT_SEED)
            runner = run.Runner(workload, workdir, None, checker, tracing.Tracer(enabled=False))
            sys.modules["qdmr.sweep"].ProcessPoolExecutor = runner.pool
            for _ in workload.inputs:
                runner.run(0.0)
            if runner.failed:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            recorded[name] = runner.outputs
            print(f"{name}: {len(runner.outputs)} inputs recorded")
    finally:
        run.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
