"""The benchmark workloads (perfbench/workloads.py) write INI files for
qdmr to load; every one of them must load under the config schema, and
its [sweep] lines must come back in the CSV metadata."""

import importlib.util
import sys
from pathlib import Path

import pytest

from qdmr.configfile import load_config
from qdmr.sweep import _metadata_lines

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("smoke", [False, True])
def test_every_workload_input_loads_and_echoes_its_sweep_lines(workloads, smoke, tmp_path):
    for name in workloads.NAMES:
        for index, (config, sweep_lines) in enumerate(workloads.build(name, workloads.DEFAULT_SEED, smoke).inputs):
            path = tmp_path / f"{name}-{index}.ini"
            path.write_text(workloads._ini_text(config, sweep_lines))
            loaded, spec = load_config(path)
            assert loaded == config, (name, index)
            assert (spec is None) == (sweep_lines is None), (name, index)
            if spec is None:
                continue
            written = dict(line.split(" = ", 1) for line in sweep_lines)
            assert spec.workers == int(written.pop("workers"))  # not echoed: the CSV is worker-count independent
            echoed = dict(
                line.removeprefix("# sweep.").split(" = ", 1)
                for line in _metadata_lines(config, spec)
                if line.startswith("# sweep.")
            )
            assert echoed == {key: value.replace(" ", "") for key, value in written.items()}, (name, index)
