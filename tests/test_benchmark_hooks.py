"""The benchmark tracer (perfbench/tracing.py) wraps qdmr functions by name
and reads fields of their results; a refactor must keep both."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qdmr import redfield
from qdmr.sweep import run_point

from conftest import make_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable(tracing):
    sites = [(module, attr) for module, attr, _ in tracing.SPAN_SITES]
    sites += [("qdmr.phasespace", "husimi"), ("qdmr.leads", "rate_out")]
    for module, attr in sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_results_carry_the_fields_the_tracer_reads(tracing):
    config = make_config(n_cut=6)
    tensors = tuple(redfield.build_tensors(config, lead) for lead in config.leads)
    liou = redfield.assemble_liouvillian(config, tensors)
    assert liou.n_cut == 6
    result = redfield.steady_state(liou)
    assert isinstance(result, tuple) and len(result) == 2
    state, info = result
    assert isinstance(state, redfield.BlockDensityMatrix)
    assert info.method == "lu"
    assert tracing.point_problems(run_point(config)) == []
