"""The benchmark tracer (perfbench/tracing.py) wraps qdmr functions by name
and reads fields of their results; a refactor must keep both."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from qdmr import redfield, sweep
from qdmr.sweep import evaluate_point, run_point

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
    tensors = redfield.build_tensors(config)
    liou = redfield.assemble_liouvillian(config, tensors)
    assert liou.n_cut == 6
    result = redfield.steady_state(liou)
    assert isinstance(result, tuple) and len(result) == 2
    state, info = result
    assert isinstance(state, redfield.BlockDensityMatrix)
    assert info.method == "lu"
    assert tracing.point_problems(run_point(config)) == []


SOLVER_LAYERS = ("displacement_matrix", "build_tensors", "assemble_liouvillian", "steady_state", "to_lab_frame")
PROBE = "krylov_steady_state"


@pytest.fixture
def layer_calls(monkeypatch):
    """Counts of the calls to each solver layer and to the ladder's probe solve,
    made at the ``qdmr.redfield`` attribute the tracer wraps, and every pair of
    tensors ``build_tensors`` returned."""
    calls = Counter()
    built = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "build_tensors":
                built.append(result)
            return result

        return wrapper

    for name in (*SOLVER_LAYERS, PROBE):
        monkeypatch.setattr(redfield, name, counted(name, getattr(redfield, name)))
    return calls, built


@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_a_point_calls_each_solver_layer_once(layer_calls, lam):
    # one displacement matrix per point, shared by both leads; no lab frame at lam = 0
    calls, built = layer_calls
    evaluate_point(make_config(lam=lam, n_cut=6))
    assert calls == {name: 1 for name in SOLVER_LAYERS if not (lam == 0.0 and name == "to_lab_frame")}
    ((tensors_l, tensors_r),) = built
    assert tensors_l.displacement is tensors_r.displacement


def test_an_adaptive_point_calls_each_solver_layer_once_per_rung(layer_calls):
    # every rung is decided on the probe; the dense generator and its LU run
    # once, on the rung the probe accepts, which builds its tensors again
    calls, built = layer_calls
    config = make_config(mu_tilde=-5.0, delta_mu=60.0, lam=0.7, n_cut=10)
    result = run_point(config, n_cut_policy="adaptive")
    rungs = (result.n_cut - sweep.ADAPTIVE_START) // sweep.ADAPTIVE_STEP + 1
    assert result.status == "ok"
    assert rungs >= 2
    assert calls == {
        **dict.fromkeys(("displacement_matrix", "build_tensors", "to_lab_frame"), rungs + 1),
        "assemble_liouvillian": 1,
        "steady_state": 1,
        PROBE: rungs,
    }
    assert all(tensors_l.displacement is tensors_r.displacement for tensors_l, tensors_r in built)
