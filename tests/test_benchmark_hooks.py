"""The benchmark tracer (perfbench/tracing.py) wraps qdmr functions by name
and reads fields of their results; a refactor must keep both."""

import importlib
import importlib.util
import math
from collections import Counter
from pathlib import Path

import pytest

from qdmr import redfield, sweep
from qdmr.configfile import OUTPUT_GROUPS
from qdmr.sweep import evaluate_point, run_point
from qdmr.validation import reference_config

from conftest import ADAPTIVE_EQ_MU, make_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_sites(tracing) -> list[tuple[str, str]]:
    """(module, attribute) of every function ``Tracer.install`` wraps."""
    sites = [(module, attr) for module, attr, _ in tracing.SPAN_SITES]
    return sites + [("qdmr.phasespace", "husimi"), ("qdmr.leads", "rate_out")]


def test_every_wrapped_name_resolves_to_a_callable(tracing):
    for module, attr in _wrapped_sites(tracing):
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_results_carry_the_fields_the_tracer_reads(tracing):
    config = make_config(n_cut=6)
    tensors = redfield.build_tensors(config)
    liou = redfield.assemble_liouvillian(config, tensors)
    assert liou.n_cut == 6
    result = redfield.steady_state(config, tensors)
    assert isinstance(result, tuple) and len(result) == 2
    state, info = result
    assert isinstance(state, redfield.BlockDensityMatrix)
    assert info.method == "lu"
    assert tracing.point_problems(run_point(config)) == []


def test_the_tracer_times_the_generator_inside_the_lu_solve(tracing, monkeypatch):
    # the tracer installed in this process around one point; every attribute
    # it wraps is put back when the patch context ends
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in _wrapped_sites(tracing)}
    with monkeypatch.context() as patch:
        for (module, attr), fn in originals.items():
            patch.setattr(importlib.import_module(module), attr, fn)
        tracer = tracing.Tracer()
        tracer.install()
        evaluate_point(make_config(n_cut=6))
    assert all(getattr(importlib.import_module(m), a) is fn for (m, a), fn in originals.items())
    names = [name for name, *_ in tracer.spans]
    assert names.count("redfield.steady_state") == names.count("redfield.assemble_liouvillian") == 1
    parent = tracer.spans[names.index("redfield.assemble_liouvillian")][3]
    assert parent == names.index("redfield.steady_state")
    self_s, _ = tracing._self_times(tracer.spans)
    assert all(value >= 0.0 for value in self_s.values()), self_s
    assert tracer.counts["method.lu"] == 1


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


PROBE_ROW_RTOL = 1e-8  # a probe row's cells against the LU row's, relative to max(|LU cell|, FLOW_FLOOR)
FLOW_FLOOR = 1e-6  # rad/ns: at equilibrium the flows are rounding noise, 1e-17 to 1e-15


@pytest.mark.parametrize("mu_tilde, delta_mu", [*((mu, 0.0) for mu in ADAPTIVE_EQ_MU), (0.0, -50.0)])
def test_a_probe_evaluation_matches_the_lu_row_without_the_dense_solve(layer_calls, mu_tilde, delta_mu):
    # the seed-1 adaptive-eq points and the self-oscillation point, at the ladder's first rung
    calls, _ = layer_calls
    config = reference_config(mu_tilde=mu_tilde, delta_mu=delta_mu, lam=0.7, n_cut=20)
    probe = evaluate_point(config, solve=redfield.krylov_steady_state)
    assert calls["steady_state"] == calls["assemble_liouvillian"] == 0
    assert calls[PROBE] == 1
    lu = evaluate_point(config)
    probe_row, lu_row = probe.row(OUTPUT_GROUPS), lu.row(OUTPUT_GROUPS)
    zero_current = abs(lu.report.current_r) < FLOW_FLOOR
    for column in lu_row.keys() - {"residual", "min_eig"}:
        a, b = probe_row[column], lu_row[column]
        if isinstance(b, str):
            assert a == b, column
        elif column == "eta_converter" and zero_current:
            # omega T_Q / |I_R| is undefined (nan) at I_R == 0.0 exactly, and
            # 0.0 where T_Q = 0: with I_R rounding noise, either solve gives either
            assert all(v == 0.0 or math.isnan(v) for v in (a, b)), column
        elif math.isnan(b):
            assert math.isnan(a), column
        else:
            assert abs(a - b) <= PROBE_ROW_RTOL * max(abs(b), FLOW_FLOOR), (column, a, b)
