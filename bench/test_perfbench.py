"""Tests of the benchmark itself: seeded draws, the output checks, the
tracer's self times, the host-speed sampler, and the metric names.  None of them runs a
transient, so they take well under a second."""
import copy
import re
import signal
import sys
import time

import pytest

import env

sys.path.insert(0, str(env.ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_same_seed_same_draws(reference):
    draws = workloads.sweep_draws(7)
    assert draws == workloads.sweep_draws(7)
    assert draws != workloads.sweep_draws(8)
    assert len(draws) == workloads.SWEEP_DRAWS
    # every draw is a grid point the reference covers
    assert {workloads.draw_key(d) for d in draws} <= set(reference["design_sweep"])
    assert len(reference["design_sweep"]) == len(workloads.sweep_grid())


@pytest.mark.parametrize("workload", ["qvco_core", "qvco_buffered"])
def test_qvco_check_rejects_perturbed_result(reference, workload):
    ref = reference[workload]
    assert checks.check_qvco(copy.deepcopy(ref), ref) == []

    def perturbed(edit):
        got = copy.deepcopy(ref)
        edit(got)
        return checks.check_qvco(got, ref)

    assert perturbed(lambda g: g["metrics"].update(f_osc_hz=g["metrics"]["f_osc_hz"] * (1 + 2e-6)))
    assert perturbed(lambda g: g["metrics"]["phases_deg"].update(
        V_o4=g["metrics"]["phases_deg"]["V_o4"] + 0.02))
    assert perturbed(lambda g: g["metrics"]["amplitudes_vpp"].update(
        V_o2=g["metrics"]["amplitudes_vpp"]["V_o2"] * (1 + 2e-5)))
    assert perturbed(lambda g: g["metrics"].update(steady=False))
    assert perturbed(lambda g: g["model"].update(L_p=g["model"]["L_p"] * (1 + 1e-11)))
    # the sanity check needs no reference
    assert checks.sanity_qvco(dict(ref["metrics"], phases_deg={"V_o3": 80.0}))
    assert checks.sanity_qvco(dict(ref["metrics"], oscillating=False))


def test_design_check_rejects_perturbed_result(reference):
    sweep = reference["design_sweep"]
    accepted = next(v for v in sweep.values() if "error" not in v)
    rejected = next(v for v in sweep.values() if "error" in v)
    assert checks.check_design(dict(accepted), accepted) == []
    assert checks.check_design(dict(rejected), rejected) == []
    assert checks.check_design(dict(accepted, k_ps1=accepted["k_ps1"] * (1 + 1e-11)), accepted)
    assert checks.check_design(dict(accepted, verdict="feasible"), accepted)
    assert checks.check_design(dict(rejected, message="other"), rejected)
    assert checks.check_design(dict(accepted), rejected)
    assert checks.check_design(dict(rejected), accepted)


def test_self_times_subtract_children():
    tr = spans.Tracer()
    with tr.span("bench.op"):
        with tr.span("engine.transient"):
            with tr.span("inductance.extract"):
                pass
    root, engine, extract = tr.spans
    self_s = spans.self_times(tr.spans)
    assert self_s["bench"] == pytest.approx(root.duration - engine.duration)
    assert self_s["engine"] == pytest.approx(engine.duration - extract.duration)
    assert sum(self_s.values()) == pytest.approx(root.duration)
    per_op = spans.per_root(tr.spans)
    assert len(per_op) == 1 and set(per_op[0]) == {s.name for s in tr.spans}


def test_sampler_times_chunks_and_takes_them_out():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * hostspeed.PERIOD_S:
            pass
        t1 = time.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(sampler.chunks) >= 2
    inside = sum(e - s for s, e in sampler.chunks if t0 <= s and e <= t1)
    assert sampler.spent(t0, t1) == inside > 0.0
    assert sampler.spent(t1, t1 + 1.0) == 0.0
    assert sampler.mean_chunk_s() > 0.0
    # a batch shorter than one period still gets one chunk
    with hostspeed.Sampler() as short:
        pass
    assert len(short.chunks) == 1


def test_metric_names_and_units():
    bench = env.spec()
    workload_names = [w["name"] for w in bench["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = workload_names + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in metrics:
        assert UNIT.match(m["unit"]), m


def test_every_declared_metric_is_computed():
    """A traced run over three sweep draws yields exactly the declared
    metrics of both kinds."""
    runner = harness.Runner("design_sweep", 0, 0.0, traced=True)
    runner.inputs["draws"] = runner.inputs["draws"][:3]
    runner.run()
    assert runner.failed == 0
    assert set(runner.end_to_end([0.3])) == set(harness.declared_units("end_to_end"))
    assert set(runner.per_layer()) == set(harness.declared_units("per_layer"))
