"""Tests of the benchmark's own code (not of hasseweil).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import ast
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402
import program  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_and_distinct():
    curves = gen.eligible_curves()
    assert curves == gen.eligible_curves()
    keys = [gen.invariants(*c)[:2] for c in curves]
    assert len(set(keys)) == len(keys)
    for c in curves:
        disc = gen.invariants(*c)[2]
        assert disc != 0 and abs(disc) <= gen.DISC_LIMIT
    assert gen.stream("euler", 7, curves) == gen.stream("euler", 7, curves)
    assert gen.stream("euler", 7, curves) != gen.stream("euler", 8, curves)
    points = list(gen.scan_points(3))
    assert points == list(gen.scan_points(3)) != list(gen.scan_points(4))
    assert sorted(points) == list(range(1, gen.SCAN_STEPS + 1))


def test_stratified_draws_alternate_bands():
    draws = list(gen.stratified("x", 1, list(range(60)), lambda v: v, 6))
    assert sorted(draws) == list(range(60))
    assert [d // 10 for d in draws[:6]] == [0, 5, 1, 4, 2, 3]


def test_invariants_match_known_curves():
    assert gen.invariants(0, 0, 1, -1, 0) == (48, -216, 37)
    assert gen.invariants(0, 1, 1, -2, 0)[2] == 389


def test_input_code_imports_nothing_from_hasseweil():
    for name in ("gen.py", "checks.py"):
        with open(os.path.join(BENCH, name)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "hasseweil" for m in modules), name


def _bindings(hw):
    """Every (namespace, attribute) -> object the tracer could replace."""
    owners = [m for n, m in sys.modules.items() if n.startswith("hasseweil")]
    owners += [hw.curves.WeierstrassCurve, sys.modules["mpmath"]]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_restores_every_patched_name():
    hw = program.import_program()
    before = _bindings(hw)
    tracer = tracing.Tracer()
    tracer.install(hw)
    patched = len(tracer.patches)
    try:
        assert hw.curves.WeierstrassCurve.minimal_model is not before[
            (id(hw.curves.WeierstrassCurve), "minimal_model")]
        tracer.begin_request(0)
        assert hw.cli.main(["analyze", "0", "0", "1", "-1", "0", "--json"]) == 0
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert patched >= len(tracing.LAYERS)
    assert {s[tracing.NAME] for s in tracer.spans} >= {"cli.main", "curves.minimal_model",
                                                       "localdata.tate_local"}
    after = _bindings(hw)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_on_a_synthetic_span_tree():
    #  root 0..10
    #  +- a 1..5          (children b and c overlap: union 2..4.5)
    #  |  +- b 2..4
    #  |  +- c 3..4.5
    #  +- d 6..7
    spans = [
        ["root", 0.0, 10.0, None, 0, False],
        ["a", 1.0, 5.0, 0, 0, False],
        ["b", 2.0, 4.0, 1, 0, False],
        ["c", 3.0, 4.5, 1, 0, False],
        ["d", 6.0, 7.0, 0, 0, False],
    ]
    assert tracing.self_times(spans) == [5.0, 1.5, 2.0, 1.5, 1.0]


def test_layer_metrics_aggregate_calls_and_self_time():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["request", 0.0, 4.0, None, 0, False],
        ["localdata.ap_sweep", 0.0, 3.0, 0, 0, False],
        ["kernels.ap_sweep", 0.5, 2.5, 1, 0, False],
        ["kernels.ap_bsgs", 3.0, 3.5, 0, 0, True],
    ]
    tracer.counts["kernels.ap_sweep.primes"] = 4
    m = tracing.layer_metrics(tracer, "python")
    assert m["localdata.ap_sweep.self_s"][0] == 1.0
    assert m["kernels.ap_sweep.self_s"][0] == 2.0
    assert m["kernels.ap_sweep.us_per_prime"][0] == 0.5e6
    assert m["kernels.ap_bsgs.errors"][0] == 1
    assert m["cli.main.calls"][0] == 0


def test_checker_rejects_changed_exact_field_and_float_off_by_1e_6():
    ref = {"conductor": 37, "kodaira": "I1", "flags": [], "omega": {"value": 2.993458646, "err": 1e-30}}
    assert checks.compare(ref, json.loads(json.dumps(ref))) == []
    assert checks.compare(ref, {**ref, "conductor": 38})
    assert checks.compare(ref, {**ref, "kodaira": "II"})
    assert checks.compare(ref, {**ref, "flags": ["sha-not-near-square"]})
    assert checks.compare(ref, {**ref, "omega": {"value": 2.993458646 * (1 + 1e-6), "err": 1e-30}})
    # a change below the tolerance, or in an error bound, is accepted
    assert checks.compare(ref, {**ref, "omega": {"value": 2.993458646 * (1 + 1e-12), "err": 1e-20}}) == []


def test_table_invariants_catch_a_wrong_conductor():
    row = {
        "analyze": {"minimal_model": ["0", "0", "1", "-1", "0"],
                    "invariants": {"c4": "48", "c6": "-216", "disc": "37", "j": "110592/37"},
                    "transformation": {"u": "1", "r": "0", "s": "0", "t": "0"},
                    "conductor": 37, "torsion": {"structure": "trivial", "generators": []},
                    "local_data": [{"p": 37, "reduction": "split multiplicative", "kodaira": "I1",
                                    "a_p": 1, "f_p": 1, "c_p": 1, "m": 1, "ord_disc": 1}]},
        "rank": {"rank_analytic": 1, "root_number": -1},
    }
    assert checks.table_invariants((0, 0, 1, -1, 0), row) == []
    row["analyze"]["conductor"] = 74
    assert checks.table_invariants((0, 0, 1, -1, 0), row)


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(program.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = run.end_to_end({"work": 1, "scaled": [1.0]}, [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    tracer = tracing.Tracer()
    tracer.spans = [["request", 0.0, 1.0, None, 0, False]]
    layers = run.per_layer(program.import_program(), tracer,
                           {"latencies": [1.0], "scaled": [1.0], "cpu": [1.0]},
                           {"scaled": [1.0]})
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        printed = {**end_to_end, **layers}[metric["name"]]
        assert metric["unit"] == printed[1]


class _Echo:
    """A workload whose request returns its input and whose check accepts odd numbers."""

    def request(self, hw, item):
        return item, 1

    def check(self, item, out):
        return [] if out % 2 else [f"{out} is even"]


class _Slow(_Echo):
    """A workload whose request spins for `item` seconds."""

    def request(self, hw, item):
        end = time.perf_counter() + item
        while time.perf_counter() < end:
            pass
        return item, 1

    def check(self, item, out):
        return []


def test_measure_stops_when_the_inputs_run_out():
    result = run.measure(None, _Echo(), iter([1, 2, 3]), seconds=60, count=None)
    assert len(result["latencies"]) == len(result["scaled"]) == len(result["cpu"]) == 3
    assert result["exhausted"] and result["work"] == 3
    assert [f["input"] for f in result["failures"]] == ["2"]
    result = run.measure(None, _Echo(), iter([1, 3, 5]), seconds=60, count=2)
    assert len(result["latencies"]) == 2 and not result["exhausted"]


def test_scaled_times_follow_the_speed_of_the_box():
    meter = speed.Speedometer()
    meter.samples = [speed.REFERENCE_PROBE_S, 4 * speed.REFERENCE_PROBE_S]
    assert meter.scale(0) == 0.4
    # a box twice as slow as the reference halves the scaled time
    meter.samples.append(2 * speed.REFERENCE_PROBE_S)
    assert meter.scale(2) == 0.5
    assert meter.scale(3) == 0.5  # nothing since the mark: the latest probe


def test_the_speedometer_probes_while_requests_run_and_then_stops():
    import signal

    meter = speed.Speedometer()
    meter.start()
    try:
        result = run.measure(None, _Slow(), iter([0.3, 0.3]), seconds=60, count=None,
                             meter=meter)
    finally:
        meter.stop()
    assert len(meter.samples) >= 1 + 0.6 / speed.INTERVAL_S / 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert all(s > 0 for s in result["scaled"]) and result["work"] == 2


def test_each_set_up_imports_the_program_and_its_dependencies_afresh():
    resident = {n for n in sys.modules if not n.startswith(("hasseweil", "mpmath"))}
    first, _, _ = run.set_up(workloads.Rank(), 0, resident)
    second, items, seconds = run.set_up(workloads.Rank(), 0, resident)
    assert first.analytic is not second.analytic
    assert first.analytic.mp is not second.analytic.mp
    assert sys.modules["mpmath"] is second.analytic.mp
    assert next(items) == workloads.RANK_ARGV and seconds > 0


def test_every_input_a_seed_can_draw_has_a_reference():
    for workload in (workloads.Table(), workloads.Euler()):
        items = list(workload.setup(None, 5))
        assert items and all(workload.key(item) in workload.reference for item in items)
    scan = workloads.load_reference("scan")
    assert all(str(k) in scan for k in gen.scan_points(5))
    assert " ".join(workloads.RANK_ARGV) in workloads.load_reference("rank")
