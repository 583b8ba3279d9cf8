"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import math
import os
import signal
import time

import pytest

import correctness
import run
import speed
import tracing
import workloads
from tracing import Span

workloads.import_program()


def test_self_times_and_partition_on_synthetic_tree():
    spans = [
        Span("cli.run_benchmark", 0.0, 10.0, -1, "", None),
        Span("cli.run_single", 1.0, 9.0, 0, "br/asvi/1", None),
        Span("inference.fit", 1.5, 6.0, 1, "br/asvi/1", (4, 0)),
        Span("autodiff.record", 2.0, 3.0, 2, "br/asvi/1", 100),
        Span("model.joint_log_prob", 2.2, 2.6, 3, "br/asvi/1", None),
        Span("autodiff.Tape.forward", 3.5, 4.0, 2, "br/asvi/1", 100),
        Span("inference.elbo_estimate", 6.5, 8.5, 1, "br/asvi/1", None),
        Span("model.joint_log_prob", 7.0, 7.5, 6, "br/asvi/1", None),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.5, 3.0, 0.6, 0.4, 0.5, 1.5, 0.5])

    m = tracing.layer_metrics(spans, wall_s=10.25)
    assert m["cli.sweep_self_s"] == pytest.approx(2.0)
    assert m["cli.cell_self_s"] == pytest.approx(1.5)
    assert m["inference.step_self_s"] == pytest.approx(3.0)
    # the joint_log_prob call made while recording is charged to recording
    assert m["autodiff.record_s"] == pytest.approx(1.0)
    assert m["model.joint_log_prob_s"] == pytest.approx(0.5)
    assert m["model.joint_log_prob_calls"] == 1
    assert m["inference.final_elbo_s"] == pytest.approx(1.5)
    assert m["inference.fit_s"] == pytest.approx(4.5)
    assert m["inference.steps"] == 4
    assert m["autodiff.rerecord_steps"] == 3  # 4 steps, one Tape.forward
    assert m["autodiff.forward_ns_per_node"] == pytest.approx(0.5e9 / 100)
    assert m["trace.unattributed_s"] == pytest.approx(0.25)
    self_metrics = set(tracing.SELF_METRICS.values()) | {"trace.unattributed_s"}
    assert sum(m[k] for k in self_metrics) == pytest.approx(m["trace.wall_s"])


def test_end_to_end_timings_are_medians_at_reference_speed():
    def plain(wall, cells, fits, slow=1.0):
        loop = speed.REFERENCE_LOOP_S * slow
        return {"traced": False, "wall_s": wall * slow, "loop_s": loop,
                "cell_s": {c: t * slow for c, t in zip("ab", cells)},
                "cell_loop_s": {"a": loop, "b": loop},
                "fit_s": {c: t * slow for c, t in zip("ab", fits)},
                "fit_loop_s": {"a": loop, "b": loop}, "steps": {"a": 10, "b": 30}}

    # the last pass ran at half speed: its probe's loop took twice as long
    passes = [plain(10.0, (3.0, 5.0), (2.0, 4.0)), plain(9.0, (4.0, 3.0), (3.5, 1.0)),
              plain(12.0, (3.5, 4.0), (2.5, 2.0), slow=2.0), {"traced": True, "wall_s": 1.0}]
    m = run.end_to_end_metrics(passes, setup_s=0.5)
    # median cells: a 3.5, b 4.0; median fits: a 2.5, b 2.0; the traced pass is ignored
    assert m["wall_s"] == pytest.approx(10.0)
    assert m["cell_s.p50"] == pytest.approx(3.75) and m["cell_s.max"] == pytest.approx(4.0)
    assert m["train_steps_per_s"] == pytest.approx(40 / (2.5 + 2.0))
    assert m["setup_s"] == 0.5


def test_speed_probe_samples_and_leaves_no_timer_behind():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        start = probe.clock()
        until = time.perf_counter() + 0.1
        while time.perf_counter() < until:
            pass
        measured = probe.clock() - start
    assert len(probe.samples) >= 5 and probe.spent >= sum(loop for _, loop in probe.samples)
    first, last = probe.samples[0][0], probe.samples[-1][0]
    assert probe.loop_s(first, last) == pytest.approx(
        sum(loop for _, loop in probe.samples[:-1]) / (len(probe.samples) - 1))
    assert probe.loop_s(-2.0, -1.0) == probe.loop_s()  # no tick inside: all ticks
    # the probe's own time is left out of what its clock measures
    assert measured == pytest.approx(0.1 - probe.spent, abs=0.002)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.at_reference_speed(3.0, 2 * speed.REFERENCE_LOOP_S) == pytest.approx(1.5)


def _reference_rows(workload):
    ref = run.load_reference()
    return [dict(r) for r in ref["rows"][workload]], ref["oracle_se"]


def _count_failed(rows, ref_rows, oracle_se, cells):
    refs = [("committed reference", correctness.by_cell(ref_rows), correctness.reference_mismatches)]
    attempted, failed, problems = correctness.check_pass(rows, cells, refs, oracle_se)
    return attempted, failed, problems


def test_perturbed_row_counts_in_failed_frac():
    ref_rows, oracle_se = _reference_rows("br-sweep")
    cells = workloads.WORKLOADS["br-sweep"].cells(1)
    assert _count_failed(ref_rows, ref_rows, oracle_se, cells)[:2] == (8, 0)

    rows = [dict(r) for r in ref_rows]
    value = float(rows[3]["final_neg_elbo"])
    rows[3]["final_neg_elbo"] = repr(math.nextafter(value, math.inf))  # one ulp
    rows[5]["mean_error"] = repr(float(rows[5]["mean_error"]) + 1e-15)  # Kalman: exact
    attempted, failed, problems = _count_failed(rows, ref_rows, oracle_se, cells)
    assert (attempted, failed) == (8, 2)
    assert "final_neg_elbo" in problems[0] and "mean_error" in problems[1]

    # a dropped row and a row the program flagged failed are both counted
    rows = [dict(r) for r in ref_rows[1:]]
    rows[0]["failed"] = "true"
    assert _count_failed(rows, ref_rows, oracle_se, cells)[:2] == (8, 2)


def test_metropolis_errors_use_the_oracle_tolerance():
    ref_rows, oracle_se = _reference_rows("hier-oracle")
    cells = workloads.WORKLOADS["hier-oracle"].cells(1)
    es = next(r for r in ref_rows if r["task"] == "es")
    mean_tol, sd_tol = correctness.metropolis_tolerance(es, oracle_se["es"])
    # positive, and below the errors themselves: a zeroed or doubled error fails
    assert 0.0 < mean_tol < float(es["mean_error"]) and 0.0 < sd_tol < float(es["sd_error"])

    inside = [dict(r) for r in ref_rows]
    for row in inside:
        if row["task"] == "es":
            row["mean_error"] = repr(float(row["mean_error"]) + 0.9 * mean_tol)
            row["sd_error"] = repr(float(row["sd_error"]) - 0.9 * sd_tol)
    assert _count_failed(inside, ref_rows, oracle_se, cells)[:2] == (2, 0)

    outside = [dict(r) for r in ref_rows]
    outside[0]["mean_error"] = repr(float(es["mean_error"]) + 1.1 * mean_tol)
    assert _count_failed(outside, ref_rows, oracle_se, cells)[:2] == (2, 1)


def _attributes(targets):
    return [vars(t.owner)[t.attr] for t in targets]


def test_wrappers_restored_and_rows_unchanged_by_tracing(tmp_path):
    from convexvi import cli

    targets = tracing.program_targets()
    before = _attributes(targets)
    config = cli.RunConfig(task="br", surrogates=("asvi",), steps=3, seeds=(1,), out_dir=str(tmp_path))

    plain = run.run_pass(cli, [config], tracing.timer_targets(cli))
    traced = run.run_pass(cli, [config], targets, traced=True)
    after = _attributes(targets)
    assert all(a is b for a, b in zip(after, before))
    assert plain["rows"] == traced["rows"] and plain["rows"][0]["failed"] == "false"

    names = {s.name for s in traced["spans"]}
    assert set(tracing.SELF_METRICS) <= names | {"oracles.metropolis_sample"}
    # an untraced pass keeps only the cell and fit timers
    assert [s.name for s in plain["spans"]] == [tracing.CELL_SPAN, tracing.FIT_SPAN]
    assert plain["spans"][0].cell == "br/asvi/1"
    fit = plain["spans"][1]
    assert plain["fit_s"] == {"br/asvi/1": fit.end - fit.start} and plain["steps"] == {"br/asvi/1": 3}
    m = tracing.layer_metrics(traced["spans"], traced["wall_s"])
    assert m["inference.steps"] == 3 and m["autodiff.rerecord_steps"] == 0
    assert 0.0 <= m["trace.unattributed_s"] < 0.01

    # an exception escaping the traced block also restores every attribute
    with pytest.raises(RuntimeError):
        with tracing.Tracer(targets, time.perf_counter):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_attributes(targets), before))


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
