import csv
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from convexvi.tasks import LZ_CONFIG, TASK_IDS, default_mask, get_task

import convexvi.cli as cli_mod
from convexvi import autodiff
from convexvi.cli import (
    RESULT_COLUMNS,
    USAGE,
    RunConfig,
    UsageError,
    _build_task,
    main,
    parse_flags,
    run_benchmark,
    run_single,
    summarize,
)
from convexvi.inference import NonFiniteError
from convexvi.model import ModelError


def test_parse_basic_flags():
    cfg = parse_flags(["--task", "br", "--surrogate", "asvi,mean-field", "--seeds", "1,2,3"])
    assert cfg.task == "br"
    assert cfg.surrogates == ("asvi", "mean-field")
    assert cfg.seeds == (1, 2, 3)


def test_parse_missing_task_is_usage_error():
    with pytest.raises(UsageError, match="--task is required"):
        parse_flags(["--surrogate", "asvi"])


def test_parse_unknown_flag():
    with pytest.raises(UsageError, match="unknown flag"):
        parse_flags(["--task", "br", "--frobnicate", "1"])


def test_parse_invalid_enum():
    with pytest.raises(UsageError, match="invalid task"):
        parse_flags(["--task", "nope"])
    with pytest.raises(UsageError, match="invalid surrogate"):
        parse_flags(["--task", "br", "--surrogate", "flow"])


def test_parse_unreadable_config():
    with pytest.raises(UsageError, match="cannot read config"):
        parse_flags(["--config", "/definitely/not/here.json"])


def test_config_file_then_flag_last_wins(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"task": "br", "steps": 500, "seeds": [5]}))
    cfg = parse_flags(["--config", str(cfg_file), "--steps", "99"])
    assert cfg.steps == 99
    assert cfg.task == "br"
    assert cfg.seeds == (5,)
    # flag before the config file is overridden by it
    cfg = parse_flags(["--steps", "99", "--config", str(cfg_file)])
    assert cfg.steps == 500


def test_run_config_validation(tmp_path, capsys):
    with pytest.raises(UsageError):
        RunConfig(task="br", seeds=())
    with pytest.raises(UsageError):
        RunConfig(task="br", n_samples=0)
    with pytest.raises(UsageError, match="SDE tasks only"):
        RunConfig(task="es", task_overrides={"steps": 6})
    # overrides built in Python, not read from JSON, are checked too
    with pytest.raises(UsageError, match="'steps' takes an integer, not True"):
        RunConfig(task="br", task_overrides={"steps": True, "mask": ["no"]})
    with pytest.raises(UsageError, match="'mask' takes a list of booleans or 0/1"):
        RunConfig(task="br", task_overrides={"steps": 3, "mask": ["no", 1, 0]})
    # a repeated cell would run again and overwrite its own rows
    with pytest.raises(UsageError, match="surrogate 'asvi' is given more than once"):
        RunConfig(task="br", surrogates=("asvi", "mvn", "asvi"))
    with pytest.raises(UsageError, match="seed 1 is given more than once"):
        RunConfig(task="br", seeds=(1, 2, 1))
    assert main(["--task", "br", "--surrogate", "asvi,asvi", "--seeds", "1,1"]) == 2
    # a negative seed raised ValueError from the generator; a negative rate
    # ran to the end and descended the ELBO
    with pytest.raises(UsageError, match="seeds must be >= 0"):
        RunConfig(task="br", seeds=(1, -1))
    for lr in (0.0, -0.05, math.inf, math.nan):
        with pytest.raises(UsageError, match="lr must be positive and finite"):
            RunConfig(task="br", lr=lr)
    assert main(["--task", "br", "--seeds", "-1"]) == 2
    assert main(["--task", "br", "--lr", "-0.05"]) == 2
    # counts built in Python are checked as the flags and JSON are: a
    # float seed failed later, in the generator, and a float step count in fit
    for kwargs, message in (
        ({"seeds": (1.5,)}, "seed must be an integer, got 1.5"),
        ({"seeds": (1, True)}, "seed must be an integer, got True"),
        ({"workers": 1.5}, "workers must be an integer"),
        ({"steps": 2.5}, "TrainConfig.steps must be an integer"),
        ({"n_samples": 1.5}, "TrainConfig.n_samples must be an integer"),
        # a bool rate built in Python ran as a rate of 1.0
        ({"lr": True}, "TrainConfig.lr must be a number, got True"),
    ):
        with pytest.raises(UsageError, match=message):
            RunConfig(task="br", **kwargs)
    assert RunConfig(task="br", seeds=(np.int64(2),)).seeds == (2,)
    assert RunConfig(task="br", lr=np.float64(0.05)).train_config(seed=1).lr == 0.05
    # values of the wrong type raised TypeError (exit 1, as if every run
    # failed); non-integral numbers were truncated ({"seeds": [1.5]} ran seed 1)
    run_file = tmp_path / "run.json"
    for key, value in (
        ("seeds", 3), ("steps", [1]), ("surrogate", 5), ("lr", [1]),
        ("seeds", [1.5]), ("steps", 2.7), ("samples", 1.5), ("workers", 1.5),
        ("steps", True), ("steps", "2.7"),
        # a bool was taken as a rate of 1.0, and null as the directory "None"
        ("lr", True), ("out", None), ("out", 5),
    ):
        run_file.write_text(json.dumps({"task": "br", key: value}))
        with pytest.raises(UsageError, match=f"bad value for config key '{key}'"):
            parse_flags(["--config", str(run_file)])
        capsys.readouterr()
        assert main(["--config", str(run_file)]) == 2
        assert key in capsys.readouterr().err
    # integral numbers stay welcome
    run_file.write_text(json.dumps({"task": "br", "seeds": [2.0, 3], "steps": 7.0, "workers": 2.0}))
    cfg = parse_flags(["--config", str(run_file)])
    assert (cfg.seeds, cfg.steps, cfg.workers) == ((2, 3), 7, 2)
    # a file whose top level is not an object raised AttributeError from
    # --config, and named the string's letters as unknown task-config keys
    for flag, text in (
        ("--config", "[1, 2]"), ("--config", '"br"'), ("--task-config", '"steps"'), ("--task-config", "[1]"),
    ):
        run_file.write_text(text)
        with pytest.raises(UsageError, match="must hold a JSON object"):
            parse_flags(["--task", "br", flag, str(run_file)])
        capsys.readouterr()
        assert main(["--task", "br", flag, str(run_file)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
    assert main(["--task", "br", "--steps", "2.7"]) == 2


def test_no_surrogate_is_a_usage_error(tmp_path, capsys):
    # an empty list passed the parser, and the sweep ran the oracle and
    # made the output directory before it raised a bare ValueError
    with pytest.raises(UsageError, match="need at least one surrogate"):
        RunConfig(task="br", surrogates=())
    out = tmp_path / "out"
    run_file = tmp_path / "run.json"
    run_file.write_text(json.dumps({"task": "br", "surrogate": [], "out": str(out)}))
    for argv in (["--task", "br", "--surrogate", ",", "--out", str(out)], ["--config", str(run_file)]):
        with pytest.raises(UsageError, match="need at least one surrogate"):
            parse_flags(argv)
        assert main(argv) == 2
        assert "need at least one surrogate" in capsys.readouterr().err
        assert not out.exists()


def test_task_overrides_are_checked_from_either_file(tmp_path, capsys):
    run_file = tmp_path / "run.json"
    task_file = tmp_path / "task.json"
    run_file.write_text(json.dumps({"task": "br", "task_overrides": {"steps": 3, "mask": [1, 0, 1]}}))
    overrides = parse_flags(["--config", str(run_file)]).task_overrides
    assert overrides == {"steps": 3, "mask": (True, False, True)}
    run_file.write_text(json.dumps({"task": "br", "task_overrides": {"stepz": 6}}))
    task_file.write_text(json.dumps({"stepz": 6}))
    for argv in (["--config", str(run_file)], ["--task", "br", "--task-config", str(task_file)]):
        with pytest.raises(UsageError, match="unknown task-config keys"):
            parse_flags(argv)
        assert main(argv) == 2
        assert "stepz" in capsys.readouterr().err
    # values SdeTaskConfig rejects fail at parse time, not inside the sweep
    for overrides, key in (
        (5, "task_overrides"),
        ({"dt": -1}, "dt"),
        ({"dt": math.nan}, "dt"),
        ({"dt": math.inf}, "dt"),
        ({"innovation_scale": math.nan}, "innovation_scale"),
        ({"obs_scale": math.inf}, "obs_scale"),
        ({"mask": [True]}, "mask"),
        ({"steps": "x"}, "steps"),
        # bools were taken as numbers (a 1-step chain, a scale of 1.0),
        # and any mask entry as a bool ("no" as True)
        ({"steps": True}, "steps"),
        ({"steps": 3.0}, "steps"),
        ({"dt": False}, "dt"),
        ({"innovation_scale": True}, "innovation_scale"),
        ({"obs_scale": "1.0"}, "obs_scale"),
        ({"steps": 3, "mask": [1, "no", 1]}, "mask"),
        ({"steps": 3, "mask": [1, 2, 1]}, "mask"),
        ({"steps": 3, "mask": "yes"}, "mask"),
    ):
        run_file.write_text(json.dumps({"task": "br", "task_overrides": overrides}))
        with pytest.raises(UsageError, match=key):
            parse_flags(["--config", str(run_file)])
        assert main(["--config", str(run_file)]) == 2
        assert key in capsys.readouterr().err
    task_file.write_text(json.dumps({"steps": True}))
    with pytest.raises(UsageError, match="'steps' takes an integer, not True"):
        parse_flags(["--task", "br", "--task-config", str(task_file)])
    task_file.write_text(json.dumps({"dt": 0}))
    argv = ["--task", "br", "--task-config", str(task_file)]
    with pytest.raises(UsageError, match="bad task overrides .*'dt': 0.*must be positive"):
        parse_flags(argv)
    assert main(argv) == 2


def test_task_overrides_replace_the_task_defaults():
    task = _build_task(RunConfig(task="lz", task_overrides={"steps": 6, "dt": 0.05}))
    assert task.config == replace(LZ_CONFIG, steps=6, dt=0.05, mask=default_mask(6))


def small_config(tmp_path, **kw):
    defaults = dict(
        task="br",
        surrogates=("asvi", "mean-field"),
        steps=150,
        seeds=(1, 2),
        out_dir=str(tmp_path / "out"),
        task_overrides={"steps": 6},
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_benchmark_row_and_file_counts(tmp_path):
    cfg = small_config(tmp_path)
    results_path = run_benchmark(cfg)
    rows = read_rows(results_path)
    assert len(rows) == 4  # 2 surrogates x 2 seeds
    names = os.listdir(cfg.out_dir)
    trajs = [n for n in names if n.startswith("trajectory_")]
    assert len(trajs) == 4
    assert {"results.csv", "summary.csv", "summary.txt", "meta.json", "timings.csv"} <= set(names)
    with open(results_path, newline="") as fh:
        assert next(csv.reader(fh)) == list(RESULT_COLUMNS)
    timings = read_rows(os.path.join(cfg.out_dir, "timings.csv"))
    assert list(timings[0]) == [
        "task", "surrogate", "seed", "wall_time_s", "fit_s", "final_elbo_s", "moments_s", "oracle_s"
    ]
    # one row per oracle run (br: a Kalman smoother per data seed), then one per cell
    assert [(t["surrogate"], t["seed"]) for t in timings] == [("oracle", "1"), ("oracle", "2")] + [
        (r["surrogate"], r["seed"]) for r in rows
    ]
    for t in timings:
        assert all(float(t[c]) >= 0.0 for c in cli_mod.TIMING_COLUMNS)
    for t in timings[:2]:
        assert [t[c] for c in cli_mod.TIMING_COLUMNS[:-1]] == ["0.000"] * 4
    for t in timings[2:]:
        assert t["oracle_s"] == "0.000"
    for row in rows:
        assert row["failed"] == "false"
        assert row["mean_error"] != ""  # kalman oracle available for br


def test_results_are_bit_reproducible(tmp_path):
    cfg1 = small_config(tmp_path, out_dir=str(tmp_path / "a"))
    cfg2 = small_config(tmp_path, out_dir=str(tmp_path / "b"))
    p1 = run_benchmark(cfg1)
    p2 = run_benchmark(cfg2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_every_sweep_starts_with_no_compiled_code(tmp_path, monkeypatch):
    # the second seed reuses most of the first seed's chunks within a
    # sweep, and a sweep run again compiles them all again.  A chunk of a
    # shape already compiled writes no source: a sweep renders as many
    # sources as it compiles shapes.
    generate, compiled, rendered, used = autodiff._generate, [], [], []

    def counted(*described_render_args):
        chunks = generate(*described_render_args)
        used.extend(chunks)
        return chunks

    monkeypatch.setattr(autodiff, "_generate", counted)
    monkeypatch.setattr(autodiff, "compile", lambda *a: compiled.append(a) or compile(*a), raising=False)
    for name in ("_render_forward", "_render_backward"):
        render = getattr(autodiff, name)
        monkeypatch.setattr(autodiff, name, lambda key, render=render: rendered.append(key) or render(key))
    counts = []
    for run in ("a", "b"):
        for kept in (compiled, rendered, used):
            kept.clear()
        run_benchmark(small_config(tmp_path, steps=20, out_dir=str(tmp_path / run)))
        counts.append((len(compiled), len(rendered), len(used)))
    assert counts[0] == counts[1]
    assert 0 < counts[0][0] == counts[0][1] < counts[0][2]


def test_summarize_single_row_se_zero(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(tmp_path, surrogates=("asvi",), seeds=(3,), out_dir=str(out))
    run_benchmark(cfg)
    rows = read_rows(out / "summary.csv")
    assert len(rows) == 1
    assert float(rows[0]["neg_elbo_se"]) == 0.0
    assert rows[0]["best"] == "*"


def test_summarize_mixed_rows_se(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["task", "surrogate", "seed", "final_neg_elbo", "mean_error", "sd_error",
             "iterations", "converged", "failed"]
        )
        writer.writerow(["br", "asvi", 1, "1.0", "", "", 10, "true", "false"])
        writer.writerow(["br", "asvi", 2, "3.0", "", "", 10, "true", "false"])
        writer.writerow(["br", "asvi", 3, "2.0", "", "", 10, "true", "false"])
    summarize(str(out))
    rows = read_rows(out / "summary.csv")
    assert float(rows[0]["neg_elbo_mean"]) == 2.0
    # SE = sample SD / sqrt(n) = 1.0 / sqrt(3)
    assert float(rows[0]["neg_elbo_se"]) == pytest.approx(1.0 / 3**0.5)


def test_summarize_identical_rows_zero_se(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["task", "surrogate", "seed", "final_neg_elbo", "mean_error", "sd_error",
             "iterations", "converged", "failed"]
        )
        writer.writerow(["br", "asvi", 1, "1.5", "", "", 10, "true", "false"])
        writer.writerow(["br", "asvi", 2, "1.5", "", "", 10, "true", "false"])
    summarize(str(out))
    rows = read_rows(out / "summary.csv")
    assert float(rows[0]["neg_elbo_se"]) == 0.0


def write_all_failed_results(out):
    out.mkdir()
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        writer.writerow(["es", "mvn", 1, "", "", "", "", 104, "false", "true"])
        writer.writerow(["es", "mvn", 2, "", "", "", "", 33, "false", "true"])
    return str(out / "results.csv")


def test_summarize_all_failed_rows(tmp_path):
    out = tmp_path / "out"
    write_all_failed_results(out)
    table = summarize(str(out))
    rows = read_rows(out / "summary.csv")
    assert len(rows) == 1
    assert rows[0]["n_runs"] == "0"
    assert rows[0]["neg_elbo_mean"] == rows[0]["mean_error_mean"] == "n/a"
    assert rows[0]["best"] == ""
    assert (out / "summary.txt").read_text() == table + "\n"
    assert table.splitlines()[1].split()[3:] == ["n/a", "n/a", "n/a"]


def test_main_exits_1_when_every_run_failed(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"

    def all_failed_sweep(config):
        results_path = write_all_failed_results(out)
        summarize(config.out_dir)
        return results_path

    monkeypatch.setattr(cli_mod, "run_benchmark", all_failed_sweep)
    code = cli_mod.main(["--task", "es", "--surrogate", "mvn", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "every run failed" in err


def test_summarize_empty_dir_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        summarize(str(tmp_path))


def test_summary_round_trips_through_results(tmp_path):
    cfg = small_config(tmp_path)
    path = run_benchmark(cfg)
    rows = read_rows(path)
    # every emitted float round-trips exactly through the csv text
    for row in rows:
        val = float(row["final_neg_elbo"])
        assert repr(val) == row["final_neg_elbo"]


def raiser(exc):
    def boom(*a, **k):
        raise exc

    return boom


def test_run_single_failure_flagged(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, surrogates=("asvi",), seeds=(1,))
    monkeypatch.setattr(cli_mod, "fit", raiser(NonFiniteError("injected")))
    row, trajectory, wall = run_single(cfg, "asvi", 1, None)
    assert row["failed"] is True
    assert trajectory == []


def test_run_single_flags_divergence_and_raises_bugs(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, surrogates=("asvi",), seeds=(1,))
    monkeypatch.setattr(cli_mod, "elbo_estimate", raiser(NonFiniteError("injected")))
    row, trajectory, _ = run_single(cfg, "asvi", 1, None)
    assert row["failed"] is True and row["final_neg_elbo"] == ""
    assert row["iterations"] == cfg.steps and trajectory
    monkeypatch.setattr(cli_mod, "fit", raiser(ModelError("injected")))
    with pytest.raises(ModelError, match="injected"):
        run_single(cfg, "asvi", 1, None)


def test_run_single_times_each_phase(tmp_path):
    cfg = small_config(tmp_path, surrogates=("asvi",), seeds=(1,))
    task = _build_task(cfg)
    oracle = cli_mod._oracle_stats(task, cli_mod._conditioned_model(task, 1)[0])
    row, _, times = run_single(cfg, "asvi", 1, oracle)
    assert tuple(times) == cli_mod.TIMING_COLUMNS
    assert times["oracle_s"] == 0.0  # the sweep runs the oracle, not the cell
    assert all(times[c] > 0.0 for c in cli_mod.TIMING_COLUMNS[:-1])
    # the fit's own clock starts after the surrogate is built
    assert times["wall_time_s"] <= times["fit_s"]
    assert row["mean_error"] != ""
    row, _, _ = run_single(cfg, "asvi", 1, None)
    assert row["mean_error"] == row["sd_error"] == row["oracle_reliable"] == ""


def test_one_oracle_per_dataset_at_any_worker_count(tmp_path, monkeypatch):
    # the wrapper appends to a file, so oracles run in pool workers count too
    log = tmp_path / "oracles.txt"
    real = cli_mod.collapsed_posterior

    def counted(spec):
        with open(log, "a") as fh:
            fh.write("oracle\n")
        return real(spec)

    monkeypatch.setattr(cli_mod, "collapsed_posterior", counted)

    def oracle_runs(cfg):
        log.write_text("")
        rows = read_rows(run_benchmark(cfg))
        assert all(r["mean_error"] != "" and r["oracle_reliable"] == "true" for r in rows)
        return len(log.read_text().split())

    # an oracle runs the grid and its every-other-point subgrid: two calls
    # fixed data: one oracle serves every seed
    cfg = RunConfig(task="es", steps=2, seeds=(3, 4), out_dir=str(tmp_path / "es"))
    assert oracle_runs(cfg) == 2
    timings = read_rows(os.path.join(cfg.out_dir, "timings.csv"))
    assert [t["seed"] for t in timings if t["surrogate"] == "oracle"] == [""]
    # simulated data: one oracle per data seed, shared by that seed's cells
    for workers in (1, 2):
        cfg = small_config(tmp_path, task="brg", steps=2, seeds=(3, 4), workers=workers)
        assert oracle_runs(cfg) == 4


def test_no_sampler_on_the_cli_path(tmp_path, monkeypatch):
    from convexvi import oracles

    def no_sampler(*args, **kwargs):
        raise AssertionError("a sweep ran the Metropolis sampler")

    monkeypatch.setattr(oracles, "metropolis_sample", no_sampler)
    monkeypatch.setattr(cli_mod, "metropolis_sample", no_sampler)
    for task in ("es", "radon", "brg"):
        cfg = RunConfig(task=task, steps=2, seeds=(1, 2), out_dir=str(tmp_path / task))
        rows = read_rows(run_benchmark(cfg))
        assert len(rows) == 2 and all(r["oracle_reliable"] == "true" for r in rows)
        with open(os.path.join(cfg.out_dir, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["oracle"] == "collapsed"
        seeds = [None] if task != "brg" else [1, 2]
        assert [g["seed"] for g in meta["oracle_grids"]] == seeds
        for grid in meta["oracle_grids"]:
            assert grid["edge_mass"] <= cli_mod.MAX_EDGE_MASS and len(grid["grid_shape"]) >= 1
            assert 0.0 <= grid["subgrid_shift"] <= cli_mod.MAX_SUBGRID_SHIFT


def test_a_grid_that_cuts_off_the_posterior_raises(tmp_path, monkeypatch):
    import convexvi.tasks as tasks_mod

    # log tau in [0, 2] holds the middle of its posterior only
    monkeypatch.setattr(tasks_mod, "ES_TAU_AXIS", np.linspace(0.0, 2.0, 101))
    task = get_task("es")
    with pytest.raises(ValueError, match="edge of its \\(101,\\) grid"):
        cli_mod._oracle_stats(task, task.model)
    with pytest.raises(ValueError, match="edge"):
        run_benchmark(RunConfig(task="es", steps=2, out_dir=str(tmp_path / "es")))


def test_a_grid_too_coarse_for_the_posterior_raises(tmp_path):
    # 300 observations narrow brg's posterior in log sigma_obs below the
    # grid's spacing: the subgrid moves a moment by about 1 SD, while the
    # edge holds almost no mass
    cfg = RunConfig(task="brg", steps=2, out_dir=str(tmp_path / "brg"), task_overrides={"steps": 300})
    task = _build_task(cfg)
    with pytest.raises(ValueError, match="grid is too coarse"):
        cli_mod._oracle_stats(task, cli_mod._conditioned_model(task, 1)[0])
    with pytest.raises(ValueError, match="too coarse"):
        run_benchmark(cfg)


def test_workers_match_sequential(tmp_path):
    seq = small_config(tmp_path, out_dir=str(tmp_path / "seq"), steps=60)
    par = small_config(tmp_path, out_dir=str(tmp_path / "par"), steps=60, workers=2)
    p1 = run_benchmark(seq)
    p2 = run_benchmark(par)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_a_sweep_forks_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a process pool forks all its workers at the first submit; this fake
    # records the count asked for and maps serially, starting no process
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", SerialPool)
    one_cell = dict(surrogates=("asvi",), seeds=(1,), steps=2)
    run_benchmark(small_config(tmp_path, out_dir=str(tmp_path / "one"), workers=3, **one_cell))
    assert asked == []  # one cell runs serially
    two_cells = dict(surrogates=("asvi",), seeds=(1, 2), steps=2)
    run_benchmark(small_config(tmp_path, out_dir=str(tmp_path / "two"), workers=3, **two_cells))
    assert asked == [2]


def test_main_end_to_end(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli_mod, "summarize", lambda d: calls.append(d) or summarize(d))
    out = tmp_path / "run"
    code = main(
        [
            "--task", "br", "--surrogate", "asvi", "--steps", "80",
            "--seeds", "1", "--out", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "asvi" in printed and "task" in printed
    assert (out / "results.csv").exists()
    # the printed table is the one summary the sweep wrote
    assert calls == [str(out)] and printed == (out / "summary.txt").read_text()


def test_main_usage_paths(capsys):
    assert main([]) == 0
    assert "usage:" in capsys.readouterr().out
    assert main(["--task", "nope"]) == 2
    assert "invalid task" in capsys.readouterr().err
    (line,) = [ln for ln in USAGE.splitlines() if ln.lstrip().startswith("--task ID")]
    assert line.split("one of: ")[1] == ", ".join(TASK_IDS)
