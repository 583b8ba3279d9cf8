import csv
import json
import os
from dataclasses import replace

import pytest

from convexvi.tasks import LZ_CONFIG, default_mask

import convexvi.cli as cli_mod
from convexvi.cli import (
    RESULT_COLUMNS,
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


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(task="br", seeds=())
    with pytest.raises(UsageError):
        RunConfig(task="br", n_samples=0)
    with pytest.raises(UsageError, match="SDE tasks only"):
        RunConfig(task="es", task_overrides={"steps": 6})


def test_task_overrides_are_checked_from_either_file(tmp_path, capsys):
    run_file = tmp_path / "run.json"
    task_file = tmp_path / "task.json"
    run_file.write_text(json.dumps({"task": "br", "task_overrides": {"mask": [1, 0, 1]}}))
    assert parse_flags(["--config", str(run_file)]).task_overrides == {"mask": (True, False, True)}
    run_file.write_text(json.dumps({"task": "br", "task_overrides": {"stepz": 6}}))
    task_file.write_text(json.dumps({"stepz": 6}))
    for argv in (["--config", str(run_file)], ["--task", "br", "--task-config", str(task_file)]):
        with pytest.raises(UsageError, match="unknown task-config keys"):
            parse_flags(argv)
        assert main(argv) == 2
        assert "stepz" in capsys.readouterr().err


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
    for row in rows:
        assert row["failed"] == "false"
        assert row["mean_error"] != ""  # kalman oracle available for br


def test_results_are_bit_reproducible(tmp_path):
    cfg1 = small_config(tmp_path, out_dir=str(tmp_path / "a"))
    cfg2 = small_config(tmp_path, out_dir=str(tmp_path / "b"))
    p1 = run_benchmark(cfg1)
    p2 = run_benchmark(cfg2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


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
    row, trajectory, wall = run_single(cfg, "asvi", 1)
    assert row["failed"] is True
    assert trajectory == []


def test_run_single_flags_divergence_and_raises_bugs(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, surrogates=("asvi",), seeds=(1,))
    monkeypatch.setattr(cli_mod, "elbo_estimate", raiser(NonFiniteError("injected")))
    row, trajectory, _ = run_single(cfg, "asvi", 1)
    assert row["failed"] is True and row["final_neg_elbo"] == ""
    assert row["iterations"] == cfg.steps and trajectory
    monkeypatch.setattr(cli_mod, "fit", raiser(ModelError("injected")))
    with pytest.raises(ModelError, match="injected"):
        run_single(cfg, "asvi", 1)


def test_workers_match_sequential(tmp_path):
    seq = small_config(tmp_path, out_dir=str(tmp_path / "seq"), steps=60)
    par = small_config(tmp_path, out_dir=str(tmp_path / "par"), steps=60, workers=2)
    p1 = run_benchmark(seq)
    p2 = run_benchmark(par)
    assert open(p1, "rb").read() == open(p2, "rb").read()


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
