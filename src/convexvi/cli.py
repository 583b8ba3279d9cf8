"""Benchmark harness: task x surrogate x seed sweeps with oracle checks.

A sweep runs each dataset's oracle once, before any cell: es and radon
have one dataset for every seed, the simulated tasks one per seed.  The
oracles are exact, with no sampler on the path: the Kalman smoother for
br, and for es, radon and brg the collapsed oracle, a numpy grid over
the log scales that mixes the Gaussian block's closed-form conditional
moments.  A cell is then a pure function of (config, kind, seed,
oracle), so serial and pooled sweeps map the same `run_single` over the
same arguments.

Outputs per run directory:
  results.csv     one row per (task, surrogate, seed); deterministic,
                  so identical configs reproduce it bit-exactly
  timings.csv     wall times (kept out of results.csv on purpose): one
                  row per oracle run (surrogate "oracle", the data seed,
                  empty for es and radon, and its time in oracle_s), then
                  one per cell: the fit's own wall_time_s, then where the
                  cell's time went, fit_s (surrogate build included),
                  final_elbo_s and moments_s
  summary.csv     per-(task, surrogate) aggregates, best-of-task marked
  summary.txt     the same aggregates as the printed table
  trajectory_<task>_<surrogate>_<seed>.csv
  meta.json       config echo and oracle provenance (for a collapsed
                  oracle, each dataset's grid shape, edge mass and
                  subgrid shift)
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .autodiff import clear_code_cache
from .inference import (
    _DIVERGENCE,
    TrainConfig,
    check_integer,
    elbo_estimate,
    fit,
    save_trajectory,
    surrogate_moments,
)
from .model import condition
from .oracles import collapsed_posterior, kalman_filter_smoother
# unused here: perfbench/tracing.py's program_targets wraps vars(cli)["metropolis_sample"]
from .oracles import metropolis_sample  # noqa: F401
from .surrogates import SURROGATES
from .tasks import (
    SDE_DEFAULTS,
    TASK_IDS,
    brownian_chain_spec,
    check_task_overrides,
    collapsed_spec,
    generate_data,
    get_task,
    load_task_config,
    observed_steps,
)

FINAL_ELBO_SAMPLES = 1000
MOMENT_SAMPLES = 4000
# most posterior mass a collapsed oracle's grid may hold on its edge
MAX_EDGE_MASS = 1e-6
# largest shift of any mean or SD, in the grid's SDs, that dropping every
# other point of a collapsed oracle's grid may cause
MAX_SUBGRID_SHIFT = 0.1

TIMING_COLUMNS = ("wall_time_s", "fit_s", "final_elbo_s", "moments_s", "oracle_s")

RESULT_COLUMNS = (
    "task",
    "surrogate",
    "seed",
    "final_neg_elbo",
    "mean_error",
    "sd_error",
    "oracle_reliable",
    "iterations",
    "converged",
    "failed",
)

USAGE = f"""\
usage: convexvi --task ID [options]

flags (last occurrence wins; --config applies its file at its position):
  --task ID          one of: {", ".join(TASK_IDS)}
  --surrogate KINDS  comma-separated: {", ".join(SURROGATES)} (default asvi)
  --steps N          max optimization steps (default 30000, early stopping on)
  --lr X             learning rate (default per surrogate kind)
  --samples N        Monte-Carlo samples per gradient step (default 1)
  --seeds LIST       comma-separated integer seeds (default 1)
  --out DIR          output directory (default results)
  --config FILE      JSON file with any of the above keys
  --task-config FILE JSON overrides for SDE task defaults (steps, dt, ...)
  --workers N        parallel worker processes, at most one per cell (default 1)
"""


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    task: str
    surrogates: tuple = ("asvi",)
    steps: int = 30000
    lr: float = None
    n_samples: int = 1
    seeds: tuple = (1,)
    out_dir: str = "results"
    task_overrides: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self):
        if self.task not in TASK_IDS:
            raise UsageError(f"invalid task {self.task!r}; choose from {TASK_IDS}")
        for s in self.surrogates:
            if s not in SURROGATES:
                kinds = tuple(sorted(SURROGATES))
                raise UsageError(f"invalid surrogate {s!r}; choose from {kinds}")
        if not self.seeds:
            raise UsageError("need at least one seed")
        try:
            for what, value in [("workers", self.workers)] + [("seed", seed) for seed in self.seeds]:
                check_integer(what, value)
        except ValueError as exc:
            raise UsageError(str(exc))
        if any(seed < 0 for seed in self.seeds):
            raise UsageError(f"seeds must be >= 0, got {self.seeds}")
        for what, values in (("surrogate", self.surrogates), ("seed", self.seeds)):
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise UsageError(f"{what} {v!r} is given more than once")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers!r}")
        try:
            self.train_config(seed=0)
        except ValueError as exc:
            raise UsageError(str(exc))
        if self.task_overrides and self.task not in SDE_DEFAULTS:
            raise UsageError(f"task overrides apply to the SDE tasks only, not {self.task!r}")
        try:
            self.sde_config()
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad task overrides {self.task_overrides}: {exc}")

    def train_config(self, seed):
        """The fit settings of this run's cell at `seed`; TrainConfig
        checks steps, samples and lr, at parse time too."""
        return TrainConfig(steps=self.steps, lr=self.lr, n_samples=self.n_samples, seed=seed)

    def sde_config(self):
        """The SDE task's configuration with the overrides applied, or
        None (the task's default) without overrides."""
        if not self.task_overrides:
            return None
        # the default mask follows `steps`, so an override of steps alone stays valid
        return replace(SDE_DEFAULTS[self.task], **{"mask": None, **self.task_overrides})


_FLAG_KEYS = {
    "task": "task",
    "surrogate": "surrogates",
    "steps": "steps",
    "lr": "lr",
    "samples": "n_samples",
    "seeds": "seeds",
    "out": "out_dir",
    "workers": "workers",
}
_CONFIG_KEYS = {**_FLAG_KEYS, "task_overrides": "task_overrides"}


def _integer(value):
    """An int from a flag's string or a config file's number, which must
    be integral: `int` alone would truncate 2.7 to 2."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _coerce(key, value):
    if key == "surrogates":
        if isinstance(value, str):
            value = [v for v in value.split(",") if v]
        return tuple(value)
    if key == "seeds":
        if isinstance(value, str):
            value = [v for v in value.split(",") if v]
        return tuple(_integer(v) for v in value)
    if key in ("steps", "n_samples", "workers"):
        return _integer(value)
    if key == "lr":
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is not a number")
        return None if value is None else float(value)
    if key == "task_overrides":
        return check_task_overrides(value)
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def parse_flags(argv) -> RunConfig:
    """Manual left-to-right scan so `--config file` obeys flags-last-wins."""
    settings = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if not flag.startswith("--"):
            raise UsageError(f"unexpected argument {flag!r}\n{USAGE}")
        name = flag[2:]
        if i + 1 >= len(argv):
            raise UsageError(f"flag {flag} needs a value\n{USAGE}")
        value = argv[i + 1]
        i += 2
        if name == "config":
            try:
                with open(value) as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config file {value!r}: {exc}")
            if not isinstance(data, dict):
                raise UsageError(f"config file {value!r} must hold a JSON object, not {type(data).__name__}")
            for key, v in data.items():
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"unknown config key {key!r}")
                try:
                    settings[_CONFIG_KEYS[key]] = _coerce(_CONFIG_KEYS[key], v)
                except (TypeError, ValueError) as exc:
                    raise UsageError(f"bad value for config key {key!r}: {exc}")
        elif name == "task-config":
            try:
                settings["task_overrides"] = load_task_config(value)
            except (OSError, TypeError, ValueError) as exc:
                raise UsageError(f"cannot use task config {value!r}: {exc}")
        elif name in _FLAG_KEYS:
            key = _FLAG_KEYS[name]
            try:
                settings[key] = _coerce(key, value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value for {flag}: {exc}")
        else:
            raise UsageError(f"unknown flag {flag}\n{USAGE}")
    if "task" not in settings:
        raise UsageError(f"--task is required\n{USAGE}")
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# one benchmark run


def _build_task(config: RunConfig):
    return get_task(config.task, sde_config=config.sde_config())


def _conditioned_model(task, seed):
    """Model plus the data it is conditioned on for this seed."""
    if task.is_pre_conditioned:
        return task.model, None
    observations, truth = generate_data(task, seed=seed)
    return condition(task.model, observations), truth


def _oracle_stats(task, model):
    """Ground-truth latent means/SDs of one dataset, `model` conditioned
    on it, or None where the task has no oracle (lz, lzg).  br takes the
    Kalman smoother; es, radon and brg the collapsed oracle, whose grid
    shape, edge mass and subgrid shift ride along.  A grid whose edge
    holds more than MAX_EDGE_MASS of the posterior raises ValueError,
    since the posterior it returns would be cut off; so does a grid too
    coarse for the posterior, where the every-other-point subgrid moves
    a mean or SD by more than MAX_SUBGRID_SHIFT SDs."""
    if task.oracle == "kalman":
        spec = brownian_chain_spec(task.config)
        res = kalman_filter_smoother(spec, observed_steps(model.observations))
        names = [f"x_{t}" for t in range(task.config.steps)]
        means = {n: float(res.smoothed_means[t]) for t, n in enumerate(names)}
        sds = {n: float(math.sqrt(res.smoothed_vars[t])) for t, n in enumerate(names)}
        return {"means": means, "sds": sds}
    if task.oracle == "collapsed":
        spec = collapsed_spec(task, model)
        res = collapsed_posterior(spec)
        if not res.edge_mass <= MAX_EDGE_MASS:
            raise ValueError(
                f"{task.task_id} oracle: {res.edge_mass:.3g} of the posterior lies on the "
                f"edge of its {res.grid_shape} grid (at most {MAX_EDGE_MASS:g} allowed)"
            )
        sub = collapsed_posterior(replace(spec, axes=tuple(a[::2] for a in spec.axes)))
        shift = max(
            max(abs(sub.means[n] - res.means[n]), abs(sub.sds[n] - res.sds[n])) / res.sds[n]
            for n in res.means
        )
        if not shift <= MAX_SUBGRID_SHIFT:
            raise ValueError(
                f"{task.task_id} oracle: its {res.grid_shape} grid is too coarse; every other "
                f"point moves a moment by {shift:.3g} SDs (at most {MAX_SUBGRID_SHIFT:g} allowed)"
            )
        grid = {"grid_shape": list(res.grid_shape), "edge_mass": res.edge_mass, "subgrid_shift": shift}
        return {"means": res.means, "sds": res.sds, "grid": grid}
    return None


def _normalized_errors(surrogate, params, oracle, seed):
    if oracle is None:
        return None, None
    q_means, q_sds = surrogate_moments(surrogate, params, n_samples=MOMENT_SAMPLES, seed=seed)
    m_errs, s_errs = [], []
    for name, true_mean in oracle["means"].items():
        true_sd = oracle["sds"][name]
        if true_sd <= 0:
            continue
        m_errs.append(abs(q_means[name] - true_mean) / true_sd)
        s_errs.append(abs(q_sds[name] - true_sd) / true_sd)
    return float(np.mean(m_errs)), float(np.mean(s_errs))


def _timed(times, key, fn, *args, **kwargs):
    """`fn(*args, **kwargs)`, its wall time stored in `times[key]`."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        times[key] = time.perf_counter() - start


def run_single(config: RunConfig, surrogate_kind, seed, oracle):
    """One (task, surrogate, seed) cell: (row, trajectory, times), with
    `times` keyed by `TIMING_COLUMNS`.  The moment errors are taken
    against `oracle` (`_oracle_stats` of this seed's data), none where it
    is None.  A divergence, in `fit` or in the evaluation after it,
    becomes a flagged row; any other error raises.  The cell builds its
    own model, since models do not pickle to a pool worker."""
    model, _ = _conditioned_model(_build_task(config), seed)
    row = {
        "task": config.task,
        "surrogate": surrogate_kind,
        "seed": seed,
        "final_neg_elbo": "",
        "mean_error": "",
        "sd_error": "",
        "oracle_reliable": "",
        "iterations": 0,
        "converged": False,
        "failed": False,
    }
    trajectory = []
    times = dict.fromkeys(TIMING_COLUMNS, 0.0)
    try:
        result = _timed(times, "fit_s", fit, model, surrogate_kind, config.train_config(seed))
        trajectory = result.trajectory
        times["wall_time_s"] = result.wall_time
        row["iterations"] = result.steps_run
        row["converged"] = result.converged
        if result.diverged:
            row["failed"] = True
            return row, trajectory, times
        est = _timed(
            times, "final_elbo_s", elbo_estimate, model, result.surrogate, result.params,
            n_samples=FINAL_ELBO_SAMPLES, seed=seed + 100_000,
        )
        row["final_neg_elbo"] = -est.value
        m_err, s_err = _timed(
            times, "moments_s", _normalized_errors, result.surrogate, result.params, oracle,
            seed + 200_000,
        )
        if m_err is not None:
            row["mean_error"] = m_err
            row["sd_error"] = s_err
            row["oracle_reliable"] = True
    except _DIVERGENCE:
        row["failed"] = True
    return row, trajectory, times


def run_benchmark(config: RunConfig):
    """Full sweep; writes the result files and the summary into
    config.out_dir and returns the path of results.csv.  The sweep
    starts with an empty cache of generated replay code, so it pays for
    its own code generation; pool workers fork after that, empty too."""
    clear_code_cache()
    os.makedirs(config.out_dir, exist_ok=True)
    task = _build_task(config)
    fixed = task.is_pre_conditioned
    oracles = {}  # data seed, None for fixed data -> oracle stats
    timings = []  # (surrogate, seed, times): the oracle runs, then the cells
    if task.oracle != "none":
        for data_seed in (None,) if fixed else config.seeds:
            times = dict.fromkeys(TIMING_COLUMNS, 0.0)
            model, _ = _conditioned_model(task, data_seed)
            oracles[data_seed] = _timed(times, "oracle_s", _oracle_stats, task, model)
            timings.append(("oracle", "" if fixed else data_seed, times))

    cells = sorted((s, seed) for s in config.surrogates for seed in config.seeds)
    kinds, seeds = zip(*cells)
    args = ([config] * len(cells), kinds, seeds, [oracles.get(None if fixed else s) for s in seeds])
    workers = min(config.workers, len(cells))  # a pool forks every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_single, *args))
    else:
        outcomes = list(map(run_single, *args))

    for (surrogate, seed), (_, trajectory, times) in zip(cells, outcomes):
        timings.append((surrogate, seed, times))
        traj_path = os.path.join(config.out_dir, f"trajectory_{config.task}_{surrogate}_{seed}.csv")
        save_trajectory(trajectory, traj_path)

    results_path = os.path.join(config.out_dir, "results.csv")
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row, _, _ in outcomes:
            writer.writerow([_format_cell(row[c]) for c in RESULT_COLUMNS])

    with open(os.path.join(config.out_dir, "timings.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "surrogate", "seed", *TIMING_COLUMNS])
        writer.writerows(
            [config.task, surrogate, seed] + [f"{times[c]:.3f}" for c in TIMING_COLUMNS]
            for surrogate, seed, times in timings
        )

    meta = {
        "version": __version__,
        "config": {
            k: v for k, v in asdict(config).items() if k not in ("out_dir", "workers")
        },
        "oracle": task.oracle,
        "final_elbo_samples": FINAL_ELBO_SAMPLES,
    }
    if task.oracle == "collapsed":
        meta["oracle_grids"] = [{"seed": seed, **o["grid"]} for seed, o in oracles.items()]
    with open(os.path.join(config.out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)

    summarize(config.out_dir)
    return results_path


def _format_cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# aggregation


def summarize(result_dir):
    """Aggregate results.csv into summary.csv and a printable table."""
    path = os.path.join(result_dir, "results.csv")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no results.csv under {result_dir!r}")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"results.csv in {result_dir!r} is empty")

    # every (task, surrogate) pair gets a row; one whose runs all failed
    # has n_runs 0 and n/a statistics
    groups = {}
    for row in rows:
        grp = groups.setdefault((row["task"], row["surrogate"]), [])
        if row["failed"] != "true":
            grp.append(row)

    def mean_se(values):
        if not values:
            return None, None
        arr = np.asarray(values, dtype=float)
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        return float(arr.mean()), se

    summary = []
    for (task_id, surrogate), grp in sorted(groups.items()):
        elbo_mean, elbo_se = mean_se([float(r["final_neg_elbo"]) for r in grp])
        m_vals = [float(r["mean_error"]) for r in grp if r["mean_error"] != ""]
        s_vals = [float(r["sd_error"]) for r in grp if r["sd_error"] != ""]
        m_mean, m_se = mean_se(m_vals)
        s_mean, s_se = mean_se(s_vals)
        summary.append(
            {
                "task": task_id,
                "surrogate": surrogate,
                "n_runs": len(grp),
                "neg_elbo_mean": elbo_mean,
                "neg_elbo_se": elbo_se,
                "mean_error_mean": m_mean,
                "mean_error_se": m_se,
                "sd_error_mean": s_mean,
                "sd_error_se": s_se,
                "best": "",
            }
        )
    for task_id in {s["task"] for s in summary}:
        candidates = [s for s in summary if s["task"] == task_id and s["neg_elbo_mean"] is not None]
        if candidates:
            min(candidates, key=lambda s: s["neg_elbo_mean"])["best"] = "*"

    columns = list(summary[0].keys())
    with open(os.path.join(result_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for s in summary:
            missing = "n/a" if s["n_runs"] == 0 else ""
            writer.writerow([missing if s[c] is None else s[c] for c in columns])

    lines = [
        f"{'task':<6} {'surrogate':<12} {'n':>3} {'neg ELBO (mean+/-se)':>24} "
        f"{'M err':>8} {'SD err':>8} best"
    ]
    for s in summary:
        elbo = (
            f"{s['neg_elbo_mean']:.3f} +/- {s['neg_elbo_se']:.3f}"
            if s["neg_elbo_mean"] is not None
            else "n/a"
        )
        missing = "n/a" if s["n_runs"] == 0 else "-"
        m_err = f"{s['mean_error_mean']:.3f}" if s["mean_error_mean"] is not None else missing
        s_err = f"{s['sd_error_mean']:.3f}" if s["sd_error_mean"] is not None else missing
        lines.append(
            f"{s['task']:<6} {s['surrogate']:<12} {s['n_runs']:>3} {elbo:>24} "
            f"{m_err:>8} {s_err:>8} {s['best']}"
        )
    table = "\n".join(lines)
    with open(os.path.join(result_dir, "summary.txt"), "w") as fh:
        fh.write(table + "\n")
    return table


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    try:
        config = parse_flags(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results_path = run_benchmark(config)
    with open(os.path.join(config.out_dir, "summary.txt")) as fh:
        print(fh.read(), end="")
    with open(results_path, newline="") as fh:
        if all(row["failed"] == "true" for row in csv.DictReader(fh)):
            print(f"error: every run failed; see {results_path}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
