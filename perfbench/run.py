"""Benchmark of the convexvi sweep CLI on one named workload.

    python3 perfbench/run.py --workload br-sweep --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each

Drives `convexvi.cli.run_benchmark(RunConfig(..., workers=1))` in this
process, repeating whole passes over the workload's cells until the next
pass would end after `--seconds`.  With `--trace 0` it makes at least
three passes and reports each end-to-end metric as a median over the
passes; with `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics.  Every row of every pass is checked (correctness.py).
The last line of standard output is one JSON object; README.md lists
every metric.
"""

import os

# pin BLAS/OpenMP pools before numpy is first imported, here or in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import correctness
import speed
import tracing
import workloads

REFERENCE = os.path.join(workloads.HERE, "reference.json")
SETUP_PROBES = 5
MIN_PLAIN_PASSES = 3  # the end-to-end figures are medians of at least this many

END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_s.p50": "s",
    "cell_s.max": "s",
    "train_steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workload, seed):
    """Median time of fresh processes that import convexvi and build every
    task, dataset and surrogate of the workload, each rescaled to the
    reference speed by the probe the process runs on itself.  One untimed
    process first, so a fresh checkout's bytecode compile is not counted.
    Returns the median and every process's (raw s, loop s, probe s)."""
    cmd = [
        sys.executable,
        os.path.join(workloads.HERE, "setup_probe.py"),
        workload.name,
        str(seed),
    ]
    runs = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        loop_s, spent = map(float, proc.stdout.split())
        if i:
            runs.append((elapsed, loop_s, spent))
    times = [speed.at_reference_speed(elapsed - spent, loop_s) for elapsed, loop_s, spent in runs]
    return statistics.median(times), runs


# ---------------------------------------------------------------------------
# passes


def read_csv(path):
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_pass(cli, configs, targets, traced=False):
    """One call of run_benchmark per sweep, wrapped in a Tracer on `targets`
    and sampled by a SpeedProbe, whose own time every timing leaves out."""
    probe = speed.SpeedProbe()
    tracer = tracing.Tracer(targets, probe.clock)
    wall, rows, errors = 0.0, [], []
    for config in configs:
        shutil.rmtree(config.out_dir, ignore_errors=True)
        gc.collect()
        with tracer, probe:
            start = probe.clock()
            try:
                cli.run_benchmark(config)
            except Exception as exc:  # the cells of this sweep count as failed
                errors.append(f"{config.task}: {type(exc).__name__}: {exc}")
            wall += probe.clock() - start
        rows.extend(read_csv(os.path.join(config.out_dir, "results.csv")))
    fit_spans = [s for s in tracer.spans if s.name == tracing.FIT_SPAN]
    cell_spans = [s for s in tracer.spans if s.name == tracing.CELL_SPAN]
    return {
        "traced": traced,
        "wall_s": wall,
        "loop_s": probe.loop_s(),
        "cell_s": {s.cell: s.end - s.start for s in cell_spans},
        "cell_loop_s": {s.cell: probe.loop_s(s.start, s.end) for s in cell_spans},
        "fit_s": {s.cell: s.end - s.start for s in fit_spans},
        "fit_loop_s": {s.cell: probe.loop_s(s.start, s.end) for s in fit_spans},
        "steps": {s.cell: s.info[0] for s in fit_spans if s.info},  # info is None where fit raised
        "rows": rows,
        "errors": errors,
        "spans": tracer.spans,
    }


def run_passes(cli, workload, seed, seconds, traced):
    """Repeat rounds (an untraced pass, then a traced one if `traced`) until
    the next round would end after `seconds`.  An untraced run makes at
    least MIN_PLAIN_PASSES passes, a traced one at least one round."""
    configs = workload.configs(cli, seed, os.path.join(workloads.OUT, "work", workload.name))
    modes = [(tracing.timer_targets(cli), False)]
    if traced:
        modes.append((tracing.program_targets(), True))
    min_rounds = 1 if traced else MIN_PLAIN_PASSES
    passes = []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.extend(run_pass(cli, configs, targets, is_traced) for targets, is_traced in modes)
        now = time.perf_counter()
        rounds = len(passes) // len(modes)
        if rounds >= min_rounds and (now - begin) + (now - round_start) > seconds:
            return passes


# ---------------------------------------------------------------------------
# correctness


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_passes(workload, seed, passes, reference):
    """Check every pass; returns (attempted, failed, problems, what was compared)."""
    cells = workload.cells(seed)
    oracle_se = reference["oracle_se"]
    references = [("first pass", correctness.by_cell(passes[0]["rows"]), correctness.exact_mismatches)]
    if seed == reference["seed"]:
        committed = correctness.by_cell(reference["rows"][workload.name])
        references.append(("committed reference", committed, correctness.reference_mismatches))
        checked_against = "committed reference and first pass"
    else:
        checked_against = "first pass only: no committed reference at this seed"
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        a, f, probs = correctness.check_pass(p["rows"], cells, references, oracle_se)
        attempted += a
        failed += f
        problems += [f"pass {i}: {msg}" for msg in p["errors"] + probs]
    return attempted, failed, problems, checked_against


# ---------------------------------------------------------------------------
# metrics and provenance


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_cell_median(plain, key):
    """Each cell's median `key` time over the passes that timed it, each
    at the reference speed by the probe's ticks inside that cell or fit."""
    cells = {c for p in plain for c in p[key + "_s"]}
    return {
        c: statistics.median(
            speed.at_reference_speed(p[key + "_s"][c], p[key + "_loop_s"][c])
            for p in plain
            if c in p[key + "_s"]
        )
        for c in cells
    }


def end_to_end_metrics(passes, setup_s):
    """Medians over the run's untraced passes, at the reference speed.

    Every pass repeats bit-identical work (correctness.py checks that), so
    each pass is one sample of the same timings.  Each time is first
    rescaled to the reference speed by the probe's ticks during it
    (speed.py); then the pass wall time, each cell's time and each cell's
    fit time are taken at their median.
    """
    plain = [p for p in passes if not p["traced"]]
    cells = _per_cell_median(plain, "cell")
    fits = _per_cell_median(plain, "fit")
    steps = {c: n for p in plain for c, n in p["steps"].items()}
    return {
        "wall_s": statistics.median(speed.at_reference_speed(p["wall_s"], p["loop_s"]) for p in plain),
        "cell_s.p50": _median(list(cells.values())),
        "cell_s.max": max(cells.values(), default=0.0),
        "train_steps_per_s": sum(steps.values()) / sum(fits.values()) if fits else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(passes):
    """Raw per-layer times; the tracing overhead compares walls at the
    reference speed, since the host's speed differs between passes."""
    def wall(traced):
        return statistics.median(
            speed.at_reference_speed(p["wall_s"], p["loop_s"]) for p in passes if p["traced"] == traced
        )

    per_pass = [tracing.layer_metrics(p["spans"], p["wall_s"]) for p in passes if p["traced"]]
    out = {name: statistics.median(m[name] for m in per_pass) for name in tracing.LAYER_UNITS}
    out["trace.overhead_frac"] = wall(True) / wall(False) - 1.0
    return out


def oracle_reliable(passes):
    rows = [r for p in passes if not p["traced"] for r in p["rows"]]
    flagged = [r for r in rows if r["oracle_reliable"] != ""]
    return sum(r["oracle_reliable"] == "true" for r in flagged), len(flagged)


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(workloads.ROOT))
    proc = subprocess.run(
        ["git", "-C", workloads.ROOT, "--no-optional-locks", *args],
        capture_output=True, text=True, env=env, check=False,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(workloads.SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, workloads.SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, load_before):
    import numpy

    has_git = os.path.isdir(os.path.join(workloads.ROOT, ".git"))
    status = _git("status", "--porcelain") if has_git else None
    return {
        "git_sha": _git("rev-parse", "HEAD") if has_git else None,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "workload_seed": seed,
        "program_seeds": list(workload.program_seeds(seed)),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def write_spans(path, passes):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "index", "name", "start_s", "end_s", "parent", "cell"])
        for k, p in enumerate(passes):
            if not p["traced"] or not p["spans"]:
                continue
            t0 = p["spans"][0].start
            for i, s in enumerate(p["spans"]):
                writer.writerow([k, i, s.name, f"{s.start - t0:.9f}", f"{s.end - t0:.9f}", s.parent, s.cell])


# ---------------------------------------------------------------------------
# entry points


def run_workload(args):
    workload = workloads.WORKLOADS[args.workload]
    load_before = os.getloadavg()
    try:
        workloads.import_program()
    except workloads.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = load_reference()
    setup_s, setup_runs = (0.0, []) if args.trace else measure_setup(workload, args.seed)

    from convexvi import cli

    passes = run_passes(cli, workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, problems, checked_against = check_passes(workload, args.seed, passes, reference)
    if args.trace:
        metrics = layer_metrics(passes)
        units = tracing.LAYER_UNITS
    else:
        metrics = end_to_end_metrics(passes, setup_s)
        units = END_TO_END_UNITS
    reliable, with_oracle = oracle_reliable(passes)
    prov = provenance(workload, args.seed, load_before)

    os.makedirs(workloads.OUT, exist_ok=True)
    stem = os.path.join(workloads.OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        write_spans(stem + "-spans.csv", passes)
    record = {
        "workload": workload.name,
        "metrics": metrics,
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "checked_against": checked_against,
        "oracle_reliable": [reliable, with_oracle],
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "loop_s", "cell_s", "cell_loop_s", "fit_s",
                               "fit_loop_s", "errors")}
            for p in passes
        ],
        "setup_runs": [dict(zip(("raw_s", "loop_s", "probe_s"), r)) for r in setup_runs],
        "provenance": prov,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    n_plain = sum(not p["traced"] for p in passes)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {n_plain} untraced + {len(passes) - n_plain} traced  "
          f"cells per pass {len(workload.cells(args.seed))}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6f} {units[name]}")
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    loops = [p["loop_s"] * 1e6 for p in plain]
    print(f"  {'(untraced passes)':<32} {len(plain):>16d}    "
          f"(raw wall {min(walls):.3f} to {max(walls):.3f} s; reference loop "
          f"{min(loops):.1f} to {max(loops):.1f} us, against {speed.REFERENCE_LOOP_S * 1e6:.1f} us)")
    print(f"  {'failed_frac':<32} {failed / attempted:>16.6f} ratio  ({failed} of {attempted} cells)")
    if with_oracle:
        print(f"  {'oracle_reliable_frac':<32} {reliable / with_oracle:>16.6f} ratio  "
              f"({reliable} of {with_oracle} cells with an oracle)")
    else:
        print(f"  {'oracle_reliable_frac':<32} {'n/a':>16}        (no cell has an oracle)")
    print(f"  rows checked against: {checked_against}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process; prints their reports in turn."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
