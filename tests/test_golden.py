"""Bit-identity gate: sha256 digests of seeded results, checked against
`golden.json`.

Per task x surrogate kind at seed 1 the digests cover the surrogate's
`init_params`, 30-step fits at 1 and 2 samples (final params and every
loss), `elbo_gradient` at 2 samples, 200 final-ELBO terms and the
400-sample moments, the last three at the 1-sample fit's params; per SDE
task they cover `generate_data`.  For CLI sweeps of br and lz (every kind
at seed 1, 60 steps) they cover the bytes of `results.csv` and
`summary.txt` and the step and loss columns of each trajectory, which a
pooled sweep (`workers=2`) must reproduce.  A refactor must leave every
digest unchanged.

Regenerate `golden.json` (`python tests/test_golden.py`) only in a
change that declares a numerics change and says in CHANGES.md which
results change and why; never to make this test pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from convexvi.cli import RunConfig, run_benchmark
from convexvi.inference import (
    TrainConfig,
    elbo_estimate,
    elbo_gradient,
    fit,
    surrogate_moments,
)
from convexvi.model import condition
from convexvi.surrogates import SURROGATES, build_surrogate
from convexvi.tasks import SDE_DEFAULTS, TASK_IDS, generate_data, get_task

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SEED = 1
STEPS = 30
SWEEP_TASKS = ("br", "lz")
SWEEP_STEPS = 60


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


def fit_digests(task_id, kind):
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=SEED)[0])
    surrogate = build_surrogate(kind, model, init_seed=SEED)
    out = {"init_params": digest(surrogate.init_params)}
    fits = {}
    for n_samples in (1, 2):
        config = TrainConfig(steps=STEPS, n_samples=n_samples, seed=SEED, record_every=1)
        fits[n_samples] = result = fit(model, kind, config)
        losses = [loss for _, loss, _ in result.trajectory]
        out[f"fit_{n_samples}"] = digest(result.params, losses, [result.diverged])
    params = fits[1].params
    out["gradient"] = digest(elbo_gradient(model, surrogate, params, n_samples=2, seed=SEED))
    est = elbo_estimate(model, surrogate, params, n_samples=200, seed=SEED)
    out["elbo_terms"] = digest(est.per_sample_terms)
    means, sds = surrogate_moments(surrogate, params, n_samples=400, seed=SEED)
    out["moments"] = digest(list(means.values()), list(sds.values()))
    return out


def data_digest(task_id):
    observations, truth = generate_data(get_task(task_id), seed=SEED)
    return digest(list(observations.values()), list(truth.values.values()), [truth.total])


def sweep_digests(task_id, out_dir, workers=1):
    config = RunConfig(
        task=task_id,
        surrogates=tuple(SURROGATES),
        steps=SWEEP_STEPS,
        seeds=(SEED,),
        out_dir=str(out_dir),
        workers=workers,
    )
    out = {"results": hashlib.sha256(pathlib.Path(run_benchmark(config)).read_bytes()).hexdigest()}
    out["summary"] = hashlib.sha256((out_dir / "summary.txt").read_bytes()).hexdigest()
    for kind in SURROGATES:
        with open(out_dir / f"trajectory_{task_id}_{kind}_{SEED}.csv", newline="") as fh:
            columns = "".join(f"{r['step']},{r['negative_elbo']}\n" for r in csv.DictReader(fh))
        out[f"trajectory/{kind}"] = hashlib.sha256(columns.encode()).hexdigest()
    return out


def compute():
    golden = {f"{t}/{k}": fit_digests(t, k) for t in TASK_IDS for k in SURROGATES}
    golden.update({f"{t}/data": data_digest(t) for t in SDE_DEFAULTS})
    with tempfile.TemporaryDirectory() as tmp:
        golden.update({f"sweep/{t}": sweep_digests(t, pathlib.Path(tmp) / t) for t in SWEEP_TASKS})
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", list(SURROGATES))
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_fits_match_golden_digests(task_id, kind, golden):
    assert fit_digests(task_id, kind) == golden[f"{task_id}/{kind}"]


@pytest.mark.parametrize("task_id", list(SDE_DEFAULTS))
def test_generated_data_matches_golden_digest(task_id, golden):
    assert data_digest(task_id) == golden[f"{task_id}/data"]


@pytest.mark.parametrize("task_id", SWEEP_TASKS)
def test_sweeps_match_golden_digests_serial_and_pooled(task_id, golden, tmp_path):
    assert sweep_digests(task_id, tmp_path / "serial") == golden[f"sweep/{task_id}"]
    assert sweep_digests(task_id, tmp_path / "pooled", workers=2) == golden[f"sweep/{task_id}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
