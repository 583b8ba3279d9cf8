"""The benchmark's named workloads and how they locate the program.

Each workload is one or more `convexvi` sweeps (a task with a list of
surrogates) at a fixed step budget.  The workload seed chooses the
program seeds; the program receives nothing else from the benchmark.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def import_program():
    """Import `convexvi` from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "convexvi", "__init__.py")):
        raise MissingProgram(f"no src/convexvi package under {ROOT}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import convexvi

    if not os.path.abspath(convexvi.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"convexvi was imported from {convexvi.__file__}, not {SRC}")
    return convexvi


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple  # ((task id, surrogate kinds), ...), run in this order
    steps: int
    n_samples: int = 1
    seeds_per_sweep: int = 1

    def program_seeds(self, seed):
        return tuple(range(seed, seed + self.seeds_per_sweep))

    def cells(self, seed):
        """(task, surrogate, seed) of every results.csv row one pass yields."""
        return [
            (task, kind, str(s))
            for task, kinds in self.sweeps
            for kind in kinds
            for s in self.program_seeds(seed)
        ]

    def configs(self, cli, seed, out_root):
        return [
            cli.RunConfig(
                task=task,
                surrogates=kinds,
                steps=self.steps,
                n_samples=self.n_samples,
                seeds=self.program_seeds(seed),
                out_dir=os.path.join(out_root, task),
                workers=1,
            )
            for task, kinds in self.sweeps
        ]


# Why these three (see README.md for the layer each one stresses):
#   lz-fit       the paper's headline comparison on deep tapes (6800 nodes
#                for asvi) with no oracle and no moment pass, so replay and
#                the reverse sweep dominate; an oracle change should not show.
#   hier-oracle  wide 8-sample tapes plus the fixed-data Metropolis oracle,
#                which takes about two thirds of the wall time.  Only es:
#                radon's oracle would double the length of a pass.
#   br-sweep     many short fits, so per-fit fixed costs (recording, final
#                ELBO, moments, Kalman oracle, file writes) dominate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lz-fit", (("lz", ("asvi", "mean-field")),), steps=1000),
        Workload("hier-oracle", (("es", ("asvi",)),), steps=500, n_samples=8, seeds_per_sweep=2),
        Workload(
            "br-sweep",
            (("br", ("asvi", "mean-field", "ar1", "mvn")),),
            steps=200,
            seeds_per_sweep=2,
        ),
    )
}


def build_inputs(workload, seed):
    """Build every task, dataset and surrogate the workload uses (set-up)."""
    from convexvi.model import condition
    from convexvi.surrogates import build_surrogate
    from convexvi.tasks import generate_data, get_task

    built = []
    for task_id, kinds in workload.sweeps:
        task = get_task(task_id)
        for s in workload.program_seeds(seed):
            if task.is_pre_conditioned:
                model = task.model
            else:
                model = condition(task.model, generate_data(task, seed=s)[0])
            built.extend(build_surrogate(kind, model, init_seed=s) for kind in kinds)
    return built
