"""Rewrite reference.json: every workload's results.csv rows at the
default seed, plus each Metropolis oracle's Monte-Carlo SE ratios.

    python3 perfbench/make_reference.py

Run it only when the program's results are meant to change; the check in
correctness.py compares every later run with this file.
"""

import json
import os

import run  # first: pins the BLAS/OpenMP thread counts before numpy loads
import tracing
import workloads

SEED = 1


def se_ratios(args, result):
    ratios = [result.mean_ses[n] / result.sds[n] for n in result.means if result.sds[n] > 0]
    return {"ratio_mean": sum(ratios) / len(ratios), "ratio_max": max(ratios), "latents": len(ratios)}


def main():
    workloads.import_program()
    from convexvi import cli

    capture = tracing.Target(cli, "metropolis_sample", "oracles.metropolis_sample", se_ratios)
    rows, oracle_se = {}, {}
    for workload in workloads.WORKLOADS.values():
        rows[workload.name] = []
        out_root = os.path.join(workloads.OUT, "work", workload.name)
        for config in workload.configs(cli, SEED, out_root):
            result = run.run_pass(cli, [config], tracing.timer_targets(cli) + [capture])
            if result["errors"]:
                raise SystemExit(f"{workload.name}: {result['errors']}")
            rows[workload.name] += result["rows"]
            oracles = [s.info for s in result["spans"] if s.name == capture.name]
            if len(oracles) > 1:
                raise SystemExit(f"{config.task}: one Metropolis oracle per task expected")
            if oracles:
                oracle_se[config.task] = oracles[0]
    with open(run.REFERENCE, "w") as fh:
        json.dump({"seed": SEED, "oracle_se": oracle_se, "rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
