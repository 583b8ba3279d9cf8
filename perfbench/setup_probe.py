"""Set-up probe: import convexvi and build a workload's inputs, then exit.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Runs under a SpeedProbe and prints the probe's mean reference-loop time
and its own time in seconds; run.py times whole runs of this script and
rescales them into the workload's `setup_s`.
"""

import sys

import speed

if __name__ == "__main__":
    with speed.SpeedProbe() as probe:
        import workloads

        name, seed = sys.argv[1], int(sys.argv[2])
        workloads.import_program()
        workloads.build_inputs(workloads.WORKLOADS[name], seed)
    print(probe.loop_s(), probe.spent)
