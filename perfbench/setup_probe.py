"""Set-up probe: from a fresh interpreter, import blockpotts and build a
workload's inputs, then print "ready".  run.py times it from process start
to that line.  The probe then times the calibrate.py kernel named by
--kernel and prints its part times as a JSON list, so every probe measures
the host's speed in the same fresh process state.

    python3 perfbench/setup_probe.py --workload chains --seed 1 --out-dir DIR --kernel full
"""

import argparse
import json

import bootstrap


def main():
    bootstrap.prepare()
    import calibrate
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--kernel", required=True, choices=tuple(calibrate.KERNELS))
    args = parser.parse_args()
    workloads.build(args.workload, args.seed, args.out_dir)
    print("ready", flush=True)
    print(json.dumps(calibrate.time_kernel(args.kernel)), flush=True)


if __name__ == "__main__":
    main()
