"""Record the reference outputs that ``run.py`` checks operations against.

    python3 perfbench/record_references.py --seeds 0-19

Runs each workload's operation once per seed, untimed, and writes the final
objective of every fit (and ``mean_best_map`` for ``eval-small``) to
``perfbench/references.json``. Run it only at a commit whose outputs are
trusted; seeds without an entry are checked by the invariants alone.
"""

import argparse
import json
import shutil
import sys
import warnings

import run  # pins the BLAS threads before NumPy loads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    run.OUT.mkdir(exist_ok=True)
    references = run.load_references()
    for name in args.workload or sorted(run.WORKLOADS):
        for seed in range(first, last + 1):
            inputs = run.prepare(run.WORKLOADS[name], seed, run.OUT / "inputs" / f"{name}-{seed}")
            rec = run.recorder(False)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                op = run.run_op(inputs, rec)
            problems = run.check(inputs, op, rec, {})
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                continue
            references.setdefault(name, {})[str(seed)] = run.reference_values(op, rec)
            print(f"{name} seed {seed}: {references[name][str(seed)]}", flush=True)
            run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run.OUT / "inputs", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
