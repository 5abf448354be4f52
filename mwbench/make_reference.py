"""Write reference.json: the invariants of every benchmark query's output.

Run from the repository root after a change that alters an output on
purpose:

    python3 mwbench/make_reference.py

Each distinct query runs once at the standard labeling.  Check the diff of
reference.json by hand; the benchmark's tests assert the subset of it that
is theorem.
"""

from __future__ import annotations

import json
import os
import sys

import check
import inputs
import run
from workloads import WORKLOADS, input_names


def main() -> int:
    sys.path.insert(0, run.SRC)
    from matroidworks.cli import main as mw

    reference = {}
    out_dir = os.path.join(run.OUT_DIR, "reference-inputs")
    for workload in WORKLOADS.values():
        paths = inputs.write_inputs(input_names(workload.queries), None, out_dir)
        for _, name, args in workload.queries:
            _, code, stdout = run.run_query(mw, args, paths[name])
            if code != 0:
                print(f"mw {' '.join(args)} on {name} exited {code}", file=sys.stderr)
                return 1
            reference[check.query_key(args, name)] = check.invariants(args, json.loads(stdout))
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
