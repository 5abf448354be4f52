"""Benchmark of the ``mw`` command line on one workload.

Run from the repository root:

    python3 mwbench/run.py --workload chow --seed 0 --seconds 40 --trace 0

It imports the library from ``src/``, writes the workload's inputs under
``.mwbench/``, and calls ``matroidworks.cli.main(argv)`` with
``--format json`` for each query in turn: a closed loop, one client, one
thread.  Every report is checked against ``reference.json``.

With ``--trace 0`` it repeats the query list for about ``--seconds``
(always at least one whole pass) and reports end-to-end metrics from
per-query medians.  With ``--trace 1`` it alternates untraced and
traced whole passes and reports per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are a readable
table and the run metadata.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".mwbench")
# Set-ups timed before the queries, and with --trace 0 again after them, so
# that the median of setup_s samples the machine at both ends of the run.
SETUP_REPEATS = 10

sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import FAMILIES, WORKLOADS, input_names  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "family_a_s": "s",
    "family_b_s": "s",
    "peak_rss_mb": "MB",
}


def git_revision():
    """The checked-out commit, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_state() -> dict:
    return {"unix_time": time.time(), "loadavg": list(os.getloadavg())}


def setup(workload, seed: int, directory: str):
    """Import the library afresh and write the inputs; returns (main, paths)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "matroidworks"]:
        del sys.modules[name]
    # The package re-exports functions over some submodule names (the
    # attribute ``matroidworks.catalog`` is a function), so submodules are
    # reached through import_module, never through attribute access.
    cli = importlib.import_module("matroidworks.cli")
    paths = inputs.write_inputs(
        input_names(workload.queries), seed if workload.relabel else None, directory
    )
    return cli.main, paths


def run_query(main, args, path):
    """One mw call; returns (seconds, exit code or exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args + ["--file", path, "--format", "json"])
        except Exception as exc:  # a crash is a failed query, not a failed run
            code = repr(exc)
    return time.perf_counter() - start, code, out.getvalue()


class Runner:
    """Runs and checks queries, counting attempts and failures."""

    def __init__(self, main, queries, paths, reference):
        self.main = main
        self.queries = queries
        self.paths = paths
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def query(self, index: int) -> float:
        _, name, args = self.queries[index]
        seconds, code, stdout = run_query(self.main, args, self.paths[name])
        self.attempted += 1
        why = check.check(self.reference, args, name, code, stdout)
        if why is not None:
            self.failures.append(f"mw {' '.join(args)} on {name}: {why}")
        return seconds

    def timed_loop(self, seconds: float) -> list[list[float]]:
        """Query times, per query: one whole pass, then more queries while
        the next is expected to end before the deadline.

        After the first pass the next query comes from the family that has
        had the least time so far, cycling through that family's queries.
        Each family is then timed for about half the run, so a light family
        gets many samples instead of the few a heavy one allows.
        """
        deadline = time.perf_counter() + seconds
        samples = [[self.query(q)] for q in range(len(self.queries))]
        spent, members = {}, {}
        for q, (family, _, _) in enumerate(self.queries):
            spent[family] = spent.get(family, 0.0) + samples[q][0]
            members.setdefault(family, []).append(q)
        turn = dict.fromkeys(members, 0)
        while True:
            fits = [
                f for f in members
                if time.perf_counter() + samples[members[f][turn[f] % len(members[f])]][-1]
                < deadline
            ]
            if not fits:
                return samples
            family = min(fits, key=spent.get)
            q = members[family][turn[family] % len(members[family])]
            turn[family] += 1
            samples[q].append(self.query(q))
            spent[family] += samples[q][-1]

    def traced_passes(self, seconds: float):
        """Alternate untraced and traced passes, one each at least, while the
        next pass is expected to end before the deadline; returns (untraced
        pass times, traced pass times, tracers)."""
        untraced, traced, tracers = [], [], []
        deadline = time.perf_counter() + seconds
        while not (untraced and traced) or (
            time.perf_counter() + max(untraced[-1], traced[-1]) < deadline
        ):
            tracer = tracing.Tracer() if len(untraced) > len(traced) else None
            if tracer is not None:
                tracer.install()
            try:
                total = 0.0
                for q in range(len(self.queries)):
                    if tracer is not None:
                        tracer.query = q
                    total += self.query(q)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is None:
                untraced.append(total)
            else:
                traced.append(total)
                tracers.append(tracer)
        return untraced, traced, tracers


def end_to_end(workload, samples, setup_times, failed, attempted) -> dict:
    """Every end-to-end metric of the README, by its name there."""
    medians = [statistics.median(s) for s in samples]
    out = {"setup_s": statistics.median(setup_times), "wall_s": sum(medians)}
    for family in FAMILIES:
        out[family] = sum(
            t for t, (f, _, _) in zip(medians, workload.queries) if f == family
        )
    out["failed_frac"] = failed / attempted
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "matroidworks")):
        print(f"error: no matroidworks package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "start": machine_state(),
    }
    reference = check.load_reference()
    input_dir = os.path.join(OUT_DIR, f"inputs-{args.workload}-{args.seed}")

    setup_times = []

    def timed_setups():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            result = setup(workload, args.seed, input_dir)
            setup_times.append(time.perf_counter() - start)
        return result

    mw_main, paths = timed_setups()

    runner = Runner(mw_main, workload.queries, paths, reference)
    record = {"meta": meta, "setup_s": setup_times}
    if args.trace:
        untraced, traced, tracers = runner.traced_passes(args.seconds)
        per_pass = [t.layer_metrics(s) for t, s in zip(tracers, traced)]
        table = {
            name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
        }
        table["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = dict(tracing.PER_LAYER)
        metrics = {name: table[name] for name in units}
        record |= {"untraced_pass_s": untraced, "traced_pass_s": traced}
        record["spans"] = tracers[0].spans
    else:
        samples = runner.timed_loop(args.seconds)
        timed_setups()
        failed = len(runner.failures)
        table = end_to_end(workload, samples, setup_times, failed, runner.attempted)
        a, b = workload.families
        metrics = {
            "setup_s": table["setup_s"],
            "wall_s": table["wall_s"],
            "family_a_s": table[a],
            "family_b_s": table[b],
            "peak_rss_mb": table["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        record["query_s"] = {
            check.query_key(q[2], q[1]): s for q, s in zip(workload.queries, samples)
        }
    meta["end"] = machine_state()
    record |= {"metrics": metrics, "failures": runner.failures}
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for why in runner.failures:
        print(f"FAILED {why}", file=sys.stderr)
    print(json.dumps(meta))
    for name, value in table.items():
        default = "%" if name.endswith("_pct") else "s" if name.endswith("_s") else "ratio"
        unit = units.get(name, default)
        print(f"  {name:<52} {value:>14.6g} {unit}")
    failed = len(runner.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
