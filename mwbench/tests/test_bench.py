"""Tests of the benchmark itself; run with ``python3 -m pytest mwbench/tests``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CHOW_VOLUMES,
    INFO,
    INVARIANTS,
    PROFILE,
    REALIZABLE_Q,
    WORKLOADS,
    Workload,
)

REFERENCE = check.load_reference()

TINY = Workload(
    (PROFILE, REALIZABLE_Q),
    [
        (PROFILE, "fano", ["realization", "--profile"]),
        (REALIZABLE_Q, "fano", ["realizable-q", "--qmax", "13"]),
        (CHOW_VOLUMES, "k4", ["chow"]),
        (INVARIANTS, "vamos", ["invariants"]),
        (INFO, "vamos", ["info", "--aut"]),
    ],
    relabel=True,
)


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_tiny(monkeypatch, trace: int, seed: int = 5) -> tuple[dict, str]:
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", "tiny", "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
        )
    assert code == 0
    text = out.getvalue()
    return json.loads(text.splitlines()[-1]), text


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fano", "non_fano", "k4", "vamos", "pappus", "moebius_kantor"])
def test_inputs_at_standard_labels_equal_the_catalog(name):
    from matroidworks.catalog import catalog
    from matroidworks.matroid import matroid_from_json_dict

    assert matroid_from_json_dict(inputs.matroid_json(name, None)) == catalog(name)


def test_generated_configurations_have_the_expected_sizes():
    assert len(inputs.matroid_json("desargues", None)["bases"]) == 120 - 10
    assert len(inputs.matroid_json("k5", None)["bases"]) == 5 ** 3  # Cayley
    assert len(inputs.matroid_json("uniform(6,12)", None)["bases"]) == 924


def test_relabeling_depends_on_the_seed_only():
    assert inputs.matroid_json("desargues", 3) == inputs.matroid_json("desargues", 3)
    assert inputs.matroid_json("desargues", 3) != inputs.matroid_json("desargues", 4)
    assert sorted(inputs.relabeling("desargues", 10, 3)) == list(range(1, 11))


def test_every_query_has_a_reference():
    for workload in WORKLOADS.values():
        for _, name, args in workload.queries:
            assert check.query_key(args, name) in REFERENCE


# -- reference values that are theorems -----------------------------------------


def _verdicts(name):
    return REFERENCE[f"realization --profile | {name}"]["verdicts"]


def test_fano_realizable_only_in_characteristic_two():
    for char, verdict in _verdicts("fano").items():
        assert verdict == ("NonEmpty" if char == "2" else "Empty")
    for char, verdict in _verdicts("non_fano").items():
        assert verdict == ("Empty" if char == "2" else "NonEmpty")


def test_vamos_empty_in_every_characteristic():
    assert set(_verdicts("vamos").values()) == {"Empty"}


@pytest.mark.parametrize("name, qmax, least", [("uniform(3,6)", 13, 4), ("uniform(3,7)", 8, 7)])
def test_uniform_arcs_exist_exactly_from_the_known_q(name, qmax, least):
    table = REFERENCE[f"realizable-q --qmax {qmax} | {name}"]["table"]
    assert table == {q: int(q) >= least for q in table}


def test_tutte_at_one_one_counts_bases():
    for key, value in REFERENCE.items():
        if key.startswith("invariants | "):
            name = key.split(" | ")[1]
            assert value["num_bases"] == len(inputs.matroid_json(name, None)["bases"])
            info = REFERENCE.get(f"info --aut | {name}") or REFERENCE[f"info | {name}"]
            assert info["num_bases"] == value["num_bases"]


def _reduced(characteristic_abs):
    """Coefficients of chi(q) / (q - 1), descending, by synthetic division."""
    signed = [c * (-1) ** i for i, c in enumerate(characteristic_abs)]
    out = [signed[0]]
    for c in signed[1:-1]:
        out.append(c + out[-1])
    assert signed[-1] + out[-1] == 0  # q = 1 is a root
    return out


def test_omega_bar_is_the_reduced_characteristic_polynomial():
    for key, value in REFERENCE.items():
        if key.startswith("chow | "):
            assert value["match"] and value["omega_bar"] == value["reduced_characteristic"]
            inv = REFERENCE.get(f"invariants | {key.split(' | ')[1]}")
            if inv is not None:
                assert _reduced(inv["characteristic_coefficients"]) == value["omega_bar"]


# -- the checker -------------------------------------------------------------


def test_tampered_output_counts_as_failed():
    from matroidworks.cli import main

    args, name = ["realization", "--profile"], "fano"
    path = inputs.write_inputs([name], 1, os.path.join(run.OUT_DIR, "test-tamper"))[name]

    def tampered(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        report = json.loads(out.getvalue())
        report["profile"][0]["verdict"] = "NonEmpty"
        print(json.dumps(report))
        return code

    honest = run.Runner(main, [(PROFILE, name, args)], {name: path}, REFERENCE)
    honest.query(0)
    assert honest.failures == []
    runner = run.Runner(tampered, [(PROFILE, name, args)], {name: path}, REFERENCE)
    runner.query(0)
    assert runner.attempted == 1 and len(runner.failures) == 1


def test_nonzero_exit_counts_as_failed():
    why = check.check(REFERENCE, ["realization", "--profile"], "fano", 3, "")
    assert why == "exit code 3"


# -- the runner ----------------------------------------------------------------


def test_smoke_run_emits_every_end_to_end_metric(monkeypatch):
    result, text = _run_tiny(monkeypatch, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY.queries)
    declared = {m["name"]: m["unit"] for m in _bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ["wall_s", "realization_profile_s", "realizable_q_s", "chow_volumes_s",
                 "chow_kahler_s", "invariants_s", "info_s", "failed_frac", "peak_rss_mb"]:
        assert f"  {name} " in text


def test_traced_runs_repeat_their_counts(monkeypatch):
    first, _ = _run_tiny(monkeypatch, trace=1)
    second, _ = _run_tiny(monkeypatch, trace=1)
    declared = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared

    def counts(result):
        return {
            k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")
        }

    assert counts(first) == counts(second)
    assert counts(first)["groebner.buchberger.calls"] > 0
    assert counts(first)["chow.graded_dimensions.dim_sum"] == 1 + 8 + 1  # k4
    # fano's q-table asks for characteristic 2 at q = 2, 4 and 8
    assert counts(first)["realization.realization_space.reuse_ratio"] == (7 + 6) / (7 + 9)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, None, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["inner", 5.0, 6.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
    ]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_tracer_restores_every_boundary():
    import importlib

    cli = importlib.import_module("matroidworks.cli")
    before = cli.realization_space
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.realization_space is not before
    tracer.uninstall()
    assert cli.realization_space is before
