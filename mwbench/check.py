"""Output checks: isomorphism invariants of each query's JSON report.

Relabeling the ground set changes bases, circuits and matrices but not the
invariants extracted here, so every seed is checked against the one
reference table in ``reference.json`` (computed at the standard labeling by
``make_reference.py``).
"""

from __future__ import annotations

import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def query_key(args, name: str) -> str:
    return f"{' '.join(args)} | {name}"


def invariants(args, report: dict) -> dict:
    """The isomorphism invariants of one report of ``mw <args> --format json``."""
    command = args[0]
    if command == "realization":
        return {"verdicts": {str(r["characteristic"]): r["verdict"] for r in report["profile"]}}
    if command == "realizable-q":
        return {"table": {str(r["q"]): r["realizable"] for r in report["table"]}}
    if command == "chow" and "--k" in args:
        return {
            "poincare_nondegenerate": report["poincare_nondegenerate"],
            "hard_lefschetz_iso": report["hard_lefschetz_iso"],
            "hodge_riemann_definite": report["hodge_riemann_definite"],
            "kernel_dimension": report["kernel_dimension"],
        }
    if command == "chow":
        return {
            "graded_dimensions": report["graded_dimensions"],
            "omega_bar": report["omega_bar"],
            "reduced_characteristic": report["reduced_characteristic_descending"],
            "match": report["volumes_match_reduced_characteristic"],
        }
    if command == "invariants":
        return {
            "tutte": report["tutte"],
            "num_bases": report["num_bases"],
            "characteristic_coefficients": report["characteristic_coefficients_abs"],
            "reduced_characteristic": report["reduced_characteristic"],
            "ingleton_violated": report["ingleton_violation"] is not None,
        }
    if command == "info":
        out = {
            "num_bases": report["num_bases"],
            "num_circuits": len(report["circuits"]),
            "num_flats": [len(report["flats_by_rank"][str(r)]) for r in range(report["rank"] + 1)],
        }
        if "--aut" in args:
            out["automorphisms"] = report["automorphism_group_order"]
        return out
    raise ValueError(f"no invariants known for mw {command}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(reference: dict, args, name: str, code, stdout: str) -> str | None:
    """None when the query exited 0 with the reference invariants, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        got = invariants(args, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    want = reference.get(query_key(args, name))
    if got != want:
        return f"invariants {got} differ from reference {want}"
    return None
