"""The query list of each workload.

A query is (family, input name, mw arguments before ``--file``).  The
family names the end-to-end metric its time is summed into.  Why each
workload exists is recorded in ``mwbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

PROFILE = "realization_profile_s"
REALIZABLE_Q = "realizable_q_s"
CHOW_VOLUMES = "chow_volumes_s"
CHOW_KAHLER = "chow_kahler_s"
INVARIANTS = "invariants_s"
INFO = "info_s"

FAMILIES = (PROFILE, REALIZABLE_Q, CHOW_VOLUMES, CHOW_KAHLER, INVARIANTS, INFO)

_NON_UNIFORM = ["vamos", "pappus", "desargues", "k5", "moebius_kantor"]


@dataclass(frozen=True)
class Workload:
    # The two query families, reported as family_a_s and family_b_s.
    families: tuple[str, str]
    queries: list
    # False keeps the standard labels whatever the seed: on `realization`
    # the labeling moves the cost more than run-to-run noise (README, "Seeds").
    relabel: bool


WORKLOADS = {
    "realization": Workload(
        (PROFILE, REALIZABLE_Q),
        [
            (PROFILE, name, ["realization", "--profile"])
            for name in [
                "fano", "non_fano", "k4", "vamos", "pappus",
                "moebius_kantor", "desargues", "k5",
            ]
        ]
        + [
            (REALIZABLE_Q, name, ["realizable-q", "--qmax", "13"])
            for name in [
                "fano", "non_fano", "moebius_kantor", "pappus", "desargues",
                "uniform(3,6)",
            ]
        ]
        + [(REALIZABLE_Q, "uniform(3,7)", ["realizable-q", "--qmax", "8"])],
        relabel=False,
    ),
    "chow": Workload(
        (CHOW_VOLUMES, CHOW_KAHLER),
        [
            (CHOW_VOLUMES, name, ["chow"])
            for name in [
                "k4", "fano", "pappus", "desargues", "vamos", "uniform(4,7)",
                "k5", "uniform(4,8)",
            ]
        ]
        + [
            (CHOW_KAHLER, name, ["chow", "--k", "1", "--ell", "beta"])
            for name in ["pappus", "desargues", "vamos", "uniform(4,7)"]
        ]
        + [(CHOW_KAHLER, "k5", ["chow", "--k", "1", "--ell", "alpha"])],
        relabel=True,
    ),
    "combinatorics": Workload(
        (INVARIANTS, INFO),
        [
            (INVARIANTS, name, ["invariants"])
            for name in _NON_UNIFORM + ["uniform(5,10)", "uniform(6,12)"]
        ]
        + [(INFO, name, ["info", "--aut"]) for name in _NON_UNIFORM]
        + [(INFO, name, ["info"]) for name in ["uniform(5,10)", "uniform(6,12)"]],
        relabel=True,
    ),
}


def input_names(queries) -> list[str]:
    """The distinct inputs of a query list, in first-use order."""
    return list(dict.fromkeys(name for _, name, _ in queries))
