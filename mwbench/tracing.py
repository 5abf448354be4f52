"""Spans and counts recorded from outside the library, at its public calls.

A boundary is a module or class attribute through which callers reach a
layer.  ``Tracer.install`` swaps each one for a wrapper that records a span
(name, start, end, parent span, query id) and the boundary's counts, and
``Tracer.uninstall`` puts the originals back.  A function imported into two
modules has two bindings (``realization.buchberger`` and
``groebner.buchberger``), so both are wrapped under one span name.

Only coarse calls are wrapped.  Per-term hot paths (``Poly.evaluate``,
``ChowRing.multiply_by_flat``, field operations) are left alone: a Python
wrapper there would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _count_basis_len(tracer, args, result):
    tracer.counts["groebner.buchberger.basis_len"] += len(result)


def _count_substitutions(tracer, args, result):
    tracer.counts["groebner.eliminate_linear_variables.substitutions"] += len(result.substitutions)


def _count_divide_hit(tracer, args, result):
    tracer.counts["polynomials.exact_divide.hits"] += result is not None


def _force_graded_dimensions(tracer, args, result):
    # Elimination is lazy; asking for the dimensions right after building
    # the ring gives it its own span instead of spreading it over callers.
    tracer.counts["chow.graded_dimensions.dim_sum"] += sum(result.graded_dimensions())


def _distinct_per_query(name, key):
    def count(tracer, args, result):
        tracer.distinct[name].add((tracer.query, key(args)))

    return count


# (module, attribute path, span name, count hook or None).  Each span name
# is also the prefix of its per-layer metrics.
BOUNDARIES = [
    ("groebner", "buchberger", "groebner.buchberger", _count_basis_len),
    ("realization", "buchberger", "groebner.buchberger", _count_basis_len),
    ("chow", "buchberger", "groebner.buchberger", _count_basis_len),
    ("groebner", "saturate", "groebner.saturate", None),
    ("realization", "saturate", "groebner.saturate", None),
    ("realization", "eliminate_linear_variables", "groebner.eliminate_linear_variables", _count_substitutions),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("realization", "normal_form", "groebner.normal_form", None),
    ("groebner", "exact_divide", "polynomials.exact_divide", _count_divide_hit),
    ("realization", "exact_divide", "polynomials.exact_divide", _count_divide_hit),
    ("linalg", "MinorOracle.det", "linalg.MinorOracle.det", None),
    # Self time of is_realizable_over_q is the point search: its only
    # traced child is the realization_space call.
    ("realization", "is_realizable_over_q", "realization.point_search", None),
    (
        "realization",
        "realization_space",
        "realization.realization_space",
        _distinct_per_query("realization.realization_space", lambda a: (a[0], a[1])),
    ),
    (
        "cli",
        "realization_space",
        "realization.realization_space",
        _distinct_per_query("realization.realization_space", lambda a: (a[0], a[1])),
    ),
    ("cli", "chow_ring", "chow.chow_ring", _force_graded_dimensions),
    ("chow", "ChowRing.graded_dimensions", "chow.graded_dimensions", None),
    ("cli", "reduced_char_coefficients_via_volumes", "chow.reduced_char_coefficients_via_volumes", None),
    ("cli", "kahler_report", "chow.kahler_report", None),
    ("linalg", "ExactMatrix.rank", "linalg.ExactMatrix.rank", None),
    ("linalg", "ExactMatrix.kernel_basis", "linalg.ExactMatrix.kernel_basis", None),
    ("linalg", "ExactMatrix.is_positive_definite", "linalg.ExactMatrix.is_positive_definite", None),
    ("matroid", "matroid_from_bases", "matroid.matroid_from_bases", None),
    (
        "cli",
        "tutte_polynomial",
        "invariants.tutte_polynomial",
        _distinct_per_query("invariants.tutte_polynomial", lambda a: a[0]),
    ),
    (
        "invariants",
        "tutte_polynomial",
        "invariants.tutte_polynomial",
        _distinct_per_query("invariants.tutte_polynomial", lambda a: a[0]),
    ),
    ("cli", "characteristic_polynomial", "invariants.characteristic_polynomial", None),
    ("invariants", "characteristic_polynomial", "invariants.characteristic_polynomial", None),
    ("cli", "ingleton_violation", "invariants.ingleton_violation", None),
    ("matroid", "Matroid.flats", "matroid.Matroid.flats", None),
    ("matroid", "Matroid.circuits", "matroid.Matroid.circuits", None),
    ("cli", "automorphism_group", "symmetry.automorphism_group", None),
]

# Per-layer metrics: (name, unit).  Self times and call counts come from
# spans, the rest from the count hooks.  A layer with no work on a workload
# reads 0 there.
_TIMED = [
    ("groebner.buchberger", True),
    ("groebner.saturate", True),
    ("groebner.eliminate_linear_variables", False),
    ("groebner.normal_form", True),
    ("polynomials.exact_divide", True),
    ("linalg.MinorOracle.det", True),
    ("realization.point_search", False),
    ("realization.realization_space", True),
    ("chow.chow_ring", False),
    ("chow.graded_dimensions", False),
    ("chow.reduced_char_coefficients_via_volumes", False),
    ("chow.kahler_report", False),
    ("linalg.ExactMatrix.rank", True),
    ("linalg.ExactMatrix.kernel_basis", True),
    ("linalg.ExactMatrix.is_positive_definite", True),
    ("matroid.matroid_from_bases", True),
    ("invariants.tutte_polynomial", True),
    ("invariants.characteristic_polynomial", True),
    ("invariants.ingleton_violation", False),
    ("matroid.Matroid.flats", False),
    ("matroid.Matroid.circuits", False),
    ("symmetry.automorphism_group", False),
]
PER_LAYER = (
    [(f"{span}.self_s", "s") for span, _ in _TIMED]
    + [(f"{span}.calls", "count") for span, with_calls in _TIMED if with_calls]
    + [
        ("groebner.buchberger.basis_len", "count"),
        ("groebner.eliminate_linear_variables.substitutions", "count"),
        ("polynomials.exact_divide.hit_ratio", "ratio"),
        ("realization.realization_space.reuse_ratio", "ratio"),
        ("chow.graded_dimensions.dim_sum", "count"),
        ("invariants.tutte_polynomial.reuse_ratio", "ratio"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id]
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.query = None
        self._stack = []
        self._saved = []

    def span(self, name: str, fn, count=None):
        """fn wrapped so that each call records one span under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            record = [name, time.perf_counter(), None, parent, self.query]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, path, name, count in BOUNDARIES:
            owner = importlib.import_module(f"matroidworks.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover.

        Calls are strictly nested on one thread, so a span's child coverage
        is the sum of its direct children's durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def layer_metrics(self, pass_s: float) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, and each self
        time's share of the pass, for a tracer that saw one pass of pass_s."""
        self_s = self.self_times()
        out = {}
        for span, _ in _TIMED:
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
            out[f"{span}.self_pct"] = 100 * out[f"{span}.self_s"] / pass_s
        for name, unit in PER_LAYER:
            if unit == "count":
                out[name] = self.counts[name]
        out["polynomials.exact_divide.hit_ratio"] = _ratio(
            self.counts["polynomials.exact_divide.hits"],
            self.counts["polynomials.exact_divide.calls"],
        )
        for span in ("realization.realization_space", "invariants.tutte_polynomial"):
            out[f"{span}.reuse_ratio"] = _ratio(
                len(self.distinct[span]), self.counts[f"{span}.calls"]
            )
        return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
