"""File-based matroid corpus: strict JSON ingestion and batch runs.

A corpus file carries `{"entries": [{"id": ..., "matroid": {...}, "meta":
{...}}, ...]}` with identifiers unique across the file.  A run decides
realizability in characteristic 0 one entry at a time; individual
failures are recorded on the entry and never abort the run, and entries
whose computation exhausts a budget are counted as undecided rather than
as refusals.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InputError, MatroidworksError
from .matroid import Matroid, matroid_from_json_dict
from .realization import UNDECIDED, is_realizable


@dataclass(frozen=True)
class CorpusEntry:
    identifier: str
    matroid: Matroid
    meta: dict


@dataclass(frozen=True)
class EntryResult:
    identifier: str
    status: str  # "true" | "false" | "undecided" | "error" | "filtered"
    detail: str = ""


def _counted(status: str) -> property:
    return property(lambda self: sum(r.status == status for r in self.results))


@dataclass(frozen=True)
class CorpusSummary:
    """One result per entry, in input order; the counts are read off them."""

    filter_spec: Optional[str]
    results: tuple
    count_true = _counted("true")
    count_false = _counted("false")
    count_undecided = _counted("undecided")
    count_error = _counted("error")

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def selected(self) -> int:
        return sum(r.status != "filtered" for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "action": "realizable-char0",
            "filter": self.filter_spec,
            "total": self.total,
            "selected": self.selected,
            "true": self.count_true,
            "false": self.count_false,
            "undecided": self.count_undecided,
            "error": self.count_error,
            "results": [
                {"id": r.identifier, "status": r.status, "detail": r.detail}
                for r in self.results
            ],
        }


def parse_corpus(data) -> tuple[CorpusEntry, ...]:
    """Validate an already-decoded corpus object."""
    if not isinstance(data, dict):
        raise InputError("corpus must be a JSON object")
    raw = data.get("entries")
    if not isinstance(raw, list):
        raise InputError('corpus needs an "entries" list')
    entries = []
    seen = set()
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise InputError(f"entry {i} is not an object")
        ident = item.get("id")
        if not isinstance(ident, str) or not ident:
            raise InputError(f"entry {i} needs a nonempty string id")
        if ident in seen:
            raise InputError(f"duplicate corpus identifier {ident!r}")
        seen.add(ident)
        if "matroid" not in item:
            raise InputError(f"entry {ident!r} has no matroid")
        try:
            m = matroid_from_json_dict(item["matroid"])
        except InputError as exc:
            raise InputError(f"entry {ident!r}: {exc}") from exc
        meta = item.get("meta", {})
        if not isinstance(meta, dict):
            raise InputError(f"entry {ident!r}: meta must be an object")
        entries.append(CorpusEntry(ident, m, dict(meta)))
    return tuple(entries)


def load_corpus(path: str) -> tuple[CorpusEntry, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read corpus file {path}: {exc.strerror}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"corpus JSON is malformed at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return parse_corpus(data)


def is_simple(m: Matroid) -> bool:
    """No loops and no two elements parallel."""
    if m.loops():
        return False
    elems = list(range(1, m.n + 1))
    for a, b in itertools.combinations(elems, 2):
        if m.rank_of((1 << (a - 1)) | (1 << (b - 1))) < 2:
            return False
    return True


def parse_filter(spec: Optional[str]) -> Optional[Callable[[Matroid], bool]]:
    if spec is None:
        return None
    s = spec.strip()
    if s == "simple":
        return is_simple
    if s.startswith("rank="):
        try:
            k = int(s[5:])
        except ValueError:
            raise InputError(f"bad rank filter {spec!r}") from None
        return lambda m: m.rank == k
    raise InputError(f"unknown filter {spec!r}; expected 'simple' or 'rank=k'")


def run_corpus(entries, filter_spec: Optional[str] = None) -> CorpusSummary:
    """Decide realizability in characteristic 0 for the entries, in input
    order.

    Each entry is independent, so failures stay local: a bad entry is
    reported and the run moves on.
    """
    pred = parse_filter(filter_spec)
    return CorpusSummary(filter_spec, tuple(_run_entry(e, pred) for e in entries))


def _run_entry(entry: CorpusEntry, pred) -> EntryResult:
    if pred is not None and not pred(entry.matroid):
        return EntryResult(entry.identifier, "filtered")
    try:
        verdict = is_realizable(entry.matroid, 0)
    except MatroidworksError as exc:
        return EntryResult(entry.identifier, "error", f"{type(exc).__name__}: {exc}")
    if verdict is UNDECIDED:
        return EntryResult(entry.identifier, "undecided", "budget exhausted")
    return EntryResult(entry.identifier, "true" if verdict else "false")
