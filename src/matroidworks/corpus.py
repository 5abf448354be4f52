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


@dataclass(frozen=True)
class CorpusSummary:
    filter_spec: Optional[str]
    results: tuple
    total: int
    selected: int
    count_true: int
    count_false: int
    count_undecided: int
    count_error: int

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
    results = []
    n_true = n_false = n_und = n_err = n_sel = 0
    for entry in entries:
        if pred is not None and not pred(entry.matroid):
            results.append(EntryResult(entry.identifier, "filtered"))
            continue
        n_sel += 1
        try:
            verdict = is_realizable(entry.matroid, 0)
        except MatroidworksError as exc:
            n_err += 1
            results.append(
                EntryResult(entry.identifier, "error", f"{type(exc).__name__}: {exc}")
            )
            continue
        if verdict is UNDECIDED:
            n_und += 1
            results.append(
                EntryResult(entry.identifier, "undecided", "budget exhausted")
            )
        elif verdict:
            n_true += 1
            results.append(EntryResult(entry.identifier, "true"))
        else:
            n_false += 1
            results.append(EntryResult(entry.identifier, "false"))
    return CorpusSummary(
        filter_spec=filter_spec,
        results=tuple(results),
        total=len(entries),
        selected=n_sel,
        count_true=n_true,
        count_false=n_false,
        count_undecided=n_und,
        count_error=n_err,
    )
