"""Corpus ingestion and batch runs over the bundled catalog file."""

import json
from pathlib import Path

import pytest

from matroidworks.catalog import graphic_k4, pappus, uniform
from matroidworks.corpus import (
    is_simple,
    load_corpus,
    parse_corpus,
    parse_filter,
    run_corpus,
)
from matroidworks.errors import InputError, budget
from matroidworks.matroid import matroid_from_bases, matroid_to_json_dict

DATA = Path(__file__).parent / "data" / "catalog_corpus.json"


def entry_dict(identifier, m, **meta):
    return {
        "id": identifier,
        "matroid": matroid_to_json_dict(m),
        "meta": meta,
    }


def test_bundled_corpus_loads():
    entries = load_corpus(str(DATA))
    assert [e.identifier for e in entries] == [
        "fano",
        "non_fano",
        "moebius_kantor",
        "pappus",
        "vamos",
        "k4",
    ]
    assert all(isinstance(e.meta, dict) for e in entries)


def test_bundled_corpus_realizability():
    entries = load_corpus(str(DATA))
    summary = run_corpus(entries)
    assert summary.total == 6
    assert summary.selected == 6
    assert summary.count_true == 4
    assert summary.count_false == 2
    assert summary.count_undecided == 0
    assert summary.count_error == 0
    by_id = {r.identifier: r.status for r in summary.results}
    assert by_id == {
        "fano": "false",
        "non_fano": "true",
        "moebius_kantor": "true",
        "pappus": "true",
        "vamos": "false",
        "k4": "true",
    }


def test_rank_filter():
    entries = load_corpus(str(DATA))
    summary = run_corpus(entries, filter_spec="rank=3")
    by_id = {r.identifier: r.status for r in summary.results}
    assert by_id["vamos"] == "filtered"
    assert summary.selected == 5
    assert summary.total == 6
    assert summary.count_true == 4
    assert summary.count_false == 1


def test_simple_filter_predicate():
    assert is_simple(graphic_k4())
    assert is_simple(uniform(3, 5))
    assert not is_simple(uniform(1, 2))  # parallel pair
    assert not is_simple(matroid_from_bases(3, [[1, 2]]))  # loop
    pred = parse_filter("simple")
    assert pred(graphic_k4()) and not pred(uniform(1, 2))
    assert parse_filter(None) is None
    with pytest.raises(InputError):
        parse_filter("rank=x")
    with pytest.raises(InputError):
        parse_filter("girth=3")


def test_parse_rejects_bad_shapes():
    with pytest.raises(InputError):
        parse_corpus([])  # not a dict
    with pytest.raises(InputError):
        parse_corpus({"entries": "nope"})
    with pytest.raises(InputError):
        parse_corpus({"entries": [{"matroid": {}}]})  # missing id
    with pytest.raises(InputError):
        parse_corpus({"entries": [{"id": "", "matroid": {}}]})
    k4 = entry_dict("a", graphic_k4())
    with pytest.raises(InputError):
        parse_corpus({"entries": [k4, dict(k4)]})  # duplicate id
    bad = {"id": "broken", "matroid": {"n": 2, "bases": [[1], [1, 2]]}}
    with pytest.raises(InputError) as exc:
        parse_corpus({"entries": [bad]})
    assert "broken" in str(exc.value)


def test_load_reports_json_position():
    path = Path("/tmp/corpus_malformed.json")
    path.write_text('{"entries": [\n  {"id" "x"}\n]}')
    with pytest.raises(InputError) as exc:
        load_corpus(str(path))
    assert "line 2" in str(exc.value)


def test_empty_corpus():
    summary = run_corpus(parse_corpus({"entries": []}))
    assert summary.total == 0
    assert summary.selected == 0
    assert summary.results == ()


def test_undecided_counts_as_undecided():
    # a starved pair budget cannot certify the Pappus ideal either way
    entries = parse_corpus({"entries": [entry_dict("p9", pappus())]})
    with budget(pair_reductions=1):
        summary = run_corpus(entries)
    assert summary.count_undecided == 1
    assert summary.count_true == summary.count_false == 0
    assert summary.results[0].status == "undecided"


def test_json_dict_shape():
    entries = load_corpus(str(DATA))
    d = run_corpus(entries).to_json_dict()
    assert d["action"] == "realizable-char0"
    assert d["total"] == 6 and d["true"] == 4 and d["false"] == 2
    assert {r["status"] for r in d["results"]} == {"true", "false"}
    assert all(set(r) == {"id", "status", "detail"} for r in d["results"])
