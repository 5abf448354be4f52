"""Command-line behavior: exit codes, JSON reports, file handling."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from matroidworks.catalog import fano, graphic_k4, vamos
from matroidworks.cli import main
from matroidworks.matroid import (
    matroid_from_bases,
    matroid_from_graph,
    matroid_from_json_dict,
    matroid_to_json_dict,
)

CORPUS = str(Path(__file__).parent / "data" / "catalog_corpus.json")


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + ["--format", "json"])
    return rc, json.loads(out), err


def test_info_json_round_trips_matroid(capsys):
    rc, d, _ = run_json(capsys, ["info", "--name", "k4"])
    assert rc == 0
    assert d["n"] == 6
    assert d["rank"] == 3
    assert d["num_bases"] == 16
    assert set(d["flats_by_rank"]) == {"0", "1", "2", "3"}
    assert matroid_from_json_dict(d["matroid"]) == graphic_k4()


def test_info_aut_flag(capsys):
    rc, d, _ = run_json(capsys, ["info", "--name", "fano", "--aut"])
    assert rc == 0
    assert d["automorphism_group_order"] == 168
    rc, d, _ = run_json(capsys, ["info", "--name", "fano"])
    assert "automorphism_group_order" not in d


def test_info_text_mode(capsys):
    rc, out, _ = run(capsys, ["info", "--name", "k4"])
    assert rc == 0
    assert "rank" in out and "3" in out


def test_info_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matroid_to_json_dict(fano())))
    rc, d, _ = run_json(capsys, ["info", "--file", str(path)])
    assert rc == 0
    assert d["n"] == 7 and d["num_bases"] == 28


def test_info_file_rank_is_optional_but_checked(capsys, tmp_path):
    path = tmp_path / "m.json"
    shape = {"n": 4, "bases": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]]}
    path.write_text(json.dumps(shape))
    rc, d, _ = run_json(capsys, ["info", "--file", str(path)])
    assert rc == 0
    assert d["rank"] == 2 and d["num_bases"] == 5
    path.write_text(json.dumps(dict(shape, rank=3)))
    rc, _, err = run(capsys, ["info", "--file", str(path)])
    assert rc == 2
    assert "rank" in err


def test_source_required_and_exclusive(capsys):
    rc, _, err = run(capsys, ["info"])
    assert rc == 2
    rc, _, err = run(capsys, ["info", "--name", "k4", "--file", "x.json"])
    assert rc == 2
    rc, _, err = run(capsys, ["info", "--name", "no_such_matroid"])
    assert rc == 2
    assert "no_such_matroid" in err
    rc, _, err = run(capsys, ["info", "--file", "/tmp/definitely_not_here.json"])
    assert rc == 2


def test_malformed_file_reports_position(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3,\n "bases" []}')
    rc, _, err = run(capsys, ["info", "--file", str(path)])
    assert rc == 2
    assert "line 2" in err


def test_realization_single_characteristic(capsys):
    rc, d, _ = run_json(capsys, ["realization", "--name", "pappus"])
    assert rc == 0
    assert d["verdict"] == "NonEmpty"
    assert len(d["free_variables"]) == 2
    assert d["ideal_generators"] == []
    assert len(d["inequations"]) == 7
    rc, d, _ = run_json(capsys, ["realization", "--name", "fano", "--char", "2"])
    assert rc == 0
    assert d["verdict"] == "NonEmpty"
    assert d["free_variables"] == []


def test_realization_profile(capsys):
    rc, d, _ = run_json(capsys, ["realization", "--name", "fano", "--profile"])
    assert rc == 0
    verdicts = {row["characteristic"]: row["verdict"] for row in d["profile"]}
    assert verdicts == {
        0: "Empty",
        2: "NonEmpty",
        3: "Empty",
        5: "Empty",
        7: "Empty",
        11: "Empty",
        13: "Empty",
    }


def test_realization_profile_takes_no_char(capsys):
    # --profile sweeps every characteristic; a --char beside it would be
    # ignored, so it is bad input
    for char in ("5", "0"):
        rc, out, err = run(
            capsys, ["realization", "--name", "fano", "--profile", "--char", char]
        )
        assert (rc, out) == (2, "")
        assert "--char" in err
    # without --char, the default is characteristic 0
    assert run(capsys, ["realization", "--name", "fano"]) == run(
        capsys, ["realization", "--name", "fano", "--char", "0"]
    )


def test_realization_no_simplify(capsys):
    rc, d, _ = run_json(
        capsys, ["realization", "--name", "fano", "--char", "2", "--no-simplify"]
    )
    assert rc == 0
    assert d["verdict"] == "NonEmpty"
    assert d["substitutions"] == []


def test_realization_undecided_exit_code(capsys):
    rc, d, _ = run_json(
        capsys, ["realization", "--name", "pappus", "--budget-gb", "1"]
    )
    assert rc == 3
    assert d["verdict"] == "Undecided"


def test_realizable_q_table(capsys):
    rc, d, _ = run_json(
        capsys, ["realizable-q", "--name", "moebius_kantor", "--qmax", "13"]
    )
    assert rc == 0
    table = {row["q"]: row["realizable"] for row in d["table"]}
    assert {q for q, ok in table.items() if ok} == {3, 4, 7, 9, 13}
    rc, _, _ = run(capsys, ["realizable-q", "--name", "k4", "--qmax", "1"])
    assert rc == 2


def test_realizable_q_budget(capsys):
    rc, _, err = run(
        capsys,
        # the search over F_5 tries 20 values and finds no point
        ["realizable-q", "--name", "pappus", "--qmax", "11", "--budget-search", "19"],
    )
    assert rc == 3
    assert "budget" in err.lower()
    rc, _, _ = run(
        capsys,
        ["realizable-q", "--name", "pappus", "--qmax", "11", "--budget-search", "20"],
    )
    assert rc == 0


def test_realizable_q_counts_nodes_not_assignments(capsys):
    # 13^6 assignments exceed the default 2,000,000 search nodes, but the
    # first-witness walk visits at most 170 nodes for any q here
    rc, d, _ = run_json(
        capsys, ["realizable-q", "--name", "uniform(3,7)", "--qmax", "13"]
    )
    assert rc == 0
    assert {row["q"] for row in d["table"] if row["realizable"]} == {7, 8, 9, 11, 13}


@pytest.mark.parametrize("flag", ["--budget-gb", "--budget-search"])
def test_negative_budget_is_bad_input(capsys, flag):
    rc, _, err = run(capsys, ["realizable-q", "--name", "fano", flag, "-3"])
    assert rc == 2
    assert "-3" in err


def test_zero_budget_allows_no_work(capsys):
    # fano's presentations need no S-pair reduction and no search node
    assert run(capsys, ["realizable-q", "--name", "fano", "--budget-gb", "0"])[0] == 0
    assert run(capsys, ["realization", "--name", "fano", "--budget-gb", "0"])[0] == 0
    assert run(capsys, ["realizable-q", "--name", "fano", "--budget-search", "0"])[0] == 0
    assert run(capsys, ["realization", "--name", "pappus", "--budget-gb", "0"])[0] == 3
    rc, _, err = run(
        capsys, ["realizable-q", "--name", "pappus", "--budget-search", "0"]
    )
    assert rc == 3 and "exceeded 0 nodes" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["chow", "--name", "fano", "--budget-gb", "5"],
        ["chow", "--name", "fano", "--budget-search", "5"],
        ["invariants", "--name", "fano", "--budget-gb", "5"],
        ["invariants", "--name", "fano", "--budget-search", "5"],
        ["realization", "--name", "fano", "--budget-search", "5"],
        ["corpus", CORPUS, "--budget-search", "5"],
    ],
)
def test_budget_flags_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} 5" in capsys.readouterr().err


def test_info_aut_reads_search_budget(capsys):
    rc, _, err = run(
        capsys, ["info", "--name", "pappus", "--aut", "--budget-search", "5"]
    )
    assert rc == 3
    assert "isomorphism search exceeded 5 nodes" in err


def test_invariants_k4(capsys):
    rc, d, _ = run_json(capsys, ["invariants", "--name", "k4"])
    assert rc == 0
    assert d["tutte"] == "x^3 + y^3 + 3*x^2 + 4*x*y + 3*y^2 + 2*x + 2*y"
    assert d["num_bases"] == 16
    assert d["characteristic"] == "q^3 - 6*q^2 + 11*q - 6"
    assert d["characteristic_coefficients_abs"] == [1, 6, 11, 6]
    assert d["log_concave"] is True
    assert d["reduced_characteristic"] == "q^2 - 5*q + 6"
    assert d["ingleton_violation"] is None


def test_invariants_vamos_witness(capsys):
    rc, d, _ = run_json(capsys, ["invariants", "--name", "vamos"])
    assert rc == 0
    assert d["ingleton_violation"] == [[1, 2], [3, 4], [5, 6], [7, 8]]


def test_invariants_with_loop(capsys, tmp_path):
    path = tmp_path / "loopy.json"
    m = matroid_from_bases(3, [[1, 2]])
    path.write_text(json.dumps(matroid_to_json_dict(m)))
    rc, d, _ = run_json(capsys, ["invariants", "--file", str(path)])
    assert rc == 0
    assert d["characteristic"] == "0"
    assert d["reduced_characteristic"] is None


def test_chow_summary(capsys):
    rc, d, _ = run_json(capsys, ["chow", "--name", "k4"])
    assert rc == 0
    assert d["graded_dimensions"] == [1, 8, 1]
    assert d["omega_bar"] == [1, -5, 6]
    assert d["reduced_characteristic_descending"] == [1, -5, 6]
    assert d["volumes_match_reduced_characteristic"] is True


def test_chow_uniform_5_7(capsys):
    # read off the lattice of flats; by elimination this took about 30 s
    rc, d, _ = run_json(capsys, ["chow", "--name", "uniform(5,7)"])
    assert rc == 0
    assert d["graded_dimensions"] == [1, 92, 337, 92, 1]
    assert d["omega_bar"] == [1, -6, 15, -20, 15]
    assert d["volumes_match_reduced_characteristic"] is True


def test_chow_kahler_uniform_5_7(capsys):
    # from pairings in about 0.3 s; by elimination this took about 10 s.
    # The digest is of the report the elimination engine printed.
    rc, out, _ = run(
        capsys,
        ["chow", "--name", "uniform(5,7)", "--k", "1", "--ell", "beta", "--format", "json"],
    )
    assert rc == 0
    d = json.loads(out)
    assert d["kernel_dimension"] == 91
    assert d["poincare_nondegenerate"] is True
    assert d["hard_lefschetz_iso"] is False
    assert d["hodge_riemann_definite"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "50c3118c1eaf7c9516911826c67dd4dc80ecafde98c76d4b0af64bf3e43c2fc2"
    )


def _relabelings(n):
    """Three fixed permutations; each moves the lowest element 1."""
    return [
        list(range(n, 0, -1)),
        [(i + 3) % n + 1 for i in range(n)],
        random.Random(n).sample(range(1, n + 1), n),
    ]


@pytest.mark.parametrize(
    "m",
    [vamos(), matroid_from_graph(list(itertools.combinations(range(1, 6), 2)))],
    ids=["vamos", "k5"],
)
def test_chow_json_is_label_free(capsys, tmp_path, m):
    # the degree map anchors on the lowest element, which each relabeling
    # changes; the report must not depend on that choice
    outputs = set()
    for t, perm in enumerate([list(range(1, m.n + 1))] + _relabelings(m.n)):
        relabeled = matroid_from_bases(
            m.n, [[perm[e - 1] for e in b] for b in m.basis_lists()]
        )
        path = tmp_path / f"m{t}.json"
        path.write_text(json.dumps(matroid_to_json_dict(relabeled)))
        rc, out, _ = run(capsys, ["chow", "--file", str(path), "--format", "json"])
        assert rc == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_chow_pairing_report(capsys):
    rc, d, _ = run_json(capsys, ["chow", "--name", "k4", "--k", "1", "--ell", "beta"])
    assert rc == 0
    assert d["ell"] == "beta"
    assert d["k"] == 1
    assert d["kernel_dimension"] == 7
    assert d["mat1"] == d["mat2"]
    assert d["poincare_nondegenerate"] is True
    assert d["hard_lefschetz_iso"] is True
    assert d["hodge_riemann_definite"] is True


def test_chow_ell_needs_k(capsys):
    # without --k the plain report would ignore --ell, so it is bad input
    for ell in ("alpha", "beta"):
        rc, out, err = run(capsys, ["chow", "--name", "k4", "--ell", ell])
        assert (rc, out) == (2, "")
        assert "--ell" in err
    # with --k, the default is alpha
    for fmt in ("text", "json"):
        argv = ["chow", "--name", "k4", "--k", "1", "--format", fmt]
        assert run(capsys, argv) == run(capsys, argv + ["--ell", "alpha"])


def test_no_seed_flag(capsys):
    # results never depended on a seed, so the CLI takes none
    with pytest.raises(SystemExit) as exc:
        main(["info", "--name", "k4", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_chow_guards(capsys, tmp_path):
    rc, _, err = run(capsys, ["chow", "--name", "k4", "--k", "5"])
    assert rc == 4
    path = tmp_path / "loopy.json"
    path.write_text(json.dumps(matroid_to_json_dict(matroid_from_bases(3, [[1, 2]]))))
    rc, _, err = run(capsys, ["chow", "--file", str(path)])
    assert rc == 4
    assert "loop" in err.lower()


def test_corpus_json(capsys):
    rc, d, _ = run_json(capsys, ["corpus", CORPUS])
    assert rc == 0
    assert (d["total"], d["true"], d["false"]) == (6, 4, 2)


def test_corpus_text_and_filter(capsys):
    rc, out, _ = run(capsys, ["corpus", CORPUS])
    assert rc == 0
    assert "4 of 6 selected entries realizable over characteristic 0" in out
    rc, d, _ = run_json(capsys, ["corpus", CORPUS, "--filter", "rank=3"])
    assert rc == 0
    assert d["selected"] == 5
    statuses = {r["id"]: r["status"] for r in d["results"]}
    assert statuses["vamos"] == "filtered"


def test_corpus_takes_no_action_flag(capsys):
    # realizability in characteristic 0 is the only run, so there is no
    # --action to choose it
    with pytest.raises(SystemExit) as exc:
        main(["corpus", CORPUS, "--action", "realizable-char0"])
    assert exc.value.code == 2
    assert "--action" in capsys.readouterr().err


def test_corpus_missing_file(capsys):
    rc, _, err = run(capsys, ["corpus", "/tmp/definitely_not_here.json"])
    assert rc == 2


def test_deterministic_output(capsys):
    rc1, out1, _ = run(capsys, ["chow", "--name", "k4", "--format", "json"])
    rc2, out2, _ = run(capsys, ["chow", "--name", "k4", "--format", "json"])
    assert (rc1, out1) == (rc2, out2)
