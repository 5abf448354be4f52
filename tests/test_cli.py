"""Command-line behavior: exit codes, JSON reports, file handling."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from matroidworks.catalog import fano, graphic_k4, vamos
from matroidworks import cli
from matroidworks.cli import _indented, main
from matroidworks.matroid import (
    matroid_from_bases,
    matroid_from_graph,
    matroid_from_json_dict,
    matroid_to_json_dict,
)
from test_realization import count_chart_choices, spy_on_rabinowitsch

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


def test_info_aut_of_a_uniform_matroid(capsys):
    # the stabilizer chain searches one automorphism per orbit point, so
    # 10! automorphisms take 54 search nodes
    rc, d, _ = run_json(capsys, ["info", "--aut", "--name", "uniform(5,10)"])
    assert rc == 0
    assert d["automorphism_group_order"] == 3628800


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


@pytest.mark.parametrize("extra", [[], ["--no-simplify"]], ids=["simplify", "no-simplify"])
def test_realization_profile_chooses_one_chart(capsys, monkeypatch, extra):
    # the chart depends only on the matroid: one sweep chooses it for all
    # seven characteristics
    chosen = count_chart_choices(monkeypatch)
    rc, d, _ = run_json(capsys, ["realization", "--name", "pappus", "--profile"] + extra)
    assert rc == 0
    assert len(d["profile"]) == 7
    assert len(chosen) == 1


def test_realization_of_rank_zero(capsys, tmp_path):
    # the empty matrix has no first row to size the columns from
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"n": 3, "bases": [[]]}))
    rc, d, _ = run_json(capsys, ["realization", "--file", str(path)])
    assert rc == 0
    assert (d["matrix"], d["variables"], d["verdict"]) == ([], [], "NonEmpty")
    rc, out, _ = run(capsys, ["realization", "--file", str(path)])
    assert rc == 0
    assert out.splitlines()[:4] == [
        "characteristic: 0",
        "basis: []",
        "matrix:",
        "ideal generators (0):",
    ]
    assert out.splitlines()[-1] == "verdict: NonEmpty"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--name", "moebius_kantor", "--budget-gb", "1"],
        ["--name", "vamos", "--no-simplify", "--budget-gb", "5"],
    ],
    ids=["moebius_kantor", "vamos-no-simplify"],
)
def test_realization_undecided_in_saturation(capsys, monkeypatch, argv):
    # the budget runs out in a Rabinowitsch run of saturate, not before it
    tripped = spy_on_rabinowitsch(monkeypatch)
    rc, d, _ = run_json(capsys, ["realization"] + argv)
    assert tripped
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


# SHA-256 of `mw chow --name N --k K --ell E --format json`, taken from the
# report of the dense eliminations that the sparse echelon replaced.
# uniform(5,6) at k = 2 takes the kernel of a 51 x 161 map.
KAHLER_DIGESTS = [
    ("fano", 0, "alpha", "afde40eefb9ad44c25dfb1d9009af9b8ab1ed548c9d454b576a97cd890bf5e72"),
    ("fano", 0, "beta", "cbcee9f2f097505857cb40a493ddb7c8ba00b9020a8aaeb325469cc65b4713a2"),
    ("fano", 1, "alpha", "75afbf33f0d96c5a861b7dc440455b8a23e16742e4ae21f74bae1fbc59bc6080"),
    ("fano", 1, "beta", "39c1527aa8c557501c370c1c23ace8058913c55cbbff5d0da4644827ea4ab8c1"),
    ("non_fano", 0, "alpha", "afde40eefb9ad44c25dfb1d9009af9b8ab1ed548c9d454b576a97cd890bf5e72"),
    ("non_fano", 0, "beta", "91c7579c5dd8c617b8d6c049cda07906a2a0ce052dd368223db534302e491181"),
    ("non_fano", 1, "alpha", "1dacd4151a993a12170e71847a2d9d1f445ff8ab3f36f6bc9d2fcaf28e6868a9"),
    ("non_fano", 1, "beta", "14953670af798aca3ac936c89362c53be9eac67a36a120016bd196019f07ebdb"),
    ("vamos", 0, "alpha", "a3374cfa42e3c7835806aa0f00ce24b1cbab6f6ce0689d36369b1ba972d0d54e"),
    ("vamos", 0, "beta", "012eada894a655cc55bbb1c259016b28b3b315b852accc0e2e2b856c0ef2c9fc"),
    ("vamos", 1, "alpha", "a773a45480f4d0ec5e8f33aa6b6c9e6d3df9ebefaa736c29501a8146750f1e92"),
    ("vamos", 1, "beta", "1b62631c294f274146137bd0d136194a5748b49d929410473929336287aa2ee0"),
    ("moebius_kantor", 0, "alpha", "afde40eefb9ad44c25dfb1d9009af9b8ab1ed548c9d454b576a97cd890bf5e72"),
    ("moebius_kantor", 0, "beta", "ad4844058dd5ab64985e3d742ae0e58718a5fca374383b2e134c96e469556e40"),
    ("moebius_kantor", 1, "alpha", "b56ee0d9cc76bfc254830afa29583c64942a941e980fd73c535fbb2dba089496"),
    ("moebius_kantor", 1, "beta", "f6cae2e465de385f6f6bef3f315c66fda1b22ba26517921c2f0ffa8f504fb27a"),
    ("pappus", 0, "alpha", "afde40eefb9ad44c25dfb1d9009af9b8ab1ed548c9d454b576a97cd890bf5e72"),
    ("pappus", 0, "beta", "e2160e9b18b301812699356caef32147747b1a8cbdbfc76e3cd22ab786f41a9f"),
    ("pappus", 1, "alpha", "24e16a93909759981a2cf1a6a422b931e2ab74d92aba5738683605ceeafad9da"),
    ("pappus", 1, "beta", "836709803ac1d12bfec5437d9f848149950ba49614e75cabe11a35007b909964"),
    ("k4", 0, "alpha", "afde40eefb9ad44c25dfb1d9009af9b8ab1ed548c9d454b576a97cd890bf5e72"),
    ("k4", 0, "beta", "96d54264074b836ff51f74a14ccea90f46505ab17677a8b92c59014aae8a8cc0"),
    ("k4", 1, "alpha", "3791f0592842ccedaecfff79bffbfb592f46ec55a4145b8a15c1d0589ff99830"),
    ("k4", 1, "beta", "3f9ea691c23f2551f4b27db2bc3fcb19ae57f3dc0eb075ab55c456aa9d4f1733"),
    ("uniform(5,6)", 2, "alpha", "f949423e284538749ed36e6395d055c34ce7005ab3579fcac7241b17aa564478"),
    ("uniform(5,6)", 2, "beta", "d8ec459db11b0c86f6404ee06590b1f8adf2520e63022410225c2b7c8389a716"),
]


@pytest.mark.parametrize(
    "name,k,ell,digest", KAHLER_DIGESTS, ids=[f"{n}-{k}-{e}" for n, k, e, _ in KAHLER_DIGESTS]
)
def test_chow_kahler_json_bytes(capsys, name, k, ell, digest):
    argv = ["chow", "--name", name, "--k", str(k), "--ell", ell, "--format", "json"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `mw realization --name N --char C [--no-simplify] --format json`.
REALIZATION_DIGESTS = [
    ("fano", 0, False, "2be206fe4489ee65e0d1ab371c8291fd0320c18e42e6686fed8fef778fc33cca"),
    ("fano", 2, False, "32ae1488efe0250808df847a0322b3a9ead6e4d04df273697a2e1597284b121e"),
    ("fano", 3, False, "15c76314405d577d3a806578a6cd6305d6dee350feb9322869eddd702dd85a89"),
    ("fano", 0, True, "5ab2bfb8a3db2dbdd576aeef03af7bc872c2838cc409eb229d49c8efc454c5e6"),
    ("fano", 2, True, "33ee5a63b7fc3a802311b23e8fb99812c5dd940c7bf691be510768f13704cbe7"),
    ("fano", 3, True, "9e0831852fac8eba543aaa804009253002334fb7b71cfcf772cc3c6df56fc9db"),
    ("non_fano", 0, False, "2c5126372aac1a1d3fbe5a3e9f1f8c1d3176b860fa2b4b532ace6b532116ef30"),
    ("non_fano", 2, False, "945f876362d77de5a8225bd2981334ac64414ace5ec5fa4bc0de632154ae45dd"),
    ("non_fano", 3, False, "daf57dd56d455a171d254a1d06456e5f2cf15cde48e183243a8a4bc07f45a1f1"),
    ("non_fano", 0, True, "e2488d1a11e16da97928da08ba20426ce2591f557fe36aa852d66a90098492bc"),
    ("non_fano", 2, True, "827ecf28059a6c1422a0e22415be3a14b37dfb8c3868696b1da93cc619c150af"),
    ("non_fano", 3, True, "03be23137b6f1f0b3b3d1736f83902c84d1fe3fa298d6110a42ae52fce9acc1b"),
    ("vamos", 0, False, "d7e01e1fd66e8fa0393579bb710aece9664fb4957d30ae0ab8b2bc3a9cb45cbe"),
    ("vamos", 2, False, "d9a38b7f48c8b0610a80ac3e6dc6a304fc68660e87e107266f3e4ee46de672ad"),
    ("vamos", 3, False, "e9b7ec49e9bdb9ad537d2c4c412c900c74a987cac6949add4a8ab630a8ada253"),
    ("vamos", 0, True, "46c5e94cc168a6377d0991eb06109f8a2f033f0eb93ffaea24a06001ea07b6ec"),
    ("vamos", 2, True, "8a426e7b9b87fb384bf93d554570f71c17c0fddd016cdeebcce1a3f743ebebbc"),
    ("vamos", 3, True, "403d437eb9a7a519b6205d63b3b175cc2fca7fb1b7cd76575bddba11cadde9ac"),
    ("moebius_kantor", 0, False, "22afc86a6d91e5fcf955644f096d9184df629b1951ab7be15983c95733a7a9ad"),
    ("moebius_kantor", 2, False, "5775c4aea1eb9b7b74d18eda2403821d87596cd8c3a0df2d0fedd3ff668d48a4"),
    ("moebius_kantor", 3, False, "da53f94e3d0f06f99e0fdb5e0144f104b551127ba3d39c59255afb726860f74e"),
    ("moebius_kantor", 0, True, "c9421b77bf88a52f0885340aba43a4a13a723b6a07d0de459e1ea50923a5f39f"),
    ("moebius_kantor", 2, True, "febeaf13fc1e133aa10fee090fae5ef8c42d50b20f54000564f3ec9dfb3ab906"),
    ("moebius_kantor", 3, True, "ceed2fd2ece644eae2eae62fb064f0acc570818066dacfb60c10f23280c84a02"),
    ("pappus", 0, False, "614f239cdd8130090dea41fd91ac9b0bee70e3c20cabe8a8ec36573d13319a23"),
    ("pappus", 2, False, "5a3af2319024945f2528d77d1dace29b4f5e482344296bb52a4dd9c5b83ae636"),
    ("pappus", 3, False, "f84ebe5d9b39b0de74fc42fbcc9e580b43175e7b435a9274c8e246c084e0d40e"),
    ("pappus", 0, True, "ae7e07261085c2cf91f8fc10c61b45de859c1e92803e64a2159e20575f864db0"),
    ("pappus", 2, True, "186a15c1f1c1eb7c9df4e9aaaf64a547b4d0341f2aa1eccc7c0757832594aab7"),
    ("pappus", 3, True, "7e295f157338c18681c7481a29db8c9e2cdfd9b6e534c5471974e55c50758799"),
    ("k4", 0, False, "2a00f959be67ed12a099b4812d55631b6d857670243d67ef831d06856531ac6c"),
    ("k4", 2, False, "1901f53aea141f8cc13927109e7bdb6ea4d37e08b81971ebcb0e650e018876a9"),
    ("k4", 3, False, "82cae51c3e1c14c690e423f878b63950a047dc224adfbaa6cd8688995f6adedb"),
    ("k4", 0, True, "c049fe4c8ecd69b09dac9bfa4ead6f368de9d4c7047edbe8b0afa11aec7d8cb2"),
    ("k4", 2, True, "bd2c75b04689bd9a4055cc7f23049806e664a0d888be4f75b606052ec1dfc329"),
    ("k4", 3, True, "bb32e01f7715b6db96f6e431dc80ee063cad0b8a17e925095fc1f816aa20479a"),
]


@pytest.mark.parametrize(
    "name,char,no_simplify,digest",
    REALIZATION_DIGESTS,
    ids=[f"{n}-{c}" + ("-no-simplify" if ns else "") for n, c, ns, _ in REALIZATION_DIGESTS],
)
def test_realization_json_bytes(capsys, name, char, no_simplify, digest):
    argv = ["realization", "--name", name, "--char", str(char), "--format", "json"]
    rc, out, _ = run(capsys, argv + (["--no-simplify"] if no_simplify else []))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `mw info` reports, taken from the json.dumps(indent=2) writer
# and the bit-at-a-time mask_elements that the byte table replaced.
INFO_DIGESTS = [
    (
        ["info", "--name", "uniform(6,12)", "--format", "json"],
        "ec71d88bc20d675b5afa99aa570d60cd10f3a6eae5a4aefbdcb061190b99b90e",
    ),
    (
        ["info", "--aut", "--name", "pappus", "--format", "json"],
        "a878192c9d3bcbd28fb7f431df0ccaab44674c36f4ac1b5457c412b1bc37099e",
    ),
    (
        ["info", "--aut", "--name", "pappus"],
        "63c733a5c956e721defcf4407602945dda1521886d0135583119e567849ef215",
    ),
    # past the subset-rank table's limit: greedy ranks and the closure search
    (
        ["info", "--name", "uniform(3,21)", "--format", "json"],
        "159566b799e04a12149a4c716e040aab3e1c656e96c3aee6f3eb596f9de4054f",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", INFO_DIGESTS, ids=["u612-json", "pappus-json", "pappus-text", "u321-json"]
)
def test_info_bytes(capsys, argv, digest):
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


STRINGS = [
    "", "x", '"quoted"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "caf\u00e9",
    "\u2603 \U0001f600", ", ", "], [", "[[1, 2]]", ": ",
]


def random_value(rng, depth):
    """A nested value of the kinds json.dumps takes: the writer's oracle."""
    kind = rng.randrange(11 if depth else 5)
    if kind == 0:
        return rng.choice([0, -1, 7, -(10**30), 2**64, rng.randint(-(10**6), 10**6)])
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.choice([0.5, -0.0, 1e300, 1 / 3, float("inf"), float("-inf"), float("nan")])
    if kind == 3:
        return rng.choice(STRINGS)
    if kind == 4:
        return rng.choice([[], {}, ()])
    size = rng.randint(1, 4)
    if kind == 5:
        return [rng.randint(-(2**70), 2**70) for _ in range(size)]
    if kind == 6:
        return [rng.choice(STRINGS) for _ in range(size)]
    if kind == 7:
        # int matrices, some with an empty row, a bool or a tuple row
        rows = [[rng.randint(-99, 10**20) for _ in range(rng.randint(0, 3))] for _ in range(size)]
        spoil = rng.randrange(4)
        if spoil == 1:
            rows[0].append(True)
        elif spoil == 2:
            rows[-1] = tuple(rows[-1])
        return rows
    if kind == 8:
        return tuple(random_value(rng, depth - 1) for _ in range(size))
    if kind == 9:
        return [random_value(rng, depth - 1) for _ in range(size)]
    return {rng.choice(STRINGS) + str(i): random_value(rng, depth - 1) for i in range(size)}


def test_indented_writer_matches_json_dumps():
    rng = random.Random(7)
    for _ in range(3000):
        value = random_value(rng, rng.randint(0, 4))
        assert _indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "--aut", "--name", "vamos"],
        ["info", "--name", "uniform(0,2)"],
        ["realization", "--name", "pappus", "--char", "0"],
        ["realization", "--name", "non_fano", "--char", "2", "--no-simplify"],
        ["realization", "--profile", "--name", "fano"],
        ["realizable-q", "--name", "fano", "--qmax", "5"],
        ["invariants", "--name", "vamos"],
        ["invariants", "--name", "k4"],
        ["chow", "--name", "k4"],
        ["chow", "--name", "fano", "--k", "1", "--ell", "beta"],
        ["corpus", CORPUS],
    ],
)
def test_json_reports_are_json_dumps(capsys, monkeypatch, argv):
    reports = []
    emit = cli._emit

    def spy(args, report, lines):
        reports.append(report)
        emit(args, report, lines)

    monkeypatch.setattr(cli, "_emit", spy)
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    assert rc == 0
    [report] = reports
    assert out == json.dumps(report, indent=2) + "\n"


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
            m.n, [[perm[e - 1] for e in b] for b in m.bases.as_lists()]
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


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "--aut", "--name", "pappus"],
        ["info", "--aut", "--name", "uniform(5,10)"],
        ["info", "--name", "uniform(6,12)"],
        ["chow", "--k", "1", "--ell", "beta", "--name", "vamos"],
        ["realization", "--profile", "--name", "fano"],
        ["realizable-q", "--name", "pappus", "--qmax", "13"],
        ["realization", "--profile", "--no-simplify", "--name", "non_fano"],
    ],
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    src = str(Path(__file__).parent.parent / "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "matroidworks.cli", *argv],
            env=env,
            capture_output=True,
            timeout=60,
        )
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
