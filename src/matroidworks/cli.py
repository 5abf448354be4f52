"""The mw command line: inspect matroids, run realization and Chow reports.

Subcommands: info, realization, realizable-q, invariants, chow, corpus.
Matroids come from the catalog (--name, including uniform(r,n)) or from a
JSON file (--file).  Output is --format text (session style) or json; only
the JSON shape is contractual.  Exit codes: 0 success, 2 parse error,
3 budget exceeded, 4 mathematical precondition violated.  A subcommand
takes only the budget flags it reads, and runs under the Budget they set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quoted

from .catalog import catalog
from .chow import (
    alpha_element,
    beta_element,
    chow_ring,
    kahler_report,
    reduced_char_coefficients_via_volumes,
)
from .corpus import load_corpus, run_corpus
from .errors import (
    Budget,
    BudgetError,
    InputError,
    LoopPresent,
    MatroidworksError,
    PreconditionError,
    budget,
)
from .invariants import (
    characteristic_polynomial,
    coefficients_descending,
    ingleton_violation,
    is_log_concave,
    reduced_characteristic_polynomial,
    tutte_polynomial,
)
from .matroid import (
    Matroid,
    matroid_from_json_dict,
    matroid_to_json_dict,
)
from .polynomials import poly_str
from .realization import (
    SpaceVerdict,
    realization_space,
    realization_spaces,
    realizability_table,
)
from .symmetry import automorphism_group

PROFILE_CHARACTERISTICS = (0, 2, 3, 5, 7, 11, 13)

# Budget flags: (flag, the Budget field it sets, help).
BUDGET_GB = ("--budget-gb", "pair_reductions", "cap on Groebner pair reductions")
BUDGET_SEARCH = ("--budget-search", "search_nodes", "cap on search nodes visited")


def _add_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--name", help="catalog matroid, e.g. fano or uniform(2,4)")
    sub.add_argument("--file", help="path to a matroid JSON file")


def _add_common(sub: argparse.ArgumentParser, *budget_flags) -> None:
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    for flag, field, text in budget_flags:
        sub.add_argument(flag, type=int, dest=field, metavar="N", help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mw", description="computational matroid workbench"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="rank, bases, circuits, flats")
    _add_source(p)
    _add_common(p, BUDGET_SEARCH)
    p.add_argument(
        "--aut", action="store_true", help="also compute the automorphism group order"
    )
    p.set_defaults(handler=cmd_info)

    p = subs.add_parser("realization", help="realization space over one characteristic")
    _add_source(p)
    _add_common(p, BUDGET_GB)
    p.add_argument(
        "--char", type=int, metavar="C", help="characteristic (default 0)"
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="verdict table over char 0 and primes up to 13; takes no --char",
    )
    p.add_argument(
        "--no-simplify",
        action="store_true",
        help="keep the raw minor presentation",
    )
    p.set_defaults(handler=cmd_realization)

    p = subs.add_parser("realizable-q", help="realizability over GF(q) up to a bound")
    _add_source(p)
    _add_common(p, BUDGET_GB, BUDGET_SEARCH)
    p.add_argument("--qmax", type=int, default=13, metavar="Q")
    p.set_defaults(handler=cmd_realizable_q)

    p = subs.add_parser("invariants", help="Tutte, characteristic, Ingleton")
    _add_source(p)
    _add_common(p)
    p.set_defaults(handler=cmd_invariants)

    p = subs.add_parser("chow", help="Chow ring volumes and Kaehler report")
    _add_source(p)
    _add_common(p)
    p.add_argument("--k", type=int, metavar="K", help="Kaehler report in degree K")
    p.add_argument(
        "--ell",
        choices=("alpha", "beta"),
        help="Lefschetz element (default alpha); needs --k",
    )
    p.set_defaults(handler=cmd_chow)

    p = subs.add_parser(
        "corpus", help="realizability in characteristic 0 over a corpus file"
    )
    p.add_argument("corpus_file", metavar="FILE")
    p.add_argument("--filter", default=None, help="simple or rank=k")
    _add_common(p, BUDGET_GB)
    p.set_defaults(handler=cmd_corpus)
    return parser


def _load_matroid(args) -> Matroid:
    if (args.name is None) == (args.file is None):
        raise InputError("give exactly one of --name or --file")
    if args.name is not None:
        return catalog(args.name)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc.strerror}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{args.file}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return matroid_from_json_dict(data)


def _indented(obj, pad: str = "\n") -> str:
    """Exactly the text of ``json.dumps(obj, indent=2)`` for string-keyed
    dicts, with lists of ints or strings, and int matrices, joined in C."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        body = (f"{_quoted(k)}: {_indented(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    kinds = set(map(type, obj))
    if kinds == {int}:
        body = map(int.__repr__, obj)
    elif kinds == {str}:
        body = map(_quoted, obj)
    elif (
        type(obj) is list
        and kinds == {list}
        and all(obj)
        and set(map(type, chain.from_iterable(obj))) == {int}
    ):
        # repr gives "[[1, 2], [3]]"; the row break first, as it holds ", "
        deeper = inner + "  "
        rows = repr(obj)[2:-2].replace("], [", f"{inner}],{inner}[{deeper}")
        rows = rows.replace(", ", "," + deeper)
        return f"[{inner}[{deeper}{rows}{inner}]{pad}]"
    else:
        body = (_indented(x, inner) for x in obj)
    return "[" + inner + ("," + inner).join(body) + pad + "]"


def _emit(args, report: dict, text_lines) -> None:
    if args.fmt == "json":
        print(_indented(report))
    else:
        for line in text_lines:
            print(line)


# -- info -------------------------------------------------------------------


def cmd_info(args) -> int:
    m = _load_matroid(args)
    flats_by_rank = {}
    for r in range(m.rank + 1):
        flats_by_rank[str(r)] = m.flats(r).as_lists()
    report = {
        "matroid": matroid_to_json_dict(m),
        "n": m.n,
        "rank": m.rank,
        "num_bases": len(m.bases),
        "loops": list(m.loops()),
        "circuits": m.circuits().as_lists(),
        "flats_by_rank": flats_by_rank,
    }
    if args.aut:
        report["automorphism_group_order"] = automorphism_group(m).order

    lines = [
        f"ground set: 1..{m.n}",
        f"rank: {m.rank}",
        f"bases: {len(m.bases)}",
        f"loops: {report['loops']}",
        f"circuits: {report['circuits']}",
    ]
    for r in range(m.rank + 1):
        lines.append(f"flats of rank {r}: {flats_by_rank[str(r)]}")
    if args.aut:
        lines.append(
            f"automorphism group order: {report['automorphism_group_order']}"
        )
    _emit(args, report, lines)
    return 0


# -- realization ------------------------------------------------------------


def _space_lines(d: dict) -> list[str]:
    """The text report of a realization space from its JSON dict."""
    lines = [
        f"characteristic: {d['characteristic']}",
        f"basis: {d['basis']}",
        "matrix:",
    ]
    widths = [max(map(len, column)) for column in zip(*d["matrix"])]
    for row in d["matrix"]:
        cells = "  ".join(c.rjust(w) for c, w in zip(row, widths))
        lines.append(f"  [{cells}]")
    lines.append(f"ideal generators ({len(d['ideal_generators'])}):")
    for g in d["ideal_generators"]:
        lines.append(f"  {g}")
    lines.append(f"inequations ({len(d['inequations'])}):")
    for u in d["inequations"]:
        lines.append(f"  {u}")
    if d["substitutions"]:
        lines.append(f"eliminated ({len(d['substitutions'])}):")
        for s in d["substitutions"]:
            lines.append(
                f"  {s['variable']} = ({s['numerator']}) / ({s['denominator']})"
            )
    lines.append(f"free variables ({len(d['free_variables'])}): {d['free_variables']}")
    lines.append(f"verdict: {d['verdict']}")
    return lines


def cmd_realization(args) -> int:
    if args.profile and args.char is not None:
        raise InputError("--profile covers every characteristic; drop --char")
    m = _load_matroid(args)
    simplify = not args.no_simplify
    if args.profile:
        rows = []
        any_undecided = False
        for space in realization_spaces(m, PROFILE_CHARACTERISTICS, simplify):
            any_undecided |= space.verdict is SpaceVerdict.UNDECIDED
            rows.append(
                {
                    "characteristic": space.characteristic,
                    "verdict": space.verdict.value,
                    "free_variables": space.num_free_variables,
                }
            )
        report = {"profile": rows}
        lines = ["char  verdict    free"]
        for r in rows:
            lines.append(
                f"{r['characteristic']:>4}  {r['verdict']:<9}  {r['free_variables']}"
            )
        _emit(args, report, lines)
        return 3 if any_undecided else 0
    char = 0 if args.char is None else args.char
    space = realization_space(m, char, simplify=simplify)
    report = space.to_json_dict()
    _emit(args, report, _space_lines(report))
    return 3 if space.verdict is SpaceVerdict.UNDECIDED else 0


# -- realizable-q -----------------------------------------------------------


def cmd_realizable_q(args) -> int:
    m = _load_matroid(args)
    if args.qmax < 2:
        raise InputError("--qmax must be at least 2")
    table = realizability_table(m, args.qmax)
    rows = [{"q": q, "realizable": table[q]} for q in sorted(table)]
    report = {"qmax": args.qmax, "table": rows}
    lines = [f"q={r['q']}: {'yes' if r['realizable'] else 'no'}" for r in rows]
    _emit(args, report, lines)
    return 0


# -- invariants -------------------------------------------------------------


def cmd_invariants(args) -> int:
    m = _load_matroid(args)
    t = tutte_polynomial(m)
    chi = characteristic_polynomial(m)
    coeffs = [abs(c) for c in coefficients_descending(chi)]
    report = {
        "tutte": poly_str(t),
        "num_bases": int(t.evaluate({0: 1, 1: 1})),
        "characteristic": poly_str(chi),
        "characteristic_coefficients_abs": coeffs,
        "log_concave": is_log_concave(chi),
    }
    try:
        red = reduced_characteristic_polynomial(m)
        report["reduced_characteristic"] = poly_str(red)
    except LoopPresent as exc:
        report["reduced_characteristic"] = None
        report["reduced_characteristic_note"] = str(exc)
    witness = ingleton_violation(m)
    report["ingleton_violation"] = (
        None if witness is None else [list(part) for part in witness]
    )
    lines = [
        f"Tutte: {report['tutte']}",
        f"bases T(1,1): {report['num_bases']}",
        f"characteristic: {report['characteristic']}",
        f"log-concave: {'yes' if report['log_concave'] else 'no'}",
    ]
    if report["reduced_characteristic"] is None:
        lines.append(f"reduced characteristic: {report['reduced_characteristic_note']}")
    else:
        lines.append(f"reduced characteristic: {report['reduced_characteristic']}")
    if witness is None:
        lines.append("Ingleton: no violation found")
    else:
        lines.append(f"Ingleton violated at {report['ingleton_violation']}")
    _emit(args, report, lines)
    return 0


# -- chow -------------------------------------------------------------------


def cmd_chow(args) -> int:
    if args.k is None and args.ell is not None:
        raise InputError("--ell needs --k")
    m = _load_matroid(args)
    ring = chow_ring(m)
    if args.k is None:
        omega = list(reduced_char_coefficients_via_volumes(ring))
        red = list(coefficients_descending(reduced_characteristic_polynomial(m)))
        report = {
            "graded_dimensions": list(ring.graded_dimensions()),
            "omega_bar": omega,
            "reduced_characteristic_descending": red,
            "volumes_match_reduced_characteristic": omega == red,
        }
        lines = [
            f"graded dimensions: {report['graded_dimensions']}",
            f"omega-bar volumes: {omega}",
            f"reduced characteristic: {red}",
            f"match: {'yes' if report['volumes_match_reduced_characteristic'] else 'no'}",
        ]
        _emit(args, report, lines)
        return 0
    name = args.ell or "alpha"
    ell = alpha_element(ring) if name == "alpha" else beta_element(ring)
    rep = kahler_report(ring, args.k, ell)
    report = {"ell": name} | rep.to_json_dict()
    lines = [
        f"k: {args.k}  ell: {name}",
        f"dim A^{args.k}: {ring.graded_dimension(args.k)}",
        f"Poincare pairing nondegenerate: {rep.poincare_nondegenerate}",
        f"hard Lefschetz isomorphism: {rep.hard_lefschetz_iso}",
        f"Hodge-Riemann definite on kernel (dim {len(rep.kernel)}): "
        f"{rep.hodge_riemann_definite}",
    ]
    _emit(args, report, lines)
    return 0


# -- corpus -----------------------------------------------------------------


def cmd_corpus(args) -> int:
    entries = load_corpus(args.corpus_file)
    summary = run_corpus(entries, filter_spec=args.filter)
    report = summary.to_json_dict()
    lines = []
    for r in summary.results:
        detail = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{r.identifier}: {r.status}{detail}")
    lines.append(
        f"{summary.count_true} of {summary.selected} selected entries realizable "
        f"over characteristic 0 "
        f"({summary.count_false} not, {summary.count_undecided} undecided, "
        f"{summary.count_error} errors; {summary.total} total)"
    )
    _emit(args, report, lines)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limits = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(Budget)
        if getattr(args, f.name, None) is not None
    }
    try:
        with budget(**limits):
            return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except MatroidworksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
