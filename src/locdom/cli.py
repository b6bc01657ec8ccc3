"""Command-line interface: gamma-l, cl, check-partition,
coalition-graph, and the reproduce suite, with stable exit codes and
versioned JSON reports."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .coalition import (
    LdcCertificate,
    Partition,
    PartitionError,
    coalition_graph,
    verify_ldc_partition,
)
from .families import parse_family_spec
from .graph import Graph, GraphFormatError
from .graphio import parse_any
from .ld import gamma_l
from .repro import run_claims
from .solver import (
    SCHEMA_VERSION,
    Budget,
    BudgetExceeded,
    c_l_at_least,
    c_l_exact,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 4


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        help="family spec like cycle:12, path:7, complete:4, star:5, "
        "complete_bipartite:2,3, spider:3,2,2, prism:5, mobius:4, gp:5,2, "
        "k4_minus_e, h_graph, c5_plus_e",
    )
    p.add_argument(
        "--file",
        help="graph file: graph6 line or edge list (optional count line, "
        "then one 'u v' pair per line)",
    )


def _add_budget_args(p: argparse.ArgumentParser, nodes: bool = True) -> None:
    p.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="wall-clock cap for searches (default: LDC_BUDGET_SECONDS)",
    )
    if nodes:
        p.add_argument(
            "--budget-nodes", type=int, default=None, help="search node cap"
        )


def _budget(args) -> Budget:
    """The budget of a gamma-l, cl or reproduce run.  Only these read
    LDC_BUDGET_SECONDS, so a malformed value fails them alone; gamma-l
    has no node cap."""
    seconds, source = args.budget_seconds, "--budget-seconds"
    env = os.environ.get("LDC_BUDGET_SECONDS")
    if seconds is None and env:
        source = "LDC_BUDGET_SECONDS"
        try:
            seconds = float(env)
        except ValueError:
            raise ValueError(f"{source} is not a number: {env!r}")
    if seconds is not None and not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"{source} must be positive and finite")
    nodes = getattr(args, "budget_nodes", None)
    if nodes is not None and nodes <= 0:
        raise ValueError("--budget-nodes must be positive")
    return Budget(seconds=seconds, nodes=nodes)


def _load_graph(args) -> Graph:
    sources = sum(1 for s in (args.family, args.file) if s)
    if sources > 1:
        raise ValueError("give exactly one input source (--family or --file)")
    if args.family:
        return parse_family_spec(args.family)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse_any(fh.read())
    text = sys.stdin.read()
    if not text.strip():
        raise GraphFormatError("empty graph input on stdin")
    return parse_any(text)


def _read_partition(path: str, g: Graph) -> Partition:
    parts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                parts.append([int(tok) for tok in line.split()])
            except ValueError:
                raise PartitionError(
                    f"line {lineno}: vertex indices must be integers"
                )
    if not parts:
        raise PartitionError("partition file has no parts")
    return Partition(parts, g.n)


def _report(args, doc: dict, text: Optional[str] = None) -> None:
    """Write a subcommand's report.  stdout gets the text rendering, or
    the JSON document under --json or when there is no text; --output
    FILE always also gets the JSON document."""
    data = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(data)
    sys.stdout.write(data if text is None or getattr(args, "json", False) else text)


def cmd_gamma_l(args) -> int:
    g = _load_graph(args)
    value, witness = gamma_l(g, _budget(args).deadline)  # past it: exit 4
    w = witness.to_sorted_list()
    text = f"gamma_l = {value}\nwitness = {{" + ", ".join(map(str, w)) + "}\n"
    _report(args, {"gamma_l": value, "witness": w}, text)
    return EXIT_OK


def cmd_cl(args) -> int:
    g = _load_graph(args)
    budget = _budget(args)
    if args.at_least is not None:
        rep = c_l_at_least(g, args.at_least, budget=budget)
    else:
        rep = c_l_exact(g, budget=budget)
    _report(args, rep.to_json_dict())
    return EXIT_OK if rep.status in ("exact", "none") else EXIT_BUDGET


def cmd_check_partition(args) -> int:
    g = _load_graph(args)
    p = _read_partition(args.partition, g)
    verdict = verify_ldc_partition(g, p)
    if not isinstance(verdict, LdcCertificate):
        doc = {
            "valid": False,
            "part_index": verdict.part_index,
            "reason": verdict.reason,
        }
        _report(args, doc, f"invalid: {verdict.reason}\n")
        return EXIT_FAIL
    doc = {
        "valid": True,
        "parts": [q.to_sorted_list() for q in p],
        "partners": list(verdict.partners),
    }
    text = f"valid LDC-partition with {len(p)} parts\n" + "".join(
        f"part {i} partners part {j}\n" for i, j in enumerate(verdict.partners)
    )
    _report(args, doc, text)
    return EXIT_OK


def cmd_coalition_graph(args) -> int:
    g = _load_graph(args)
    p = _read_partition(args.partition, g)
    verdict = verify_ldc_partition(g, p)
    if not isinstance(verdict, LdcCertificate):
        print(f"invalid: {verdict.reason}", file=sys.stderr)
        return EXIT_FAIL
    cg = coalition_graph(g, p)
    sys.stdout.write(cg.to_dot())
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rep = run_claims(only=args.only, budget=_budget(args))
    if not rep.results:
        print(f"no claims match --only {args.only!r}", file=sys.stderr)
        return EXIT_PARSE
    _report(args, rep.to_json_dict(), rep.to_tsv())
    if rep.budget_hit:
        return EXIT_BUDGET
    return EXIT_OK if rep.overall_pass else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ldc",
        description="locating dominating sets and LDC-partitions",
    )
    ap.add_argument(
        "--version", action="version", version=f"locdom {__version__}"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma-l", help="location-domination number with witness")
    _add_input_args(p)
    _add_budget_args(p, nodes=False)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--output", help="also write the JSON report to a file")
    p.set_defaults(fn=cmd_gamma_l)

    p = sub.add_parser("cl", help="maximum LDC-partition size")
    _add_input_args(p)
    _add_budget_args(p)
    p.add_argument(
        "--at-least",
        type=int,
        default=None,
        metavar="K",
        help="decision mode: decide C_L >= K, with a certificate of at least "
        "K parts, or 'none', an exhaustive proof that C_L < K",
    )
    p.add_argument("--output", help="also write the JSON report to a file")
    p.set_defaults(fn=cmd_cl)

    p = sub.add_parser(
        "check-partition", help="verify a partition file against a graph"
    )
    _add_input_args(p)
    p.add_argument(
        "partition",
        help="file with one part per line, vertex indices space-separated",
    )
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--output", help="also write the JSON report to a file")
    p.set_defaults(fn=cmd_check_partition)

    p = sub.add_parser(
        "coalition-graph", help="DOT coalition graph of a valid partition"
    )
    _add_input_args(p)
    p.add_argument(
        "partition",
        help="file with one part per line, vertex indices space-separated",
    )
    p.set_defaults(fn=cmd_coalition_graph)

    p = sub.add_parser("reproduce", help="rerun the frozen computational claims")
    _add_budget_args(p)
    p.add_argument(
        "--only", default=None, help="run only claims whose id contains this"
    )
    p.add_argument("--json", action="store_true", help="JSON report")
    p.add_argument("--output", help="also write the JSON report to a file")
    p.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphFormatError, PartitionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
