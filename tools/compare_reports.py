"""Check that two source trees give the same solver answers.

Usage, from the repository root, with OLD a checkout of the commit to
compare against:

    python3 tools/compare_reports.py --before OLD/src --after src
    python3 tools/compare_reports.py --before OLD/src --after src --nodes-may-fall

Each side runs in a fresh interpreter that has only its own source tree
on its path, and prints one record per call.  A record is the call's
SolveReport.to_json_dict() without elapsed_ms (so nodes_explored,
bounds_used, the certificate and the status all count), or, for
plain_coalition_number, its value.  The calls:

- c_l_exact on P_3..P_19, C_3..C_19, every graph of order <= 7 (connected
  or not) and every tree of order 9 and 10;
- c_l_at_least for k = 1..n+1 on every graph of order <= 6, P_15 and C_14;
- c_l_exact, and c_l_at_least for k = 1..n+1, under node caps of 1, 10,
  100, 1,000 and 20,000 on P_12, P_15 and C_15;
- plain_coalition_number on every graph of order <= 6.

Exits 1 and prints the first call whose records differ, or exits 0 and
prints the number of calls compared.  With --nodes-may-fall, for a change
that only prunes more, a SolveReport record may differ in nodes_explored
alone, and only downward: every answer, bound, certificate and status
must still be equal.  The node totals of both sides are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CAPS = (1, 10, 100, 1_000, 20_000)


def _calls():
    """(label, thunk) for every call compared, in a fixed order."""
    from locdom.census import enumerate_graphs, enumerate_trees
    from locdom.families import cycle, path
    from locdom.solver import Budget, c_l_at_least, c_l_exact, plain_coalition_number

    def report(rep):
        doc = rep.to_json_dict()
        del doc["elapsed_ms"]
        return doc

    def name(g):
        return g.name or f"n={g.n} {g.edges()}"

    small = [g for n in range(1, 7) for g in enumerate_graphs(n, connected_only=False)]
    exact = [path(n) for n in range(3, 20)] + [cycle(n) for n in range(3, 20)]
    exact += small + enumerate_graphs(7, connected_only=False)
    exact += enumerate_trees(9) + enumerate_trees(10)
    for g in exact:
        yield f"c_l_exact({name(g)})", lambda g=g: report(c_l_exact(g))
    for g in small + [path(15), cycle(14)]:
        for k in range(1, g.n + 2):
            yield f"c_l_at_least({name(g)}, {k})", lambda g=g, k=k: report(c_l_at_least(g, k))
    for g in (path(12), path(15), cycle(15)):
        for cap in CAPS:
            yield (
                f"c_l_exact({name(g)}, nodes={cap})",
                lambda g=g, cap=cap: report(c_l_exact(g, Budget(nodes=cap))),
            )
            for k in range(1, g.n + 2):
                yield (
                    f"c_l_at_least({name(g)}, {k}, nodes={cap})",
                    lambda g=g, k=k, cap=cap: report(c_l_at_least(g, k, Budget(nodes=cap))),
                )
    for g in small:
        yield f"plain_coalition_number({name(g)})", lambda g=g: plain_coalition_number(g)


def _records(src: str) -> list[list]:
    """[label, record] for every call, computed by a fresh interpreter
    that imports locdom from src alone."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", src],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(proc.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before", help="source tree (the directory holding locdom) of the old side")
    ap.add_argument("--after", help="source tree of the new side")
    ap.add_argument(
        "--nodes-may-fall", action="store_true",
        help="let nodes_explored fall, never rise; everything else must be equal",
    )
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # child: one side
    args = ap.parse_args()
    if args.measure:
        sys.path.insert(0, args.measure)
        import locdom

        if Path(args.measure).resolve() not in Path(locdom.__file__).resolve().parents:
            raise SystemExit(f"locdom was imported from {locdom.__file__}, not {args.measure}")
        print(json.dumps([[label, call()] for label, call in _calls()]))
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    before, after = _records(args.before), _records(args.after)
    for old, new in zip(before, after):
        if args.nodes_may_fall and isinstance(old[1], dict) and isinstance(new[1], dict):
            old_rest, new_rest = dict(old[1]), dict(new[1])
            if old_rest.pop("nodes_explored") >= new_rest.pop("nodes_explored"):
                old, new = [old[0], old_rest], [new[0], new_rest]
        if old != new:
            print(f"before {old[0]}: {json.dumps(old[1])}\nafter  {new[0]}: {json.dumps(new[1])}")
            sys.exit(1)
    if len(before) != len(after):
        print(f"the sides made {len(before)} and {len(after)} calls")
        sys.exit(1)
    nodes = [sum(r[1]["nodes_explored"] for r in side if isinstance(r[1], dict)) for side in (before, after)]
    same = "equal but for nodes_explored, which never rose" if args.nodes_may_fall else "equal"
    print(f"{len(before)} calls compared, all {same}; nodes_explored {nodes[0]:,} -> {nodes[1]:,}")


if __name__ == "__main__":
    main()
