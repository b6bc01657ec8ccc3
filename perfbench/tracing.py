"""Span tracing of locdom's layers, installed from outside the package.

No file of the package changes.  ``Tracer.install`` replaces each traced
function with a wrapper in every ``locdom`` module that holds it, because
modules import layer functions by name (``from .ld import is_ld_mask`` in
``solver``, ``coalition``, ``cyclepath`` and ``cubic``); patching only the
defining module would miss those calls.

A span records name, start, end and parent in flat arrays kept in memory,
plus the time its child spans covered, so self time is duration minus
cover.  The LD predicate is called about a million times per deep solve, so
it is a *leaf*: each call only adds to a call count and a time total.  A
span reads the leaf total when it opens and closes, and the difference
(less what its child spans already took) goes into its cover.

Traced rounds run at one worker, so every span is in this process.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
from pathlib import Path

clock = time.perf_counter

# (module, function, span name, reduce the result to a number to sum)
SPANS = (
    ("locdom.ld", "gamma_l", "ld.gamma_l", None),
    ("locdom.ld", "d_loc", "ld.d_loc", None),
    ("locdom.solver", "c_l_exact", "solver.c_l_exact", None),
    ("locdom.solver", "type_labels", "solver.type_labels", lambda labels: not labels),
    ("locdom.coalition", "verify_ldc_partition", "coalition.verify_ldc_partition", None),
    ("locdom.canon", "canonical_key", "canon.canonical_key", None),
    ("locdom.canon", "tree_canonical_key", "canon.tree_canonical_key", None),
    ("locdom.census", "enumerate_graphs", "census.enumerate_graphs", len),
    ("locdom.census", "enumerate_trees", "census.enumerate_trees", len),
)
LEAF = ("locdom.ld", "is_ld_mask", "ld.is_ld_mask")

_ARRAYS = (("name", "i"), ("parent", "q"), ("start", "d"), ("end", "d"), ("cover", "d"))


def _replace_everywhere(original, wrapper) -> int:
    """Point every locdom module attribute bound to ``original`` at
    ``wrapper``; returns how many bindings changed."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "locdom" or modname.startswith("locdom.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


class Tracer:
    """In-memory span store for one process; see the module docstring."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names = ["trace.root", *(span[2] for span in SPANS), LEAF[2]]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.arrays = {key: array.array(code) for key, code in _ARRAYS}
        self.sums = [0] * len(self.names)
        self.leaf_totals = lambda: (0, 0.0)  # (calls, seconds); set by install
        self.stack = [0]
        a = self.arrays
        a["name"].append(0)
        a["parent"].append(-1)
        a["start"].append(clock())
        a["end"].append(0.0)
        a["cover"].append(0.0)

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name, reduce=None):
        nid = self.ids[name]
        a = self.arrays
        names, parents, starts, ends, covers = (
            a["name"], a["parent"], a["start"], a["end"], a["cover"],
        )
        stack = self.stack
        sums = self.sums
        leaf_totals = self.leaf_totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            covers.append(0.0)
            stack.append(idx)
            leaf0 = leaf_totals()[1]
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                ends[idx] = t
                stack.pop()
                leaf = leaf_totals()[1] - leaf0
                covers[idx] += leaf
                covers[stack[-1]] += t - starts[idx] - leaf
            if reduce is not None:
                sums[nid] += reduce(result)
            return result

        return wrapper

    def _leaf(self, fn):
        calls = 0
        seconds = 0.0
        now = clock

        @functools.wraps(fn)
        def wrapper(*args):
            nonlocal calls, seconds
            t0 = now()
            result = fn(*args)
            seconds += now() - t0
            calls += 1
            return result

        def totals():
            return calls, seconds

        self.leaf_totals = totals
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every module that binds it.  The
        leaf goes first: span wrappers read its totals."""
        plan = [(LEAF[0], LEAF[1], self._leaf)]
        plan += [(m, f, lambda fn, n=n, r=r: self._span(fn, n, r)) for m, f, n, r in SPANS]
        for modname, fname, make in plan:
            original = getattr(importlib.import_module(modname), fname)
            if _replace_everywhere(original, make(original)) == 0:
                raise RuntimeError(f"{modname}.{fname} is bound nowhere")

    # -- output ----------------------------------------------------------

    def finish(self) -> None:
        """Close the root span and write the spans out."""
        self.arrays["end"][0] = clock()
        self.arrays["cover"][0] += self.leaf_totals()[1]
        header = {
            "names": self.names,
            "count": len(self.arrays["start"]),
            "leaf": self.leaf_totals(),
            "sums": self.sums,
        }
        with open(self.out_dir / "spans.bin", "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in _ARRAYS:
                self.arrays[key].tofile(fh)


# -- analysis (runs in run.py, after the traced round) ------------------


def analyse(out_dir: Path) -> dict:
    """Per span name: calls, self seconds, seconds of outermost calls (not
    nested in a call of the same name) and the summed result reductions."""
    with open(Path(out_dir) / "spans.bin", "rb") as fh:
        header = json.loads(fh.readline())
        spans = {}
        for key, code in _ARRAYS:
            arr = array.array(code)
            arr.fromfile(fh, header["count"])
            spans[key] = arr
    names = header["names"]
    stats = {
        name: {"calls": 0, "self_s": 0.0, "outer_s": 0.0, "sum": header["sums"][i]}
        for i, name in enumerate(names)
    }
    name_of = spans["name"]
    parent_of = spans["parent"]
    cover = spans["cover"]
    for idx in range(len(name_of)):
        nid = name_of[idx]
        name = names[nid]
        dur = spans["end"][idx] - spans["start"][idx]
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += dur - cover[idx]
        p = parent_of[idx]
        while p >= 0 and name_of[p] != nid:
            p = parent_of[p]
        if p < 0:
            st["outer_s"] += dur
    leaf_calls, leaf_s = header["leaf"]
    stats[LEAF[2]].update(calls=leaf_calls, self_s=leaf_s, outer_s=leaf_s)
    return stats
