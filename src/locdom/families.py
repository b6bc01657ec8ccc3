"""Named graph families with documented, canonical vertex labelings."""

from __future__ import annotations

from .graph import Graph


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1 in path order."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P_{n}")


def cycle(n: int) -> Graph:
    """C_n: vertices 0..n-1 consecutively around the cycle."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C_{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], name=f"K_{n}")


def star(n: int) -> Graph:
    """Star on n vertices total, i.e. K_{1,n-1} with center 0."""
    if n < 1:
        raise ValueError("star needs at least one vertex")
    return Graph(n, [(0, i) for i in range(1, n)], name=f"K_1,{n - 1}")


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with sides {0..a-1} and {a..a+b-1}."""
    if a < 1 or b < 1:
        raise ValueError("both sides of a complete bipartite graph must be non-empty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, name=f"K_{a},{b}")


def k4_minus_e() -> Graph:
    """K_4 with the edge {2,3} removed."""
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], name="K_4-e")


def h_graph() -> Graph:
    """Triangle {0,1,2} with a pendant vertex 3 attached at 2."""
    return Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], name="H")


def c5_plus_e() -> Graph:
    """C_5 (0-1-2-3-4-0) plus the chord {0,2}; all chords are equivalent."""
    g = cycle(5)
    return Graph(5, g.edges() + [(0, 2)], name="C_5+e")


def spider(l1: int, l2: int, l3: int) -> Graph:
    """Three-leg spider: center 0, legs of the given lengths laid out
    consecutively (first leg uses vertices 1..l1, and so on)."""
    legs = (l1, l2, l3)
    if any(l < 1 for l in legs):
        raise ValueError("spider legs must have length at least 1")
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges, name=f"spider({l1},{l2},{l3})")


def prism(k: int) -> Graph:
    """Circular ladder: two k-cycles joined by a perfect matching."""
    if k < 3:
        raise ValueError("prism needs k >= 3")
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((k + i, k + (i + 1) % k))
        edges.append((i, k + i))
    return Graph(2 * k, edges, name=f"prism_{k}")


def mobius_ladder(k: int) -> Graph:
    """Cycle on 2k vertices plus all antipodal chords."""
    if k < 3:
        raise ValueError("mobius ladder needs k >= 3")
    n = 2 * k
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + k) for i in range(k)]
    return Graph(n, edges, name=f"mobius_{n}")


def generalized_petersen(n: int, k: int) -> Graph:
    """Outer n-cycle, spokes, and an inner cycle with step k."""
    if n < 3 or not (1 <= k < n) or 2 * k == n:
        raise ValueError(
            f"generalized Petersen graph needs n >= 3, 1 <= k <= n - 1 and 2k != n; got n={n}, k={k}"
        )
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return Graph(2 * n, edges, name=f"GP({n},{k})")


_FIXED = {
    "k4_minus_e": k4_minus_e,
    "h_graph": h_graph,
    "c5_plus_e": c5_plus_e,
}

_PARAMETRIC = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "star": (star, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "spider": (spider, 3),
    "prism": (prism, 1),
    "mobius": (mobius_ladder, 1),
    "gp": (generalized_petersen, 2),
}


def generate(family: str, *params: int) -> Graph:
    """Build a named family member, e.g. generate("cycle", 12)."""
    if family in _FIXED:
        if params:
            raise ValueError(f"family {family!r} takes no parameters")
        return _FIXED[family]()
    if family in _PARAMETRIC:
        fn, arity = _PARAMETRIC[family]
        if len(params) != arity:
            raise ValueError(f"family {family!r} needs {arity} parameter(s), got {len(params)}")
        return fn(*params)
    raise ValueError(f"unknown family {family!r}")


def parse_family_spec(spec: str) -> Graph:
    """Parse the one-line mini-syntax name:params, e.g. cycle:12,
    spider:3,2,2 or gp:5,2."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower().replace("-", "_")
    if rest.strip():
        try:
            params = tuple(int(tok) for tok in rest.split(","))
        except ValueError:
            raise ValueError(f"bad family parameters in {spec!r}") from None
    else:
        params = ()
    return generate(name, *params)
