import pytest

from locdom.families import cycle, path
from locdom.solver import SolveReport, c_l_exact


@pytest.fixture(scope="session")
def solve_cache():
    """Memoized exact C_L solves shared across the expensive tests."""
    cache: dict = {}

    def solve(family: str, n: int) -> SolveReport:
        key = (family, n)
        if key not in cache:
            if family == "cycle":
                cache[key] = c_l_exact(cycle(n))
            elif family == "path":
                cache[key] = c_l_exact(path(n))
            else:
                raise ValueError(family)
        return cache[key]

    return solve
