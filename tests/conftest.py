import numpy as np
import pytest

from hughesptr import build_reduced_T, evaluate_grid, field_ctx


@pytest.fixture(scope="session")
def ctx9():
    return field_ctx(3, 1)


@pytest.fixture(scope="session")
def ctx25():
    return field_ctx(5, 1)


@pytest.fixture(scope="session")
def ctx49():
    return field_ctx(7, 1)


@pytest.fixture(scope="session")
def ctx81():
    return field_ctx(3, 2)


@pytest.fixture(scope="session")
def reduced_grid():
    """(p, e) -> (the reduced form, its read-only grid), each grid evaluated
    once per session: at Q=169 one ``evaluate_grid`` takes about 7 s."""
    cache = {}

    def get(p, e):
        if (p, e) not in cache:
            T = build_reduced_T(field_ctx(p, e))
            grid = evaluate_grid(T)
            grid.flags.writeable = False
            cache[p, e] = T, grid
        return cache[p, e]

    return get


def random_elements(ctx, n, seed=0):
    rng = np.random.default_rng(seed)
    return [ctx.element_from_index(int(i)) for i in rng.integers(0, ctx.Q, n)]
