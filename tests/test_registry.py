import numpy as np
import pytest

from vecsim.registry import EmptyViewError, EntityRegistry, LazyCache


def make_registry(n_envs=4, robots=True, cubes=False):
    reg = EntityRegistry(n_envs)
    for e in range(n_envs):
        if robots:
            reg.register(f"/World/envs/env_{e}/Robot", "articulation", e, payload=e * 10)
        if cubes:
            reg.register(f"/World/envs/env_{e}/Cube", "rigid", e)
    reg.register("/World/ground", "static", 0)
    return reg


def test_view_pattern_matches_cloned_envs():
    reg = make_registry(4)
    view = reg.create_view("/World/envs/*/Robot")
    assert len(view) == 4
    assert view.env_indices == [0, 1, 2, 3]
    assert view.payloads == [0, 10, 20, 30]


def test_view_literal_path():
    reg = make_registry(4)
    view = reg.create_view("/World/envs/env_2/Robot")
    assert len(view) == 1
    assert view.entries[0].env_index == 2


def test_empty_view_raises_or_warns(caplog):
    reg = make_registry(4)
    with pytest.raises(EmptyViewError):
        reg.create_view("/World/envs/*/Cube")
    view = reg.create_view("/World/envs/*/Cube", required=False)
    assert len(view) == 0


def test_star_matches_exactly_one_segment():
    reg = make_registry(2)
    with pytest.raises(EmptyViewError):
        reg.create_view("/World/*/Robot")  # would need to match two segments


def test_duplicate_path_rejected():
    reg = EntityRegistry(2)
    reg.register("/World/a", "rigid", 0)
    with pytest.raises(ValueError):
        reg.register("/World/a", "rigid", 1)


def test_env_index_validated():
    reg = EntityRegistry(2)
    with pytest.raises(ValueError):
        reg.register("/World/a", "rigid", 2)


def test_view_order_deterministic():
    # registration in shuffled env order still yields ascending env order
    reg = EntityRegistry(5)
    for e in [3, 0, 4, 1, 2]:
        reg.register(f"/World/envs/env_{e}/Robot", "articulation", e)
    orders = [reg.create_view("/World/envs/*/Robot").env_indices for _ in range(3)]
    assert orders[0] == [0, 1, 2, 3, 4]
    assert orders[0] == orders[1] == orders[2]


def test_lazy_cache_recomputes_once_per_step():
    cache = LazyCache()
    counts = []
    cache.on_recompute = counts.append
    for _ in range(7):
        cache.get("poses", lambda: np.arange(3))
    assert counts == ["poses"]
    first = cache.get("poses", lambda: np.arange(3))
    second = cache.get("poses", lambda: np.zeros(3))  # stale compute ignored
    np.testing.assert_array_equal(first, second)

    cache.advance()
    cache.get("poses", lambda: np.arange(3))
    assert counts == ["poses", "poses"]


def test_lazy_cache_invalidate():
    cache = LazyCache()
    assert cache.get("x", lambda: 1) == 1
    cache.invalidate("x")
    assert cache.get("x", lambda: 2) == 2
    cache.invalidate()
    assert cache.get("x", lambda: 3) == 3
