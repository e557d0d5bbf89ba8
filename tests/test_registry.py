import re

import pytest

from vecsim.registry import EmptyViewError, EntityRegistry


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
    assert reg.create_view("/World/envs/*/Robot").paths == [
        f"/World/envs/env_{e}/Robot" for e in range(5)]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: EntityRegistry(0),
                 "env_count must be an integer >= 1, got 0", id="env_count"),
    pytest.param(lambda: EntityRegistry(1).register("World/a", "rigid", 0),
                 "entity path must be absolute: 'World/a'", id="relative_path"),
    pytest.param(lambda: EntityRegistry(2).register("/World/a", "rigid", True),
                 "env_index must be an integer >= 0, got True", id="env_index_bool"),
    pytest.param(lambda: EntityRegistry(2).register("/World/a", "rigid", 1.5),
                 "env_index must be an integer >= 0, got 1.5", id="env_index_float"),
    pytest.param(lambda: EntityRegistry(2).register("/World/a", "rigid", -1),
                 "env_index must be an integer >= 0, got -1", id="env_index_negative"),
    pytest.param(lambda: EntityRegistry(2).register("/World/a", "rigid", 2),
                 "env_index 2 out of range for 2 envs", id="env_index_too_large"),
])
def test_registry_input_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
