"""The Budget object: validation, and scoping through the budget context."""

import pytest

from matroidworks.errors import Budget, InputError, budget, current_budget


def test_defaults():
    assert Budget() == Budget(
        pair_reductions=1_000_000, search_nodes=2_000_000, ingleton_quadruples=5_000_000
    )
    assert current_budget() == Budget()


@pytest.mark.parametrize("bad", [-1, 1.5, "7", True, None])
def test_limits_must_be_nonnegative_ints(bad):
    with pytest.raises(InputError):
        Budget(search_nodes=bad)
    with pytest.raises(InputError), budget(pair_reductions=bad):
        pass
    assert current_budget() == Budget()


def test_context_nests_and_restores():
    with budget(search_nodes=5) as outer:
        assert current_budget() is outer
        with budget(pair_reductions=3):
            assert current_budget() == Budget(pair_reductions=3, search_nodes=5)
        assert current_budget() == Budget(search_nodes=5)
    assert current_budget() == Budget()
    with pytest.raises(TypeError), budget(max_degree=3):
        pass
