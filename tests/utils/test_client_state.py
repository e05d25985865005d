import pytest

from repro.utils.client_state import LazyClientState


def test_set_and_bound_hand_evicted_values_back_lru_first():
    store = LazyClientState(max_clients=2)
    assert store.set(1, "a") == [] and store.set(2, "b") == []
    assert store.set(3, "c") == ["a"]
    assert store.set(3, "d") == []  # an overwrite evicts nothing
    store.bound(None)
    assert store.set(4, "e") == []
    assert store.bound(1) == ["b", "d"]
    assert store.ids() == [4] and store.evictions == 3


def test_peek_reads_without_freshening():
    store = LazyClientState(default=lambda: 0, max_clients=2)
    store.set(1, "a")
    store.set(2, "b")
    assert store.peek(1) == "a" and store.peek(9) == 0
    assert store.set(3, "c") == ["a"]  # 1 stayed least-recently-used
    assert store.get(2) == "b"  # get() does freshen ...
    assert store.set(4, "d") == ["c"]  # ... so 3 goes before 2
    assert LazyClientState().peek(5, default=-1) == -1


def test_bound_rejects_non_positive():
    with pytest.raises(ValueError):
        LazyClientState(max_clients=0)
