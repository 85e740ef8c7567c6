"""Tests for deterministic named random streams (repro.sim.rng)."""

import numpy as np

from repro.sim import RandomStreams


def test_same_name_returns_same_stream_object():
    streams = RandomStreams(seed=1)
    assert streams.get("a") is streams.get("a")


def test_same_seed_same_name_reproduces_draws():
    a = RandomStreams(seed=42).get("workload").random(10)
    b = RandomStreams(seed=42).get("workload").random(10)
    assert np.array_equal(a, b)


def test_different_names_give_independent_streams():
    streams = RandomStreams(seed=42)
    a = streams.get("alpha").random(100)
    b = streams.get("beta").random(100)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStreams(seed=1).get("x").random(10)
    b = RandomStreams(seed=2).get("x").random(10)
    assert not np.array_equal(a, b)


def test_stream_is_order_independent():
    """Requesting streams in a different order must not change draws."""
    s1 = RandomStreams(seed=9)
    s1.get("first")
    draws_second = s1.get("second").random(5)

    s2 = RandomStreams(seed=9)
    draws_second_alone = s2.get("second").random(5)
    assert np.array_equal(draws_second, draws_second_alone)

