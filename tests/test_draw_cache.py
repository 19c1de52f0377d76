"""Property tests for the counter sampler's process-resident draw cache.

A contiguous-window :meth:`CounterSampler.site_events` draw is a pure
function of its key, so serving it from
:data:`repro.faultsim.sampling.DRAW_CACHE` must be invisible: a warm call
returns exactly the events and the ``capped`` flag a cold call draws.
The uncached reference is the same window pinned as explicit rows
(:meth:`CounterSampler.set_rows`), which bypasses the cache and draws the
identical events by partition invariance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import BoundedCache
from repro.faultsim import FaultModelConfig
from repro.faultsim.sampling import DRAW_CACHE, CounterSampler

draws = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "layer": st.sampled_from(["conv1", "layer2.conv", "fc"]),
        "site": st.sampled_from(["st_mul", "sub0:wg_mul", "wg_output_add:p1"]),
        "start": st.integers(0, 40),
        "n_batch": st.integers(1, 24),
        "ber": st.floats(1e-7, 1e-2),
        "ops_per_sample": st.integers(1, 5000),
        "highs": st.lists(st.integers(1, 50), min_size=1, max_size=5).map(tuple),
        "with_signs": st.booleans(),
        "cap": st.integers(1, 60),
        "chunk": st.integers(1, 8),
    }
)


def _sampler(d) -> CounterSampler:
    config = FaultModelConfig(
        rng_scheme="counter",
        max_events_per_category=d["cap"],
        chunk_samples=d["chunk"],
    )
    sampler = CounterSampler(d["seed"], d["ber"], config, sample_base=d["start"])
    sampler.begin_batch(d["n_batch"])
    return sampler


def _draw(sampler: CounterSampler, d):
    return sampler.site_events(
        d["layer"], d["site"], d["n_batch"], d["ops_per_sample"], 16, 1.0,
        d["highs"], with_signs=d["with_signs"],
    )


def _arrays(events):
    if events is None:
        return None
    signs = events.signs()
    return (
        events.img, *events.coords, events.bits(np.int64(1) << 40),
        None if signs is None else signs,
    )


def _assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None and len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            np.testing.assert_array_equal(a, b)


@settings(max_examples=80, deadline=None)
@given(d=draws)
def test_warm_and_cold_draws_agree(d):
    DRAW_CACHE.clear()
    before = DRAW_CACHE.stats()
    cold = _sampler(d)
    cold_events = _draw(cold, d)
    warm = _sampler(d)
    warm_events = _draw(warm, d)
    after = DRAW_CACHE.stats()
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"] + 1
    assert warm_events is cold_events
    assert warm.capped == cold.capped

    pinned = _sampler(d)
    pinned.set_rows(np.arange(d["start"], d["start"] + d["n_batch"]))
    uncached = _draw(pinned, d)
    _assert_same(_arrays(warm_events), _arrays(uncached))
    assert pinned.capped == warm.capped


@settings(max_examples=40, deadline=None)
@given(d=draws, other=draws)
def test_draws_differing_in_any_key_field_never_collide(d, other):
    DRAW_CACHE.clear()
    _draw(_sampler(d), d)
    for field in d:
        changed = {**d, field: other[field]}
        cached = _draw(_sampler(changed), changed)
        pinned = _sampler(changed)
        pinned.set_rows(np.arange(changed["start"], changed["start"] + changed["n_batch"]))
        _assert_same(_arrays(cached), _arrays(_draw(pinned, changed)))


def test_capped_flag_replays_on_a_hit():
    d = dict(
        seed=5, layer="conv1", site="st_mul", start=0, n_batch=8, ber=1e-2,
        ops_per_sample=5000, highs=(7,), with_signs=False, cap=3, chunk=4,
    )
    DRAW_CACHE.clear()
    cold = _sampler(d)
    _draw(cold, d)
    assert cold.capped
    warm = _sampler(d)
    assert not warm.capped
    _draw(warm, d)
    assert warm.capped and DRAW_CACHE.stats()["hits"] >= 1


def test_cached_arrays_are_read_only():
    d = dict(
        seed=11, layer="conv1", site="wg_output_add:p1", start=3, n_batch=16,
        ber=1e-3, ops_per_sample=4000, highs=(4, 9), with_signs=True, cap=500,
        chunk=8,
    )
    DRAW_CACHE.clear()
    _draw(_sampler(d), d)
    events = _draw(_sampler(d), d)
    assert events is not None
    for array in (events.img, *events.coords, events.signs()):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_row_pinned_calls_bypass_the_cache():
    d = dict(
        seed=2, layer="fc", site="st_add", start=0, n_batch=6, ber=1e-3,
        ops_per_sample=3000, highs=(12,), with_signs=False, cap=100, chunk=4,
    )
    DRAW_CACHE.clear()
    before = DRAW_CACHE.stats()
    sampler = _sampler(d)
    sampler.set_rows(np.array([1, 4, 9, 10, 17, 30]))
    _draw(sampler, d)
    _draw(sampler, d)
    after = DRAW_CACHE.stats()
    assert len(DRAW_CACHE) == 0
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])


@settings(max_examples=40, deadline=None)
@given(d=draws, starts=st.lists(st.integers(0, 400), min_size=1, max_size=30))
def test_held_weight_never_exceeds_capacity(d, starts):
    DRAW_CACHE.clear()
    for start in starts:
        _draw(_sampler({**d, "start": start}), {**d, "start": start})
        assert 0 < DRAW_CACHE.weight <= DRAW_CACHE.capacity
    assert DRAW_CACHE.capacity == 1 << 16


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 40),
    puts=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 50)), max_size=60),
)
def test_weighted_cache_matches_a_fifo_model(capacity, puts):
    cache = BoundedCache(capacity)
    model: dict[int, int] = {}  # key -> weight, insertion-ordered
    for key, weight in puts:
        cache.put(key, weight, weight=weight)
        model.pop(key, None)
        if weight <= capacity:
            while sum(model.values()) + weight > capacity:
                del model[next(iter(model))]
            model[key] = weight
        assert cache.weight == sum(model.values()) <= capacity
        assert len(cache) == len(model)
    for key, weight in model.items():
        assert key in cache and cache.get(key) == weight
