"""Independent oracles for the fault injector's hot-path primitives.

Each primitive is checked against a construction that does not trust
the implementation:

* ``bit_lengths`` against Python's ``int.bit_length``;
* the counter sampler's re-keyed chunk streams against a generator built
  the original way, ``Generator(Philox(seed=SeedSequence([domain, seed,
  *hashed labels])))``, with the chunk draw protocol replayed inline;
* the shared per-sample stage widths against the per-call formula
  ``clip(bit_lengths(|ref|.max(axis, initial=1)) + 1, 2, acc_width)``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultModelError
from repro.faultsim import FaultModelConfig
from repro.faultsim.operation_level import _StageWidths, _sample_register_widths
from repro.faultsim.sampling import CounterSampler, SiteEvents, bit_lengths
from repro.utils.rng import site_key, site_rng

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


# ---------------------------------------------------------------- bit_lengths
def _oracle_bit_lengths(values) -> list[int]:
    return [int(v).bit_length() for v in np.asarray(values).ravel()]


class TestBitLengths:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, INT64_MAX), max_size=40))
    def test_matches_int_bit_length(self, values):
        x = np.array(values, dtype=np.int64)
        out = bit_lengths(x)
        assert out.dtype == np.int64
        assert out.shape == x.shape
        assert out.tolist() == _oracle_bit_lengths(x)

    def test_every_power_of_two_boundary(self):
        values = {0, 1, INT64_MAX}
        for k in range(63):
            values.update(v for v in (2**k - 1, 2**k, 2**k + 1) if v <= INT64_MAX)
        x = np.array(sorted(values), dtype=np.int64)
        assert bit_lengths(x).tolist() == _oracle_bit_lengths(x)
        assert int(bit_lengths(np.array([INT64_MAX]))[0]) == 63
        assert int(bit_lengths(np.array([0]))[0]) == 0

    def test_keeps_nd_shape(self):
        x = np.arange(24, dtype=np.int64).reshape(2, 3, 4) * 977
        out = bit_lengths(x)
        assert out.shape == (2, 3, 4)
        assert out.ravel().tolist() == _oracle_bit_lengths(x)
        assert bit_lengths(np.empty((0, 3), dtype=np.int64)).shape == (0, 3)

    @pytest.mark.parametrize(
        "values", [[-1], [0, 5, -3], [INT64_MIN], [INT64_MAX, INT64_MIN]]
    )
    def test_negative_input_raises(self, values):
        with pytest.raises(FaultModelError, match="non-negative"):
            bit_lengths(np.array(values, dtype=np.int64))


# ------------------------------------------------------ re-keyed chunk streams
_DOMAIN = 0x5749_4E4F_4641_554C  # "WINOFAUL", the site-stream domain tag


def _oracle_rng(seed: int, *labels) -> np.random.Generator:
    """The site stream built the direct way, independently of repro.utils.rng."""
    entropy = [_DOMAIN, seed & (2**64 - 1)]
    for label in labels:
        if isinstance(label, str):
            digest = hashlib.sha256(label.encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:8], "little"))
        else:
            entropy.append(label & (2**64 - 1))
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy))
    )


def _oracle_chunk(seed, layer, site, index, lam, chunk, cap, highs, with_signs):
    """Draws 1-5 of the chunk protocol: (count, capped, offsets, coords, u, sign)."""
    rng = _oracle_rng(seed, layer, site, index)
    count = int(rng.poisson(lam))
    capped = count > cap
    count = min(count, cap)
    if count == 0:
        return 0, capped, None, None, None, None
    offsets = rng.integers(0, chunk, size=count)
    coords = [rng.integers(0, high, size=count) for high in highs]
    bit_u = rng.random(count)
    sign = rng.integers(0, 2, size=count) * 2 - 1 if with_signs else None
    return count, capped, offsets, coords, bit_u, sign


CHUNK = 8
HIGHS = (3, 17, 1 << 20, 2**40 + 7)


def _sampler(seed, ber, cap=20_000):
    config = FaultModelConfig(
        rng_scheme="counter", chunk_samples=CHUNK, max_events_per_category=cap
    )
    return CounterSampler(seed, ber, config)


def _chunk_events(sampler, layer, site, index, ops, with_signs=True):
    """Events of exactly one chunk: a forward pinned to its rows alone."""
    sampler.begin_batch(CHUNK)
    sampler.set_rows(np.arange(index * CHUNK, (index + 1) * CHUNK))
    return sampler.site_events(
        layer, site, CHUNK, ops, 1, 1.0, HIGHS, with_signs=with_signs
    )


def _assert_matches_oracle(events, seed, layer, site, index, lam, cap, with_signs):
    count, _, offsets, coords, bit_u, sign = _oracle_chunk(
        seed, layer, site, index, lam, CHUNK, cap, HIGHS, with_signs
    )
    if count == 0:
        assert events is None
        return
    assert len(events) == count
    np.testing.assert_array_equal(events.img, offsets)
    for got, want in zip(events.coords, coords):
        np.testing.assert_array_equal(got, want)
    # Doubles from ``random`` are k / 2**53, so this recovers k exactly.
    np.testing.assert_array_equal(
        events.bits(np.int64(2**53)), (bit_u * 2**53).astype(np.int64)
    )
    if with_signs:
        np.testing.assert_array_equal(events.signs(), sign)


class TestRekeyedStreams:
    BER = 0.05
    OPS = 20  # lam = BER * OPS * CHUNK = 8 events per chunk on average

    @property
    def lam(self):
        return self.BER * self.OPS * CHUNK

    def test_site_rng_is_the_original_construction(self):
        for key in [(0, "conv1", "wg_mul", 0), (7, "l", "s", 2**40), (2**64 - 1, "x")]:
            a, b = site_rng(*key), _oracle_rng(*key)
            assert a.poisson(3.0) == b.poisson(3.0)
            np.testing.assert_array_equal(a.integers(0, 999, 9), b.integers(0, 999, 9))
            np.testing.assert_array_equal(a.random(5), b.random(5))

    def test_site_key_is_immutable(self):
        key = site_key(3, "layer", "site", 1)
        assert key.dtype == np.uint64 and key.shape == (2,)
        with pytest.raises(ValueError):
            key[0] = 0

    @pytest.mark.parametrize("with_signs", [True, False])
    def test_draw_for_draw_over_many_keys(self, with_signs):
        for seed in (0, 1, 2**40 + 3):
            sampler = _sampler(seed, self.BER)
            for layer in ("conv1", "block3.conv2"):
                for site in ("st_mul", "sub1:wg_output_add:p2"):
                    for index in (0, 1, 5, 1000):
                        events = _chunk_events(
                            sampler, layer, site, index, self.OPS, with_signs
                        )
                        _assert_matches_oracle(
                            events,
                            seed,
                            layer,
                            site,
                            index,
                            self.lam,
                            20_000,
                            with_signs,
                        )
            assert not sampler.capped

    def test_memo_hits_and_lru_eviction(self):
        keys = [("conv1", "st_mul", index) for index in range(6)]
        sampler = _sampler(11, self.BER)

        def check_all():
            for layer, site, index in keys:
                events = _chunk_events(sampler, layer, site, index, self.OPS)
                _assert_matches_oracle(
                    events, 11, layer, site, index, self.lam, 20_000, True
                )

        check_all()
        hits = site_key.cache_info().hits
        check_all()  # every key is memoized now
        assert site_key.cache_info().hits >= hits + len(keys)
        for index in range(site_key.cache_info().maxsize + 10):
            site_key(12, "evict", index)
        assert site_key.cache_info().currsize == site_key.cache_info().maxsize
        misses = site_key.cache_info().misses
        check_all()  # evicted: derived again, same streams
        assert site_key.cache_info().misses >= misses + len(keys)
        hits = site_key.cache_info().hits
        check_all()  # memo hits after the eviction
        assert site_key.cache_info().hits >= hits + len(keys)

    def test_struck_samples_then_site_events_agree(self):
        sampler = _sampler(5, self.BER)
        for index in range(12):
            start = index * CHUNK
            struck = sampler.struck_samples(
                "conv2", "wg_acc_add", self.OPS, 1, 1.0, start, start + CHUNK
            )
            events = _chunk_events(sampler, "conv2", "wg_acc_add", index, self.OPS)
            if events is None:
                assert struck.size == 0
                continue
            np.testing.assert_array_equal(struck, np.unique(start + events.img))
            _assert_matches_oracle(
                events, 5, "conv2", "wg_acc_add", index, self.lam, 20_000, True
            )

    def test_struck_samples_over_a_window_match_the_oracle(self):
        sampler = _sampler(9, self.BER)
        start, stop = 3, 5 * CHUNK - 2
        struck = sampler.struck_samples("fc", "st_add", self.OPS, 1, 1.0, start, stop)
        want = []
        for index in range(start // CHUNK, (stop - 1) // CHUNK + 1):
            count, _, offsets, *_ = _oracle_chunk(
                9, "fc", "st_add", index, self.lam, CHUNK, 20_000, (), False
            )
            if count:
                sample = index * CHUNK + offsets
                want.extend(sample[(sample >= start) & (sample < stop)])
        np.testing.assert_array_equal(struck, np.unique(np.array(want, dtype=np.int64)))

    @pytest.mark.parametrize("cap", [1, 3, 20_000])
    def test_cap_and_capped_flag_unchanged(self, cap):
        sampler = _sampler(2, self.BER, cap=cap)
        any_capped = False
        for index in range(10):
            events = _chunk_events(sampler, "conv1", "wg_mul", index, self.OPS)
            _assert_matches_oracle(
                events, 2, "conv1", "wg_mul", index, self.lam, cap, True
            )
            any_capped |= _oracle_chunk(
                2, "conv1", "wg_mul", index, self.lam, CHUNK, cap, HIGHS, True
            )[1]
            assert sampler.capped == any_capped
        assert sampler.capped == (cap < 20_000)


# ------------------------------------------------------------- stage widths
def _old_widths(ref: np.ndarray, acc_width: int) -> np.ndarray:
    """The per-call formula every site used to evaluate on its own."""
    axes = tuple(range(1, ref.ndim))
    per_sample = np.abs(ref).max(axis=axes, initial=1)
    return np.clip(bit_lengths(per_sample) + 1, 2, acc_width)


def _stage_tensor(rng, shape):
    """int64 stage values with zero samples, near-±2**62 and INT64_MIN entries."""
    scale = rng.integers(0, 62, size=shape)
    ref = rng.integers(-(2**62), 2**62, size=shape, dtype=np.int64) >> scale
    ref[0] = 0  # an all-zero sample
    flat = ref.reshape(shape[0], -1)
    flat[1, :3] = [2**62 - 1, -(2**62), INT64_MAX]
    flat[2, 0] = INT64_MIN  # np.abs wraps: the value never wins the max
    flat[3] = INT64_MIN
    flat[3, -1] = -5
    flat[4, 1] = -(2**62) - 1
    flat[5] = rng.integers(-3, 4, size=flat.shape[1])  # small values only
    return ref


class TestStageWidths:
    @pytest.mark.parametrize(
        "shape",
        [
            (8, 3, 5, 6),  # output Y: (N, K, H, W)
            (8, 3, 4, 4, 4),  # transformed M: (N, K, tiles, t, t)
            (7, 6),  # flat accumulator: (N, K * spatial)
        ],
    )
    @pytest.mark.parametrize("acc_width", [20, 34, 63])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_per_call_formula(self, shape, acc_width, seed):
        ref = _stage_tensor(np.random.default_rng(seed), shape)
        before = ref.copy()
        widths = _sample_register_widths(ref, acc_width)
        np.testing.assert_array_equal(widths, _old_widths(ref, acc_width))
        np.testing.assert_array_equal(ref, before)  # read-only

    def test_shared_widths_index_events_by_sample(self):
        ref = _stage_tensor(np.random.default_rng(9), (8, 3, 4, 4, 4))
        img = np.array([7, 0, 3, 3, 2, 5], dtype=np.int64)
        events = SiteEvents(img, [], np.zeros(len(img)), None)
        counter = _StageWidths(ref, 34, per_sample=True)
        np.testing.assert_array_equal(counter.of(events), _old_widths(ref, 34)[img])
        np.testing.assert_array_equal(counter.of(events), _old_widths(ref, 34)[img])
        batch = ref[4:6]  # the stream scheme: one width for the batch
        stream = _StageWidths(batch, 34, per_sample=False)
        peak = int(np.abs(batch).max(initial=1))
        assert stream.of(events) == max(2, min(34, peak.bit_length() + 1))
