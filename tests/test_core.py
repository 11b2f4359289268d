import numpy as np
import pytest

from spikeconv import RngStreams, Shape3, SpikeEvent


class TestEventOrder:
    def test_time_dominates(self):
        a = SpikeEvent(0.2, 0, 0, 0, 0)
        b = SpikeEvent(0.3, 0, 0, 0, 0)
        assert a < b and not b < a
        assert sorted([b, a]) == [a, b]

    def test_map_tiebreak_at_equal_time(self):
        a = SpikeEvent(0.5, 1, 0, 3, 3)
        b = SpikeEvent(0.5, 1, 1, 0, 0)
        assert a < b and not b < a

    def test_identical_tuples_equal(self):
        a = SpikeEvent(0.5, 1, 2, 3, 4)
        b = SpikeEvent(0.5, 1, 2, 3, 4, voltage=0.25)  # voltage not ordered
        assert not a < b and not b < a
        assert a == b

    def test_sorting_is_permutation_independent(self):
        rng = np.random.default_rng(7)
        events = [
            SpikeEvent(float(rng.integers(5)) / 4, int(rng.integers(2)),
                       int(rng.integers(3)), int(rng.integers(3)), int(rng.integers(3)))
            for _ in range(200)
        ]
        ref = sorted(events)
        keys = [(e.time, e.layer, e.map, e.y, e.x) for e in ref]
        assert keys == sorted(keys)  # the order is (time, layer, map, y, x)
        for _ in range(5):
            perm = [events[i] for i in rng.permutation(len(events))]
            assert sorted(perm) == ref

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpikeEvent(np.inf, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            SpikeEvent(0.5, 0, 0, 0, 0, voltage=np.nan)


class TestShape3:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Shape3(0, 4, 4)
        with pytest.raises(ValueError):
            Shape3(2, -1, 4)

    def test_size(self):
        assert Shape3(2, 3, 4).size == 24


class TestRngStreams:
    def test_same_key_same_sequence(self):
        a = RngStreams(123).stream("weights", 2).random(16)
        b = RngStreams(123).stream("weights", 2).random(16)
        assert np.array_equal(a, b)

    def test_streams_do_not_contaminate(self):
        # drawing extra values from one stream must not shift another
        s = RngStreams(99)
        before = s.stream("thresholds", 1).random(8)
        burn = s.stream("weights", 1)
        burn.random(10_000)
        after = s.stream("thresholds", 1).random(8)
        assert np.array_equal(before, after)

    def test_distinct_keys_differ(self):
        s = RngStreams(5)
        a = s.stream("weights", 0).random(8)
        b = s.stream("weights", 1).random(8)
        c = s.stream("patches", 0).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_families_independent(self):
        s = RngStreams(5)
        a = s.child(0).stream("weights", 0).random(4)
        b = s.child(1).stream("weights", 0).random(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, RngStreams(5).child(0).stream("weights", 0).random(4))
