import numpy as np
import pytest

from spikeconv import RngStreams, Shape3


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
