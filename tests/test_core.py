import re

import numpy as np
import pytest

from spikeconv import LayerSpec, RngStreams, Shape3, TrainConfig


class TestShape3:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Shape3(0, 4, 4)
        with pytest.raises(ValueError):
            Shape3(2, -1, 4)

    def test_size(self):
        assert Shape3(2, 3, 4).size == 24


class TestIntegralCounts:
    """A count that is not an integer fails at construction, naming its field."""

    @pytest.mark.parametrize("make, named", [
        (lambda: TrainConfig(n_epoch=2.5), "n_epoch must be an integer >= 1, got 2.5"),
        (lambda: TrainConfig(n_epoch=0), "n_epoch must be an integer >= 1, got 0"),
        (lambda: LayerSpec("conv", 3, 3, 4, 1, 0.5),
         "conv layer: padding must be an integer >= 0, got 0.5"),
        (lambda: LayerSpec("conv", 2.5, 3, 4, 1, 0),
         "conv layer: filter_h must be an integer >= 1, got 2.5"),
        (lambda: LayerSpec("fc", 3, 3.0, 4, 1, 0),
         "fc layer: filter_w must be an integer >= 1, got 3.0"),
        (lambda: LayerSpec("pool", 2, 2, 4, 2.0, 0),
         "pool layer: stride must be an integer >= 1, got 2.0"),
        (lambda: LayerSpec("conv", 3, 3, "4", 1, 0),
         "conv layer: maps must be an integer >= 1, got '4'"),
        (lambda: LayerSpec("conv", 3, 3, 4, 1, -1),
         "conv layer: padding must be an integer >= 0, got -1"),
        (lambda: Shape3(2, 7.0, 4), "Shape3.height must be an integer >= 1, got 7.0"),
    ])
    def test_non_integral_or_small_count_rejected(self, make, named):
        with pytest.raises(ValueError, match="^" + re.escape(named) + "$"):
            make()

    def test_numpy_integers_accepted(self):
        assert LayerSpec("conv", np.int64(3), 3, np.int32(4), 1, np.uint8(0)).maps == 4
        assert TrainConfig(n_epoch=np.int64(2)).n_epoch == 2


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
