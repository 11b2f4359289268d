import re

import numpy as np
import pytest

from spikeconv import EnsembleMember, LayerSpec, RngStreams, Shape3, TrainConfig


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
        # a bool is no count: True is not the integer 1
        (lambda: LayerSpec("conv", 2, 2, True), "conv layer: maps must be an integer >= 1, got True"),
        (lambda: LayerSpec("conv", 2, 2, np.True_),
         f"conv layer: maps must be an integer >= 1, got {np.True_!r}"),
        (lambda: TrainConfig(n_epoch=True), "n_epoch must be an integer >= 1, got True"),
        (lambda: EnsembleMember(0.5, True), "output_maps must be an integer >= 1, got True"),
        (lambda: EnsembleMember(0.5, 2.5), "output_maps must be an integer >= 1, got 2.5"),
        (lambda: EnsembleMember(0.5, 0), "output_maps must be an integer >= 1, got 0"),
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


class TestDrawCanary:
    """The exact bytes of the seeded draws and of the ``np.exp`` behind every
    digest. NumPy gives ``Generator``'s methods no stream guarantee across
    releases (ROADMAP item 7), and ``np.exp``'s last bits follow its SIMD
    dispatch level (ROADMAP item 2): a change in either moves every model
    and feature digest, and this names which one moved."""

    # method: (the RngStreams(2019) purpose drawn from, None for svm.fit's
    # default_rng(0); the draws as the package makes them; their values)
    DRAWS = {
        "Generator.uniform": ("weights", lambda g: g.uniform(0.0, 1.0, 4),
                              [0.45446393865325485, 0.5393743506379912,
                               0.9391020205395839, 0.48328972306389073]),
        "Generator.normal": ("thresholds", lambda g: g.normal(5.0, 1.0, 4),
                             [6.39397463464303, 4.851210391676159,
                              5.239017312966814, 4.487572048215433]),
        "Generator.integers": ("patches", lambda g: [g.integers(25) for _ in range(8)],
                               [22, 11, 14, 1, 4, 9, 2, 7]),
        "Generator.permutation": ("order", lambda g: g.permutation(10),
                                  [8, 2, 4, 5, 6, 0, 9, 7, 1, 3]),
        "default_rng(0).permutation": (None, lambda g: [g.permutation(6) for _ in range(3)],
                                       [[3, 2, 5, 4, 0, 1], [4, 5, 1, 2, 0, 3],
                                        [3, 2, 0, 5, 4, 1]]),
    }

    @pytest.mark.parametrize("method", DRAWS)
    def test_draws_keep_their_bytes(self, method):
        purpose, draw, pinned = self.DRAWS[method]
        rng = np.random.default_rng(0) if purpose is None else RngStreams(2019).stream(purpose, 0)
        got = np.array(draw(rng))
        want = np.array(pinned, dtype=got.dtype)
        assert got.tobytes() == want.tobytes(), (
            f"{method} drew {got.tolist()} under NumPy {np.__version__}, not {want.tolist()}: "
            "its stream changed, and every seeded digest moves with it (ROADMAP item 7)")

    def test_exp_keeps_its_bytes(self):
        got = np.exp(-np.array([1, 4, 8, 13, 20, 26, 29, 31]) / 7.0)
        want = np.array([0.8668778997501816, 0.5647181220077592, 0.31890655732397044,
                         0.15611804531597107, 0.05743261926761734, 0.024372844073279595,
                         0.01587742257244863, 0.01193152253575614])
        assert got.tobytes() == want.tobytes(), (
            f"np.exp gave {got.tolist()} under NumPy {np.__version__}, not {want.tolist()}: "
            "its last bits follow NumPy's SIMD dispatch level (ROADMAP item 2), and the "
            "encoded grids and the biological STDP rule's model bytes move with them")
