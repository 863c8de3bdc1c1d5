import numpy as np
import pytest

from percsched.scene import (
    DEFAULT_FRAME_PERIOD_MS,
    Entity,
    EntityKind,
    FrameStamp,
    PatchRegion,
)


def _entity(eid, kind=EntityKind.OBJECT, x=10, y=10, w=30, h=40, relevance=1.0):
    return Entity(id=eid, kind=kind, region=PatchRegion(x, y, w, h), relevance=relevance)


class TestFrameStamp:
    def test_affine_in_index(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            index = int(rng.integers(0, 10_000))
            period = float(rng.uniform(1.0, 100.0))
            stamp = FrameStamp.at(index, period)
            assert stamp.time_ms == index * period

    def test_default_period_is_30fps(self):
        assert FrameStamp.at(3).time_ms == pytest.approx(100.0)
        assert DEFAULT_FRAME_PERIOD_MS == pytest.approx(1000.0 / 30.0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            FrameStamp.at(-1)

    def test_next_advances_one_frame(self):
        stamp = FrameStamp.at(4, 10.0)
        assert stamp.next(10.0) == FrameStamp.at(5, 10.0)


class TestPatchRegion:
    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            PatchRegion(0, 0, 0, 10)
        with pytest.raises(ValueError):
            PatchRegion(0, 0, 10, -1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_geometry(self, bad):
        for args in ((bad, 0, 1, 1), (0, bad, 1, 1), (0, 0, bad, 1), (0, 0, 1, bad)):
            with pytest.raises(ValueError, match="finite"):
                PatchRegion(*args)

    def test_center_and_scale(self):
        r = PatchRegion(10, 20, 30, 40)
        assert r.center == (25.0, 40.0)
        assert r.scale == pytest.approx(np.sqrt(1200))


class TestEntity:
    def test_relevance_bounds(self):
        with pytest.raises(ValueError):
            _entity("a", relevance=1.5)
