import numpy as np
import pytest

from percsched.scene import (
    DEFAULT_FRAME_PERIOD_MS,
    Entity,
    EntityKind,
    PatchRegion,
)
from percsched.toolkit import ready_frame
from percsched.traces import TraceFrame, TraceHeader


def _entity(eid, kind=EntityKind.OBJECT, x=10, y=10, w=30, h=40, relevance=1.0):
    return Entity(id=eid, kind=kind, region=PatchRegion(x, y, w, h), relevance=relevance)


class TestFrameStamp:
    """A frame is stamped by its index alone; its virtual time is the index
    times the trace header's frame period."""

    def test_affine_in_index(self):
        # an output issued at frame k's time with no inference is ready at k
        rng = np.random.default_rng(0)
        for _ in range(200):
            index = int(rng.integers(0, 10_000))
            period = float(rng.uniform(1.0, 100.0))
            assert ready_frame(index * period, 0.0, period) == index

    def test_default_period_is_30fps(self):
        assert 3 * TraceHeader().frame_period_ms == pytest.approx(100.0)
        assert DEFAULT_FRAME_PERIOD_MS == pytest.approx(1000.0 / 30.0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            TraceFrame(index=-1, entities=())


class TestPatchRegion:
    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            PatchRegion(0, 0, 0, 10)
        with pytest.raises(ValueError):
            PatchRegion(0, 0, 10, -1)

    def test_zero_area_region_rejected(self):
        with pytest.raises(ValueError):
            PatchRegion(0, 0, 0, 4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_geometry(self, bad):
        for args in ((bad, 0, 1, 1), (0, bad, 1, 1), (0, 0, bad, 1), (0, 0, 1, bad)):
            with pytest.raises(ValueError, match="finite"):
                PatchRegion(*args)

    def test_center(self):
        r = PatchRegion(10, 20, 30, 40)
        assert r.center == (25.0, 40.0)


class TestEntity:
    def test_relevance_bounds(self):
        with pytest.raises(ValueError):
            _entity("a", relevance=1.5)
