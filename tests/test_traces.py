import base64
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from percsched.scene import Entity, EntityKind, FrameStamp, MotionStatus, PatchRegion
from percsched.traces import (
    ARCHETYPES,
    ChangeStats,
    FramePixels,
    Trace,
    TraceError,
    TraceFrame,
    TraceHeader,
    generate_trace,
    read_trace,
    write_trace,
)


def _minimal_trace(pixels=False):
    frames = []
    for i in range(3):
        extra = {}
        if pixels:
            rgb = np.full((12, 16, 3), i * 40, dtype=np.uint8)
            extra["pixels"] = FramePixels(rgb=rgb)
        else:
            extra["change"] = ChangeStats(
                background_cr=0.01 * i, hist_shift_mean=float(i), patch_cr={"obj": 0.2}
            )
        frames.append(
            TraceFrame(
                stamp=FrameStamp.at(i),
                entities=(
                    Entity(id="obj", kind=EntityKind.OBJECT, region=PatchRegion(5, 5, 10, 10)),
                ),
                background=PatchRegion(0, 0, 640, 480),
                **extra,
            )
        )
    return Trace(header=TraceHeader(frame_count=3), frames=tuple(frames))


class TestRoundTrip:
    def test_change_stats_variant(self, tmp_path):
        trace = _minimal_trace()
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        back = read_trace(path)
        assert back.header.frame_count == 3
        for a, b in zip(trace.frames, back.frames):
            assert a.stamp == b.stamp
            assert a.entities == b.entities
            assert a.change.background_cr == b.change.background_cr
            assert dict(a.change.patch_cr) == dict(b.change.patch_cr)

    def test_pixels_variant(self, tmp_path):
        trace = _minimal_trace(pixels=True)
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        back = read_trace(path)
        for a, b in zip(trace.frames, back.frames):
            np.testing.assert_array_equal(a.pixels.rgb, b.pixels.rgb)

    def test_keypoints_survive(self, tmp_path):
        human = Entity(id="h", kind=EntityKind.HUMAN, region=PatchRegion(0, 0, 10, 20))
        kps = tuple((float(d), float(2 * d)) for d in range(17))
        frames = tuple(
            TraceFrame(
                stamp=FrameStamp.at(i),
                entities=(human,),
                background=PatchRegion(0, 0, 64, 48),
                keypoints={"h": kps},
            )
            for i in range(2)
        )
        trace = Trace(header=TraceHeader(frame_count=2), frames=frames)
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        assert read_trace(path).frames[0].keypoints["h"] == kps


_coord = st.floats(-1e4, 1e4, allow_nan=False)
_extent = st.floats(1e-3, 1e4, allow_nan=False)
_share = st.floats(0.0, 1.0)
_ids = st.text(min_size=1, max_size=6)


@st.composite
def _traces(draw):
    """A trace with boxes, human keypoints and, per frame, either change
    statistics or a raster; all rasters of one trace share a size."""
    keypoint_count = draw(st.integers(1, 4))
    raster = draw(st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(3)))
    n = draw(st.integers(1, 4))
    header = TraceHeader(
        frame_period_ms=draw(st.floats(1e-3, 1e3)),
        keypoint_count=keypoint_count,
        frame_count=n,
        frame_w=draw(st.integers(1, 4096)),
        frame_h=draw(st.integers(1, 4096)),
        seed=draw(st.integers(0, 2**63 - 1)),
        archetype=draw(st.text(max_size=8)),
    )
    frames = []
    for i in range(n):
        entities = draw(
            st.lists(
                st.builds(
                    Entity,
                    id=_ids,
                    kind=st.sampled_from(EntityKind),
                    region=st.builds(PatchRegion, _coord, _coord, _extent, _extent),
                    motion=st.sampled_from(MotionStatus),
                    relevance=_share,
                ),
                max_size=3,
                unique_by=lambda e: e.id,
            )
        )
        point = st.tuples(_coord, _coord)
        keypoints = {
            e.id: tuple(draw(st.lists(point, min_size=keypoint_count, max_size=keypoint_count)))
            for e in entities
            if e.kind is EntityKind.HUMAN
        }
        extra = {}
        if draw(st.booleans()):
            extra["pixels"] = FramePixels(rgb=draw(hnp.arrays(np.uint8, raster)))
        else:
            extra["change"] = ChangeStats(
                background_cr=draw(_share),
                hist_shift_mean=draw(st.floats(0.0, 1e6)),
                patch_cr=draw(st.dictionaries(_ids, _share, max_size=3)),
            )
        frames.append(
            TraceFrame(
                stamp=FrameStamp.at(i, header.frame_period_ms),
                entities=tuple(entities),
                background=draw(st.builds(PatchRegion, _coord, _coord, _extent, _extent)),
                keypoints=keypoints,
                enters=tuple(draw(st.lists(_ids, max_size=2))),
                exits=tuple(draw(st.lists(_ids, max_size=2))),
                **extra,
            )
        )
    return Trace(header=header, frames=tuple(frames))


class TestRoundTripProperty:
    @given(trace=_traces())
    def test_read_of_write_reproduces_every_field(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            write_trace(path, trace)
            back = read_trace(path)
        assert back.header == trace.header
        assert len(back.frames) == len(trace.frames)
        for a, b in zip(trace.frames, back.frames):
            assert b.stamp == a.stamp
            assert b.entities == a.entities
            assert b.background == a.background
            assert dict(b.keypoints) == dict(a.keypoints)
            assert (b.enters, b.exits) == (a.enters, a.exits)
            assert b.change == a.change
            if a.pixels is None:
                assert b.pixels is None
            else:
                assert b.pixels.rgb.dtype == np.uint8
                assert np.array_equal(b.pixels.rgb, a.pixels.rgb)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            read_trace(tmp_path / "absent.jsonl")

    def test_header_required_first(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record":"frame","index":0}\n')
        with pytest.raises(TraceError, match="header"):
            read_trace(path)

    def test_frame_count_mismatch(self, tmp_path):
        trace = _minimal_trace()
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="promises"):
            read_trace(path)

    def test_keypoint_count_mismatch(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = {
            "record": "header", "schema": "percsched-trace", "version": 1,
            "frame_period_ms": 33.0, "keypoint_count": 5, "frame_count": 1,
        }
        frame = {
            "record": "frame", "index": 0,
            "entities": [{"id": "h", "kind": "human", "x": 0, "y": 0, "w": 5, "h": 5,
                          "relevance": 1.0}],
            "background": {"x": 0, "y": 0, "w": 64, "h": 48},
            "keypoints": {"h": [[0, 0], [1, 1]]},
        }
        path.write_text(json.dumps(header) + "\n" + json.dumps(frame) + "\n")
        with pytest.raises(TraceError, match="keypoints"):
            read_trace(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame_period_ms", float("nan")),
            ("frame_period_ms", float("inf")),
            ("frame_period_ms", 0.0),
            ("keypoint_count", 0),
            ("frame_w", 0),
            ("frame_h", -48),
        ],
    )
    def test_bad_header_field_rejected_by_name(self, tmp_path, field, value):
        path = tmp_path / "t.jsonl"
        write_trace(path, _minimal_trace())
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        head[field] = value
        path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
        with pytest.raises(TraceError, match=field):
            read_trace(path)

    @pytest.mark.parametrize(
        "rgb",
        [
            np.zeros((4, 4, 3), dtype=np.float64),
            np.zeros((4, 4, 3), dtype=np.int16),
            np.zeros((4, 4), dtype=np.uint8),
            np.zeros((4, 4, 4), dtype=np.uint8),
            np.zeros((0, 0, 3), dtype=np.uint8),
            np.zeros((0, 4, 3), dtype=np.uint8),
        ],
    )
    def test_raster_must_be_non_empty_uint8_rgb(self, rgb):
        with pytest.raises(ValueError, match="raster"):
            FramePixels(rgb=rgb)

    def test_rasters_must_share_one_size(self):
        frames = list(_minimal_trace(pixels=True).frames)
        frames[2] = TraceFrame(
            stamp=frames[2].stamp,
            entities=frames[2].entities,
            background=frames[2].background,
            pixels=FramePixels(rgb=np.zeros((6, 8, 3), dtype=np.uint8)),
        )
        with pytest.raises(TraceError, match="frame 2: raster is 8x6, but frame 0's is 16x12"):
            Trace(header=TraceHeader(frame_count=3), frames=tuple(frames))

    @pytest.mark.parametrize("h, w", [(6, 8), (0, 0)])
    def test_mismatched_or_empty_raster_in_file_names_the_frame(self, tmp_path, h, w):
        path = tmp_path / "t.jsonl"
        write_trace(path, _minimal_trace(pixels=True))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        raw = base64.b64encode(bytes(h * w * 3)).decode("ascii")
        rec["pixels"] = {"w": w, "h": h, "rgb_b64": raw}
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="frame 1"):
            read_trace(path)

    def test_nonsequential_frames_rejected(self):
        frames = (
            TraceFrame(
                stamp=FrameStamp.at(1),
                entities=(),
                background=PatchRegion(0, 0, 64, 48),
            ),
        )
        with pytest.raises(TraceError):
            Trace(header=TraceHeader(frame_count=1), frames=frames)

    @pytest.mark.parametrize(
        "fields",
        [
            {"background_cr": float("nan")},
            {"background_cr": float("inf")},
            {"background_cr": 1.5},
            {"hist_shift_mean": float("inf")},
            {"hist_shift_mean": -1.0},
            {"patch_cr": {"obj": float("nan")}},
            {"patch_cr": {"obj": -0.1}},
        ],
    )
    def test_change_stats_out_of_range_rejected(self, fields):
        with pytest.raises(ValueError):
            ChangeStats(**{"background_cr": 0.1, "hist_shift_mean": 2.0, **fields})


class TestGenerator:
    def test_unknown_archetype(self):
        with pytest.raises(TraceError):
            generate_trace("dancing", 100, seed=0)

    def test_min_length(self):
        with pytest.raises(TraceError):
            generate_trace("static", 1, seed=0)
        trace = generate_trace("static", 2, seed=0)
        assert len(trace.frames) == 2

    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_archetypes_produce_consistent_traces(self, archetype):
        trace = generate_trace(archetype, 120, seed=3)
        assert len(trace.frames) == 120
        human_frames = [
            f for f in trace.frames if any(e.kind is EntityKind.HUMAN for e in f.entities)
        ]
        assert human_frames, "every archetype scripts at least one human"
        for frame in trace.frames:
            ids = [e.id for e in frame.entities]
            assert len(ids) == len(set(ids))
            assert frame.change is not None
            for e in frame.entities:
                if e.kind is EntityKind.HUMAN:
                    assert len(frame.keypoints[e.id]) == trace.header.keypoint_count

    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_deterministic_per_seed(self, tmp_path, archetype):
        a = generate_trace(archetype, 90, seed=11)
        b = generate_trace(archetype, 90, seed=11)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(pa, a)
        write_trace(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_entity_ids_consistent_across_frames(self):
        trace = generate_trace("walking", 150, seed=5)
        seen = {}
        for frame in trace.frames:
            for e in frame.entities:
                if e.id in seen:
                    assert seen[e.id] == e.kind
                seen[e.id] = e.kind

    def test_static_human_enters_and_exits(self):
        trace = generate_trace("static", 300, seed=1)
        enters = [f.stamp.index for f in trace.frames if "human-0" in f.enters]
        exits = [f.stamp.index for f in trace.frames if "human-0" in f.exits]
        assert len(enters) == 1 and len(exits) == 1
        assert enters[0] < exits[0]
