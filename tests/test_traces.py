import json

import numpy as np
import pytest

from percsched.scene import Entity, EntityKind, FrameStamp, PatchRegion
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
