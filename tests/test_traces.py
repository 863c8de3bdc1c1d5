import base64
import dataclasses
import json
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import assert_traces_equal, read_trace_per_line
from percsched import schema
from percsched.cli import EXIT_TRACE, main
from percsched.config import RunConfig
from percsched.engine import PolicyKind, run
from percsched.metrics import KeyframeThresholds, extract_keyframes
from percsched.scene import Entity, EntityKind, PatchRegion
from percsched.traces import (
    ARCHETYPES,
    ChangeStats,
    FramePixels,
    Trace,
    TraceError,
    TraceFrame,
    TraceHeader,
    frame_from_dict,
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
                index=i,
                entities=(
                    Entity(id="obj", kind=EntityKind.OBJECT, region=PatchRegion(5, 5, 10, 10)),
                ),
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
            assert a.index == b.index
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
                index=i,
                entities=(human,),
                keypoints={"h": kps},
            )
            for i in range(2)
        )
        trace = Trace(header=TraceHeader(frame_count=2), frames=frames)
        path = tmp_path / "t.jsonl"
        write_trace(path, trace)
        back = read_trace(path)
        assert_traces_equal(back, trace)
        assert back.frames[0].keypoints["h"].tolist() == [list(p) for p in kps]

    def test_equality_is_identity(self, tmp_path):
        """Frames hold arrays, so equality is identity: two reads of one file
        compare unequal, without raising, and a frame equals itself."""
        for name, trace in (
            ("walking", generate_trace("walking", 3, 1, keypoint_count=17)),
            ("pixels", _minimal_trace(pixels=True)),
        ):
            path = tmp_path / f"{name}.jsonl"
            write_trace(path, trace)
            a, b = read_trace(path), read_trace(path)
            assert a != b and not a == b
            assert not any(fa == fb for fa, fb in zip(a.frames, b.frames))
            assert not any(fa.pixels == fb.pixels for fa, fb in zip(a.frames, b.frames)
                           if fa.pixels is not None)
            assert all(frame == frame for frame in a.frames) and a == a
        assert any(frame.keypoints for frame in read_trace(tmp_path / "walking.jsonl").frames)

    def test_integer_keypoints_read_as_floats(self, tmp_path):
        # frame 3 of this trace, on line 5, is the first with a human
        path = tmp_path / "t.jsonl"
        write_trace(path, generate_trace("interaction", 12, seed=3))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[4])
        rec["keypoints"]["human-0"][0] = [5, 7]
        lines[4] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        trace = read_trace(path)
        points = trace.frames[3].keypoints["human-0"]
        assert points.dtype == np.float64 and not points.flags.writeable
        point = points[0].tolist()
        assert point == [5.0, 7.0] and all(type(c) is float for c in point)
        again = tmp_path / "again.jsonl"
        write_trace(again, trace)
        point = json.loads(again.read_text().splitlines()[4])["keypoints"]["human-0"][0]
        assert point == [5.0, 7.0] and all(type(c) is float for c in point)


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
                index=i,
                entities=tuple(entities),
                keypoints=keypoints,
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
        assert_traces_equal(back, trace)


def _as_version_1(v2: Path, v1: Path) -> None:
    """Rewrite a version 2 trace file in version 1's form: each frame also
    carries the full-frame background, the ids that entered and exited, and
    each entity's moving flag."""
    lines = [json.loads(line) for line in v2.read_text().splitlines()]
    head = dict(lines[0], version=1)
    out = [head]
    prev = {}  # id -> (x, y, keypoints) in the previous frame
    for rec in lines[1:]:
        kps = rec.get("keypoints", {})
        now = {e["id"]: (e["x"], e["y"], kps.get(e["id"])) for e in rec["entities"]}
        for e in rec["entities"]:
            e["moving"] = now[e["id"]] != prev.get(e["id"])
        rec["background"] = {"x": 0, "y": 0, "w": head["frame_w"], "h": head["frame_h"]}
        rec["enters"] = sorted(set(now) - set(prev))
        rec["exits"] = sorted(set(prev) - set(now))
        out.append(rec)
        prev = now
    v1.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in out))


class TestVersions:
    def test_writer_emits_version_2_without_derived_keys(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, generate_trace("static", 60, seed=2))
        head, *frames = [json.loads(line) for line in path.read_text().splitlines()]
        assert head["version"] == 2
        for rec in frames:
            assert not {"background", "enters", "exits"} & set(rec)
            assert not any("moving" in e for e in rec["entities"])

    def test_version_1_file_reads_as_its_version_2_form(self, tmp_path):
        changes = generate_trace("static", 120, seed=11)
        # the same scene with a raster per frame in place of its change stats
        rasters = Trace(header=changes.header, frames=tuple(
            dataclasses.replace(
                f, change=None, pixels=FramePixels(rgb=np.full((12, 16, 3), f.index, np.uint8))
            )
            for f in changes.frames
        ))
        for trace in (changes, rasters):
            v2, v1 = tmp_path / "v2.jsonl", tmp_path / "v1.jsonl"
            write_trace(v2, trace)
            _as_version_1(v2, v1)
            text = v1.read_text()
            assert '"version":1' in text and '"enters":["human-0"]' in text
            assert '"exits":["human-0"]' in text and '"moving":true' in text
            new, old = read_trace(v2), read_trace(v1)
            assert_traces_equal(old, new)
            assert_traces_equal(new, trace)
            pipe = RunConfig(seed=11).pipeline(new.header)
            logs = [run(t, PolicyKind.SCHEDULED, pipe).to_jsonl() for t in (new, old)]
            assert logs[0] == logs[1]

    @pytest.mark.parametrize("version", [None, 0, 3, True, 2.0, "2"])
    def test_unknown_version_rejected(self, tmp_path, version):
        path = tmp_path / "t.jsonl"
        write_trace(path, _minimal_trace())
        lines = path.read_text().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), version=version))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match=f"line 1: unsupported trace version {version!r}"):
            read_trace(path)


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
            ("keypoint_count", 17.0),
            ("keypoint_count", True),
            ("frame_w", 0),
            ("frame_h", -48),
            # JSON true is not a number
            ("frame_period_ms", True),
            ("frame_w", True),
            ("frame_h", True),
            ("frame_period_ms", 1e308),
            ("frame_count", None),
            ("seed", "7"),
            ("seed", None),
            ("seed", 1.5),
            ("archetype", 7),
            ("archetype", []),
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
        "path, value, named",
        [
            # JSON true is not a number
            (("entities", 0, "x"), True, "x"),
            (("entities", 0, "y"), True, "y"),
            (("entities", 0, "w"), True, "w"),
            (("entities", 0, "h"), True, "h"),
            (("entities", 0, "relevance"), True, "relevance"),
            (("keypoints", "human-0", 0, 1), True, "keypoints['human-0'][0][1]"),
            (("change", "background_cr"), True, "background_cr"),
            (("change", "hist_shift_mean"), True, "hist_shift_mean"),
            (("change", "patch_cr", "cup"), True, "patch_cr['cup']"),
            (("change", "patch_cr"), [], "patch_cr"),
            (("keypoints", "human-0", 0, 0), "1.5", "keypoints['human-0'][0][0]"),
            (("keypoints", "human-0", 0, 1), None, "keypoints['human-0'][0][1]"),
            (("keypoints", "human-0", 1), [1.0, 2.0, 3.0], "keypoints['human-0'][1]"),
            (("keypoints", "human-0", 1), "ab", "keypoints['human-0'][1]"),
            (("keypoints", "human-0", 2), 5.0, "keypoints['human-0'][2]"),
            (("keypoints", "human-0"), "ab", "keypoints['human-0']"),
            (("keypoints", "human-0", 3, 0), float("nan"), "keypoints['human-0'][3][0]"),
            (("keypoints", "human-0", 3, 1), float("-inf"), "keypoints['human-0'][3][1]"),
            (("keypoints", "human-0", 4, 0), 1e7, "keypoints['human-0'][4][0]"),
            pytest.param(("keypoints", "human-0", 4, 1), -10**400, "keypoints['human-0'][4][1]",
                         id="huge-int-keypoint"),
            # JSON integers out of range
            pytest.param(("entities", 0, "w"), 0, "w", id="zero-int-width"),
            pytest.param(("change", "patch_cr", "cup"), 2, "patch_cr['cup']", id="int-ratio-above-one"),
        ],
    )
    def test_bad_frame_field_rejected_by_name(self, tmp_path, path, value, named):
        # frame 3 of this trace, on line 5, is the first with a human
        trace = tmp_path / "t.jsonl"
        write_trace(trace, generate_trace("interaction", 12, seed=3))
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[4])
        parent = rec
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        lines[4] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            TraceError, match=re.escape(f"line 5: frame 3: malformed record: {named} must be")
        ):
            read_trace(trace)

    def test_integer_numbers_read_as_written(self, tmp_path):
        """A JSON integer in a number field, alone or in a map of numbers,
        reads as the integer it is."""
        trace = tmp_path / "t.jsonl"
        write_trace(trace, generate_trace("interaction", 12, seed=3))
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[4])
        rec["entities"][0]["w"] = 60
        rec["change"]["patch_cr"] = dict.fromkeys(rec["change"]["patch_cr"], 1)
        lines[4] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        frame = read_trace(trace).frames[3]
        w = frame.entities[0].region.w
        assert w == 60 and type(w) is int
        assert frame.change.patch_cr == dict.fromkeys(rec["change"]["patch_cr"], 1)
        assert all(type(v) is int for v in frame.change.patch_cr.values())

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (1, "[]", "line 1: first record must be a trace header"),
            (2, "[]", "line 2: a record must be a JSON object"),
            (2, '{"record":"frame","index":1' + "0" * 400 + ',"entities":[]}',
             "line 2: frame 1" + "0" * 400 + ": malformed record"),
        ],
        ids=["list-header", "list-frame", "huge-index"],
    )
    def test_malformed_line_is_trace_error_naming_it(self, tmp_path, line, text, message):
        path = tmp_path / "t.jsonl"
        write_trace(path, _minimal_trace())
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match=re.escape(message)):
            read_trace(path)

    @pytest.mark.parametrize("index", [None, 1.0, "3"], ids=["missing", "float", "string"])
    def test_invalid_index_names_no_frame(self, tmp_path, index):
        path = tmp_path / "t.jsonl"
        write_trace(path, _minimal_trace())
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec.pop("index") if index is None else rec.update(index=index)
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError) as caught:
            read_trace(path)
        message = str(caught.value)
        assert message == f"line 2: malformed record: index must be an integer, got {index!r}"
        assert f"frame {index!r}" not in message and f"frame {index}" not in message

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
            index=frames[2].index,
            entities=frames[2].entities,
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
        frames = (TraceFrame(index=1, entities=()),)
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


def _human_frame(points):
    human = Entity(id="h", kind=EntityKind.HUMAN, region=PatchRegion(0, 0, 10, 20))
    return TraceFrame(index=0, entities=(human,), keypoints={"h": points})


class TestEntitiesAreCheckedOnce:
    def test_read_makes_no_item_parser_calls_for_entities(self, tmp_path, monkeypatch):
        # each Entity checks its own fields when it is built, so the frame's
        # tuple of them passes as it is
        path = tmp_path / "t.jsonl"
        write_trace(path, generate_trace("static", 20, seed=3))
        parsed = []
        real_item = schema._item

        def counting_item(parse, key, x):
            if isinstance(x, Entity):
                parsed.append(key)
            return real_item(parse, key, x)

        monkeypatch.setattr(schema, "_item", counting_item)
        trace = read_trace(path)
        assert sum(len(frame.entities) for frame in trace.frames) > 0
        assert parsed == []

    def test_an_item_of_another_type_is_named(self):
        good = Entity(id="a", kind=EntityKind.OBJECT, region=PatchRegion(0, 0, 1, 1))
        with pytest.raises(ValueError, match=r"entities\[1\] must be a Entity, got 'b'"):
            TraceFrame(index=0, entities=(good, "b"))
        frame = TraceFrame(index=0, entities=[good])
        assert frame.entities == (good,)


class TestKeypointsAreCheckedOnce:
    """A keypoint array the points parser packed passes a later frame's
    check on one lookup; any other array takes the full check."""

    def test_read_makes_no_range_pass_over_shared_keypoints(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, generate_trace("walking", 40, seed=3))
        passes = []

        def profile(frame, event, arg):
            if event == "c_call" and getattr(arg, "__qualname__", "") in (
                "ndarray.min", "ndarray.max"
            ):
                passes.append(arg)

        sys.setprofile(profile)
        try:
            trace = read_trace(path)
        finally:
            sys.setprofile(None)
        frames = trace.frames
        shared = [
            pts for a, b in zip(frames, frames[1:])
            for eid, pts in b.keypoints.items() if a.keypoints.get(eid) is pts
        ]
        assert shared and passes == []

    @pytest.mark.parametrize("bad", [2e6, np.nan])
    @pytest.mark.parametrize("over_bytes", [False, True], ids=["view", "over-bytes"])
    def test_a_foreign_read_only_array_is_checked_in_full(self, bad, over_bytes):
        points = [[1.0, 2.0], [bad, 4.0]]
        data = np.array(points).tobytes()
        # over bytes: laid out as the parser lays out the arrays it packs
        foreign = (np.ndarray((2, 2), np.float64, data) if over_bytes
                   else np.frombuffer(data).reshape(2, 2))
        assert not foreign.flags.writeable and foreign.flags.c_contiguous
        with pytest.raises(ValueError) as as_list:
            _human_frame(points)
        with pytest.raises(ValueError) as as_array:
            _human_frame(foreign)
        assert str(as_array.value) == str(as_list.value)
        good = np.frombuffer(np.array([[1.0, 2.0]]).tobytes()).reshape(1, 2)
        assert _human_frame(good).keypoints["h"] is good


def _one_entity_trace(path: Path, records) -> None:
    """Write a trace whose frame i lists the one entity record ``records[i]``."""
    head = {"record": "header", "schema": "percsched-trace", "version": 2,
            "frame_period_ms": 33.0, "keypoint_count": 17, "frame_count": len(records)}
    frames = [{"record": "frame", "index": i, "entities": [rec]} for i, rec in enumerate(records)]
    path.write_text("".join(json.dumps(r) + "\n" for r in [head, *frames]))


class TestSharedEntities:
    """The reader builds one ``Entity`` per distinct entity record of a file,
    and frames that repeat a record share it."""

    @pytest.mark.parametrize(
        "edit, text",
        [
            (lambda es: ["cup", *es[1:]], "string indices must be integers, not 'str'"),
            (lambda es: [[1, 2], *es[1:]], "list indices must be integers or slices, not str"),
            (lambda es: [5, *es[1:]], "'int' object is not subscriptable"),
            (lambda es: {e["id"]: e for e in es}, "string indices must be integers, not 'str'"),
        ],
        ids=["string", "list", "number", "entities-object"],
    )
    def test_entity_record_that_is_no_object_is_trace_error(self, tmp_path, edit, text):
        # frames 0-2 have filled the reader's memo by line 5, frame 3
        path = tmp_path / "t.jsonl"
        write_trace(path, generate_trace("interaction", 12, seed=3))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[4])
        rec["entities"] = edit(rec["entities"])
        lines[4] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError) as caught:
            read_trace(path)
        assert str(caught.value) == f"line 5: frame 3: malformed record: {text}"
        rc = main(["compare", "--trace", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_TRACE

    def test_records_equal_in_value_but_not_in_type_or_sign_stay_apart(self, tmp_path):
        cup = {"id": "cup", "kind": "object", "x": 300, "y": 5, "w": 10, "h": 10,
               "relevance": 1}
        xs = [300, 300.0, 0.0, -0.0, 300]
        path = tmp_path / "t.jsonl"
        _one_entity_trace(path, [dict(cup, x=x) for x in xs])
        entities = [frame.entities[0] for frame in read_trace(path).frames]
        assert [repr(e.region.x) for e in entities] == ["300", "300.0", "0.0", "-0.0", "300"]
        assert entities[0] is entities[4]
        assert len({id(e) for e in entities}) == 4

        _one_entity_trace(path, [cup, dict(cup, relevance=True)])
        with pytest.raises(TraceError, match=re.escape(
            "line 3: frame 1: malformed record: relevance must be"
        )):
            read_trace(path)

        _one_entity_trace(path, [cup, dict(cup, id=[1])])
        with pytest.raises(TraceError, match=re.escape(
            "line 3: frame 1: malformed record: id must be a string, got [1]"
        )):
            read_trace(path)

    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_read_trace_shares_entities_as_the_generator_does(self, tmp_path, archetype):
        made = generate_trace(archetype, 150, seed=3)
        path, again = tmp_path / "t.jsonl", tmp_path / "again.jsonl"
        write_trace(path, made)
        read = read_trace(path)

        def distinct(trace):
            return len({id(e) for frame in trace.frames for e in frame.entities})

        assert distinct(read) <= distinct(made)
        assert distinct(read) < sum(len(frame.entities) for frame in read.frames)
        write_trace(again, read)
        assert again.read_bytes() == path.read_bytes()


def _pixels(value: int, h: int = 2, w: int = 3) -> dict:
    """The pixels record of an ``h`` x ``w`` raster whose bytes all equal ``value``."""
    return {"w": w, "h": h, "rgb_b64": base64.b64encode(bytes([value]) * (h * w * 3)).decode()}


def _raster_trace(path: Path, rasters) -> None:
    """Write a trace whose frame i carries the pixels record ``rasters[i]``."""
    head = {"record": "header", "schema": "percsched-trace", "version": 2,
            "frame_period_ms": 33.0, "keypoint_count": 17, "frame_count": len(rasters)}
    frames = [{"record": "frame", "index": i, "entities": [], "pixels": p}
              for i, p in enumerate(rasters)]
    path.write_text("".join(json.dumps(r) + "\n" for r in [head, *frames]))


def _decode_error(p: dict) -> str:
    """The message of the error that decoding pixels record ``p`` on its own raises."""
    with pytest.raises((TypeError, ValueError)) as caught:
        np.frombuffer(base64.b64decode(p["rgb_b64"]), dtype=np.uint8).reshape(p["h"], p["w"], 3)
    return str(caught.value)


class TestSharedRasters:
    """The reader decodes a raster whose pixels record repeats the previous
    frame's text once, and those frames share one read-only array."""

    def test_consecutive_repeats_share_one_read_only_array(self, tmp_path):
        path = tmp_path / "t.jsonl"
        a, b = _pixels(7), _pixels(9)
        _raster_trace(path, [a, a, dict(a), b, b])
        rgbs = [frame.pixels.rgb for frame in read_trace(path).frames]
        assert rgbs[0] is rgbs[1] is rgbs[2]
        assert rgbs[3] is rgbs[4] and rgbs[3] is not rgbs[2]
        assert rgbs[0].tobytes() == bytes([7]) * 18 and rgbs[3].tobytes() == bytes([9]) * 18
        for rgb in rgbs:
            assert rgb.shape == (2, 3, 3) and not rgb.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rgb[0, 0, 0] = 1

    def test_only_the_last_raster_is_kept(self, tmp_path, monkeypatch):
        # A-B-A decodes A twice: the reader keeps the last raster, not a dict
        path = tmp_path / "t.jsonl"
        a, b = _pixels(7), _pixels(9)
        _raster_trace(path, [a, a, b, a])
        decoded = []
        real = base64.b64decode
        monkeypatch.setattr(base64, "b64decode", lambda s: decoded.append(s) or real(s))
        rgbs = [frame.pixels.rgb for frame in read_trace(path).frames]
        assert decoded == [a["rgb_b64"], b["rgb_b64"], a["rgb_b64"]]
        assert rgbs[0] is rgbs[1] and rgbs[3] is not rgbs[0]
        assert rgbs[3].tobytes() == rgbs[0].tobytes()

    @pytest.mark.parametrize(
        "edit",
        [{"h": 1}, {"h": True}, {"h": 2.0}, {"w": 3.0}, {"rgb_b64": 5}, {"rgb_b64": "AAA"}],
        ids=["other-height", "true-height", "float-height", "float-width", "number-text",
             "bad-padding"],
    )
    def test_repeat_that_differs_in_kind_fails_at_its_first_occurrence(self, tmp_path, edit):
        # a text equal to the last raster's never matches under a height or
        # width that is not that exact int, and a bad record never enters
        # the memo, so each fails as its own decode does
        path = tmp_path / "t.jsonl"
        a = _pixels(7)
        bad = dict(a, **edit)
        _raster_trace(path, [a, a, bad, bad])
        with pytest.raises(TraceError) as caught:
            read_trace(path)
        assert str(caught.value) == f"line 4: frame 2: malformed record: {_decode_error(bad)}"

    def test_record_that_fails_fails_each_time(self):
        header = TraceHeader()
        memo: dict = {}
        a = _pixels(7)
        frame_from_dict({"index": 0, "entities": [], "pixels": a}, header, memo)
        for bad in (dict(a, h=1), _pixels(0, h=0, w=0)):
            for _ in range(2):
                with pytest.raises(TraceError, match="frame 1: malformed record: "):
                    frame_from_dict({"index": 1, "entities": [], "pixels": bad}, header, memo)
        again = frame_from_dict({"index": 1, "entities": [], "pixels": dict(a)}, header, memo)
        assert again.pixels.rgb.tobytes() == bytes([7]) * 18

    def test_write_of_read_is_byte_identical(self, tmp_path):
        path, again = tmp_path / "t.jsonl", tmp_path / "again.jsonl"
        rgb = [np.full((12, 16, 3), v, dtype=np.uint8) for v in (3, 3, 3, 80, 3)]
        frames = [TraceFrame(index=i, entities=(), pixels=FramePixels(rgb=x))
                  for i, x in enumerate(rgb)]
        write_trace(path, Trace(header=TraceHeader(frame_count=5), frames=tuple(frames)))
        read = read_trace(path)
        assert read.frames[0].pixels is read.frames[2].pixels
        write_trace(again, read)
        assert again.read_bytes() == path.read_bytes()


def _small_rasters(trace: Trace) -> Trace:
    """``trace`` with each frame's change statistics replaced by a 2 x 3
    raster of one grey level set by its entities' positions, so a frame that
    repeats its entities repeats its raster."""
    frames = []
    for frame in trace.frames:
        level = int(sum(e.region.x + e.region.y for e in frame.entities)) % 256
        rgb = np.full((2, 3, 3), level, dtype=np.uint8)
        frames.append(dataclasses.replace(frame, change=None, pixels=FramePixels(rgb=rgb)))
    return Trace(header=trace.header, frames=tuple(frames))


@st.composite
def _generated_traces(draw):
    keypoints = draw(st.sampled_from((1, 5, 17, 133)))
    frames = draw(st.integers(2, 40 if keypoints < 133 else 12))
    trace = generate_trace(draw(st.sampled_from(ARCHETYPES)), frames,
                           draw(st.integers(0, 2**16)), keypoint_count=keypoints)
    return _small_rasters(trace) if draw(st.booleans()) else trace


# each line of a trace as write_trace writes it, with ", " and ": "
# separators, and with more whitespace around every token and the line
LAYOUTS = {
    "compact": lambda rec: json.dumps(rec, separators=(",", ":")),
    "spaced": json.dumps,
    "loose": lambda rec: " \t" + json.dumps(rec, separators=(" ,\t", "  : ")) + "\t ",
}
REPEATED = ("entities", "keypoints", "pixels")


class TestReaderWalk:
    """``read_trace`` takes a value whose text repeats the previous frame's
    value under the same key unparsed, and shares its product; it reads what
    ``json.loads`` on each line reads, and fails where that fails with the
    same error."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @settings(max_examples=40)
    @given(trace=_generated_traces())
    def test_read_equals_a_json_loads_read_and_shares_repeats(self, layout, trace):
        with tempfile.TemporaryDirectory() as tmp:
            compact, path = Path(tmp) / "compact.jsonl", Path(tmp) / "t.jsonl"
            write_trace(compact, trace)
            rows = [json.loads(line) for line in compact.read_text().splitlines()]
            path.write_text("".join(LAYOUTS[layout](rec) + "\n" for rec in rows))
            read, oracle = read_trace(path), read_trace_per_line(path)
            write_trace(path, read)
            assert path.read_bytes() == compact.read_bytes()
        assert_traces_equal(read, oracle)
        for thresholds in (KeyframeThresholds(0.0, 0.0), KeyframeThresholds()):
            assert (extract_keyframes(read.frames, thresholds)
                    == extract_keyframes(oracle.frames, thresholds))
        frames = read.frames
        for i, (last, rec) in enumerate(zip(rows[1:], rows[2:]), start=1):
            for key in REPEATED:
                if key in rec and json.dumps(rec[key]) == json.dumps(last.get(key)):
                    if key == "keypoints":
                        shared = frames[i].keypoints.items()
                        assert all(pts is frames[i - 1].keypoints[eid] for eid, pts in shared)
                    else:
                        assert getattr(frames[i], key) is getattr(frames[i - 1], key), (i, key)

    @staticmethod
    def edited(path: Path, edit) -> Path:
        """Write a 12-frame walking trace to ``path``, its line 12 (frame 10)
        replaced by ``edit`` of it. That line repeats line 11's entities and
        keypoints, as line 11 repeats line 10's."""
        write_trace(path, generate_trace("walking", 12, seed=3, keypoint_count=5))
        lines = path.read_text().splitlines()
        old, new = (json.loads(lines[n]) for n in (10, 11))
        assert old["entities"] == new["entities"] and old["keypoints"] == new["keypoints"]
        lines[11] = edit(lines[11])
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda line: line[: line.index('"keypoints"') + 40],
             "unreadable trace record: Expecting ',' delimiter: line 2 column 1 (char 450)"),
            (lambda line: line[: line.index(',"change"')],
             "unreadable trace record: Expecting ',' delimiter: line 2 column 1 (char 505)"),
            (lambda line: line + "\x1c",
             "unreadable trace record: Extra data: line 1 column 700 (char 699)"),
            (lambda line: "\ufeff" + line,
             "unreadable trace record: Unexpected UTF-8 BOM (decode using utf-8-sig): "
             "line 1 column 1 (char 0)"),
            (lambda line: line[:-1] + ',"keypoints":{"human-0":[[1.0,2.0]]}}',
             "frame 10: entity 'human-0' has 1 keypoints, header says 5"),
            (lambda line: re.sub(r"\[\[[^,]*", "[[NaN", line, count=1),
             "frame 10: malformed record: keypoints['human-0'][0][0] must be a finite number "
             "in [-1e+06, 1e+06], got nan"),
            (lambda line: line.replace(',"change"', 'x,"change"'),
             "unreadable trace record: Expecting ',' delimiter: line 1 column 505 (char 504)"),
            (lambda line: f"[{line}]", "a record must be a JSON object"),
        ],
        ids=["cut-in-keypoints", "cut-after-keypoints", "trailing-x1c", "bom", "duplicate-key",
             "nan", "garbage-after-keypoints", "array"],
    )
    def test_malformed_line_after_a_repeat_fails_as_json_loads_does(self, tmp_path, edit,
                                                                   message):
        with pytest.raises(TraceError) as caught:
            read_trace(self.edited(tmp_path / "t.jsonl", edit))
        assert str(caught.value) == f"line 12: {message}"

    def test_huge_int_raises_json_loads_value_error(self, tmp_path):
        path = self.edited(tmp_path / "t.jsonl",
                           lambda line: line.replace('"index":10', '"index":' + "1" * 5000))
        with pytest.raises(ValueError, match=re.escape(
            "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"
        )) as caught:
            read_trace(path)
        assert type(caught.value) is ValueError

    def test_duplicate_key_takes_its_last_value(self, tmp_path):
        path = self.edited(tmp_path / "t.jsonl", lambda line: line.replace(
            '"index":10,', '"index":10,"keypoints":5,"entities":[],'))
        read = read_trace(path)
        assert_traces_equal(read, read_trace_per_line(path))
        # a number is always parsed, so the last keypoints text read is line 11's
        assert read.frames[10].keypoints["human-0"] is read.frames[9].keypoints["human-0"]


class TestKeypointArrays:
    """In memory, each human's keypoints are one read-only, C-contiguous
    float64 array of shape (K, 2), whatever form the points came in."""

    @pytest.mark.parametrize(
        "points",
        [
            [[1.0, 2.0], [3.5, -4.0]],
            ((1, 2), (3.5, -4)),
            [[1, 2.0], [3.5, -4]],
            np.array([[1, 2], [3.5, -4]], dtype=np.float32),
            np.array([[1.0, 2.0], [3.5, -4.0]]),
            np.asfortranarray([[1.0, 2.0], [3.5, -4.0]]),
        ],
        ids=["floats", "int-tuples", "mixed", "float32", "writable", "fortran"],
    )
    def test_points_become_one_read_only_float_array(self, points):
        pts = _human_frame(points).keypoints["h"]
        assert type(pts) is np.ndarray and pts.dtype == np.float64 and pts.shape == (2, 2)
        assert pts.flags.c_contiguous and not pts.flags.writeable
        assert pts.tolist() == [[1.0, 2.0], [3.5, -4.0]]
        assert all(type(c) is float for xy in pts.tolist() for c in xy)

    def test_writable_array_is_copied(self):
        points = np.array([[1.0, 2.0]])
        pts = _human_frame(points).keypoints["h"]
        points[0, 0] = 9.0
        assert pts.tolist() == [[1.0, 2.0]]

    def test_read_only_array_passes_through_replace(self):
        frame = _human_frame([[1.0, 2.0], [3.0, 4.0]])
        again = dataclasses.replace(frame, change=ChangeStats(0.0, 0.0))
        assert again.keypoints["h"] is frame.keypoints["h"]

    def test_no_points_is_an_empty_pair_array(self):
        for points in ([], (), np.zeros((0, 2))):
            assert _human_frame(points).keypoints["h"].shape == (0, 2)

    @pytest.mark.parametrize(
        "points, named",
        [
            (np.array([[1.0, np.nan]]), "keypoints['h'][0][1]"),
            (np.array([[1.0, 2.0], [np.inf, 0.0]]), "keypoints['h'][1][0]"),
            (np.array([[1.0, 2e6]]), "keypoints['h'][0][1]"),
            (np.array([[True, False]]), "keypoints['h'][0][0]"),
            (np.zeros((2, 3)), "keypoints['h'][0]"),
            (np.zeros(4), "keypoints['h'][0]"),
            ([[1.0, 2.0], [True, 4.0]], "keypoints['h'][1][0]"),
            ([[1.0, 2.0], [3.0]], "keypoints['h'][1]"),
        ],
        ids=["nan", "inf", "out-of-range", "bool-array", "triples", "flat", "bool", "single"],
    )
    def test_bad_points_are_named(self, points, named):
        with pytest.raises(ValueError, match=re.escape(f"{named} must be")):
            _human_frame(points)

    def test_read_keeps_under_32_bytes_per_keypoint(self, tmp_path):
        """Per-frame records cost the same at any keypoint count, so the
        bytes a keypoint costs are the difference between reads of one
        60-frame walking scene at 133 and at 1 keypoint per human. Points
        held as a tuple of two floats each cost about 104 bytes."""
        retained = {}
        for count in (1, 133):
            path = tmp_path / f"walking-{count}.jsonl"
            write_trace(path, generate_trace("walking", 60, seed=0, keypoint_count=count))
            tracemalloc.start()
            try:
                trace = read_trace(path)
                retained[count] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            humans = sum(len(f.keypoints) for f in trace.frames)
            del trace
        assert humans > 50
        per_keypoint = (retained[133] - retained[1]) / (humans * 132)
        assert per_keypoint <= 32, f"{per_keypoint:.1f} bytes per keypoint"


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
        present = [any(e.id == "human-0" for e in f.entities) for f in trace.frames]
        # absent, then present over one unbroken span, then absent again
        first, last = present.index(True), len(present) - 1 - present[::-1].index(True)
        assert 0 < first < last < len(present) - 1
        assert all(present[first:last + 1])
