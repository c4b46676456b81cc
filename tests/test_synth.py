import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from vqs import synth
from vqs.masks import rle_decode, rle_encode
from vqs.synth import (
    _QUERY_SALT,
    MAX_DISTRACTORS,
    MAX_SCENE_BYTES,
    SHAPES,
    DatasetConfig,
    SceneConfig,
    SceneConfigError,
    ShapeState,
    Trajectory,
    _background,
    _dataset_files,
    _sample_timeline,
    _sample_trajectory,
    compute_digest,
    compute_stats,
    generate_dataset,
    generate_scene,
    load_manifest,
    load_scene_gt,
    mix_seed,
    rasterize_shape,
    rasterize_track,
    read_ppm,
    validate_manifest,
    write_ppm,
    write_regular_file,
)

from .helpers import bytes_read, recorded_reads
from .oracles import corner_gather_background, decode_runs, mgrid_rasterize_shape, probe_each_pieces


def oracle_rasterize(state, height, width):
    """Re-rasterize a stored shape state with an independent pixel-center test."""
    out = np.zeros((height, width), dtype=bool)
    for row in range(height):
        for col in range(width):
            x, y = col + 0.5, row + 0.5
            if state.shape == "disk":
                inside = (x - state.cx) ** 2 + (y - state.cy) ** 2 <= state.size**2
            elif state.shape == "rectangle":
                inside = abs(x - state.cx) <= state.size and abs(y - state.cy) <= state.size * state.aspect
            else:  # triangle
                ax, ay = state.cx, state.cy - state.size
                bx, by = state.cx - 0.9 * state.size, state.cy + 0.8 * state.size
                cx, cy = state.cx + 0.9 * state.size, state.cy + 0.8 * state.size
                d1 = (x - ax) * (by - ay) - (y - ay) * (bx - ax)
                d2 = (x - bx) * (cy - by) - (y - by) * (cx - bx)
                d3 = (x - cx) * (ay - cy) - (y - cy) * (ax - cx)
                inside = d1 >= 0 and d2 >= 0 and d3 >= 0
            out[row, col] = inside
    return out


def scene_states(cfg):
    """Each occurrence's target states, frame by frame, and the query's state:
    `Trajectory.state_at` on trajectories drawn as `generate_scene` draws them."""
    h, w = cfg.frame_size
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    spans = _sample_timeline(rng, cfg)
    hue = float(rng.uniform(0.0, 1.0))
    trajectories = [_sample_trajectory(rng, cfg, cfg.target_shape, hue) for _ in spans]
    qrng = np.random.default_rng(np.random.PCG64(mix_seed(cfg.seed, _QUERY_SALT)))
    query = _sample_trajectory(qrng, cfg, cfg.target_shape, hue).state_at(0, h, w)
    return [[traj.state_at(t, h, w) for t in range(end - start + 1)]
            for traj, (start, end) in zip(trajectories, spans)], query


def per_frame_scene(cfg):
    """`generate_scene`'s frames, occurrence masks, query and query mask, drawn
    as it draws them but rendered a frame at a time: each frame a copy of the
    background, each shape rasterized over the whole frame by the mgrid
    oracle and painted through that grid, each mask encoded by `rle_encode`."""
    h, w = cfg.frame_size
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    spans = _sample_timeline(rng, cfg)
    hue = float(rng.uniform(0.0, 1.0))
    occurrences = [_sample_trajectory(rng, cfg, cfg.target_shape, hue) for _ in spans]
    distractors = []
    for _ in range(cfg.distractor_count):
        d_hue = hue + float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.12, 0.45))
        distractors.append(_sample_trajectory(rng, cfg, cfg.target_shape, d_hue, float(rng.uniform(0.6, 1.4))))
    background = _background(rng, h, w)
    frames, masks = [], [[] for _ in spans]
    for t in range(cfg.num_frames):
        frame = background.copy()
        for d in distractors:
            state = d.state_at(t, h, w)
            frame[mgrid_rasterize_shape(state, h, w)] = state.color
        for k, (start, end) in enumerate(spans):
            if start <= t <= end:
                state = occurrences[k].state_at(t - start, h, w)
                grid = mgrid_rasterize_shape(state, h, w)
                frame[grid] = state.color
                masks[k].append(rle_encode(grid))
        frames.append(frame)
    qrng = np.random.default_rng(np.random.PCG64(mix_seed(cfg.seed, _QUERY_SALT)))
    qstate = _sample_trajectory(qrng, cfg, cfg.target_shape, hue).state_at(0, h, w)
    query = _background(qrng, h, w)
    qgrid = mgrid_rasterize_shape(qstate, h, w)
    query[qgrid] = qstate.color
    return frames, masks, query, rle_encode(qgrid)


class TestSeedMixing:
    def test_deterministic(self):
        assert mix_seed(7, 0) == mix_seed(7, 0)

    def test_streams_differ(self):
        seeds = {mix_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    def test_master_seed_matters(self):
        assert mix_seed(7, 0) != mix_seed(8, 0)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        [back] = read_ppm(path)
        assert np.array_equal(back, img)

    def test_sequence_read_as_views_of_one_buffer(self, tmp_path):
        rng = np.random.default_rng(1)
        imgs = [rng.integers(0, 256, size=(9, 11, 3), dtype=np.uint8) for _ in range(4)]
        path = tmp_path / "frames.ppm"
        write_ppm(path, *imgs)
        assert path.read_bytes() == b"".join(b"P6\n11 9\n255\n" + img.tobytes() for img in imgs)
        back = read_ppm(path, 4)
        assert all(np.array_equal(a, b) for a, b in zip(back, imgs))
        # read-only views, one image's bytes apart in one buffer
        assert not any(f.flags.writeable for f in back)
        starts = [f.__array_interface__["data"][0] for f in back]
        assert np.diff(starts).tolist() == [len(b"P6\n11 9\n255\n") + 9 * 11 * 3] * 3

    @pytest.mark.parametrize("written, expected, tail, message", [
        (3, 4, b"", "holds 3 PPM images, expected 4"),
        (3, 2, b"", "holds 3 PPM images, expected 2"),
        (3, 3, b"junk", "4 bytes left over after 3 PPM images, expected 3"),
        (3, 4, b"junk", "frame 3 of {path}: not a binary PPM"),
    ])
    def test_image_count_and_trailing_bytes_named(self, tmp_path, written, expected, tail, message):
        path = tmp_path / "frames.ppm"
        write_ppm(path, *[np.zeros((8, 8, 3), dtype=np.uint8)] * written)
        with open(path, "ab") as fh:
            fh.write(tail)
        error = message.format(path=path) if "{path}" in message else f"{path}: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            read_ppm(path, expected)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\nxxxx")
        with pytest.raises(ValueError):
            read_ppm(path)


def piece_outcomes(pieces):
    """Each piece's bytes with its shape, or its error's class and text."""
    return [(bytes(piece), (type(shape), str(shape)) if isinstance(shape, ValueError) else shape)
            for piece, shape in pieces]


class TestRepeatedHeaders:
    """A header equal to the last image's is taken without a parse: the pieces,
    shapes and errors are those of a probe and parse at every image."""

    HEADER = b"P6\n32 32\n255\n"
    SPELLINGS = (HEADER, b"P6 32 32 255\n")

    @staticmethod
    def images(n):
        rng = np.random.default_rng(n)
        return [rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8) for _ in range(n)]

    @staticmethod
    def assert_pieces_as_probing(path, num_frames):
        """`_file_pieces` and `read_ppm` of `path` agree with probing every header."""
        blob = path.read_bytes()
        expected = list(probe_each_pieces(lambda pos, n: blob[pos:pos + n], len(blob), path, num_frames))
        assert piece_outcomes(synth._file_pieces(path, num_frames)) == piece_outcomes(expected)
        errors = [shape for _, shape in expected if isinstance(shape, ValueError)]
        if errors:
            with pytest.raises(ValueError, match=f"^{re.escape(str(errors[0]))}$"):
                read_ppm(path, num_frames)
        else:
            assert [image.tobytes() for image in read_ppm(path, num_frames)] == [
                piece[len(piece) - h * w * 3:] for piece, (h, w) in expected]

    def test_spelling_changes_mid_file(self, tmp_path):
        imgs = self.images(6)
        headers = [self.SPELLINGS[k] for k in (0, 0, 1, 1, 0, 0)]
        path = tmp_path / "frames.ppm"
        path.write_bytes(b"".join(header + img.tobytes() for header, img in zip(headers, imgs)))
        self.assert_pieces_as_probing(path, 6)
        assert all(np.array_equal(a, b) for a, b in zip(read_ppm(path, 6), imgs, strict=True))

    @pytest.mark.parametrize("tail, num_frames", [
        (HEADER + bytes(32 * 32 * 3 - 5), 4),
        (HEADER + bytes(32 * 32 * 3 - 5), 3),
        (HEADER, 3),
        (HEADER, 4),
        (b"junk", 3),
        (b"junk", 4),
        (b"P6\n32 32\n254\n" + bytes(32 * 32 * 3), 4),
        (b"P6\n8 4\n255\n" + bytes(8 * 4 * 3) + HEADER + bytes(32 * 32 * 3), 5),
        (b"", 2),
        (b"", 5),
    ], ids=["short-payload-expected", "short-payload-left-over", "header-alone-expected", "header-alone-left-over",
            "junk-left-over", "junk-expected", "changed-maxval", "smaller-image-between", "too-many", "too-few"])
    def test_errors_after_repeated_headers(self, tmp_path, tail, num_frames):
        path = tmp_path / "frames.ppm"
        write_ppm(path, *self.images(3))
        with open(path, "ab") as fh:
            fh.write(tail)
        self.assert_pieces_as_probing(path, num_frames)


class TestBackground:
    def test_matches_corner_gather_oracle(self):
        sizes = np.random.default_rng(2026).integers(8, 200, size=(300, 2))
        for k, (h, w) in enumerate(sizes.tolist()):
            got = _background(np.random.default_rng(k), h, w)
            expected = corner_gather_background(np.random.default_rng(k), h, w)
            assert got.flags.c_contiguous and got.tobytes() == expected.tobytes(), (h, w)


class TestRasterizer:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_mgrid_oracle(self, shape):
        rng = np.random.default_rng([2026, SHAPES.index(shape)])
        for k in range(300):
            h, w = (int(v) for v in rng.integers(8, 97, size=2))
            # centres up to a frame beyond each edge; every other draw on the
            # half-pixel lattice, where pixel centres fall on the boundary
            cx, cy = rng.uniform(-w, 2 * w), rng.uniform(-h, 2 * h)
            size, aspect = rng.uniform(0.5, max(h, w)), rng.uniform(0.6, 1.0)
            if k % 2:
                cx, cy, size = (np.round(2 * v) / 2 for v in (cx, cy, size))
                aspect = 0.75
            state = ShapeState(shape, float(cx), float(cy), float(size), float(aspect), (0, 0, 0))
            got = rasterize_shape(state, h, w)
            assert got.shape == (h, w) and got.dtype == bool
            assert np.array_equal(got, mgrid_rasterize_shape(state, h, w)), state


def placed(chunks, height, width):
    """Each frame's whole foreground grid from `rasterize_track`'s chunks,
    checking that the chunks come in frame order and that each box lies in
    the frame and holds at most RASTER_CHUNK_BYTES of float64 temporaries
    (one frame a chunk when a single box holds more)."""
    grids = []
    for first, boxes, top, left in chunks:
        assert first == len(grids) and len(boxes) == len(top) == len(left) >= 1
        box_h, box_w = boxes.shape[1:]
        assert len(boxes) == 1 or 8 * boxes.size <= synth.RASTER_CHUNK_BYTES
        for box, y, x in zip(boxes, top.tolist(), left.tolist()):
            assert 0 <= y <= height - box_h and 0 <= x <= width - box_w
            grid = np.zeros((height, width), dtype=bool)
            grid[y:y + box_h, x:x + box_w] = box
            grids.append(grid)
    return grids


def seeded_tracks(rng, shape, h, w):
    """Tracks of one shape in an h x w frame: trajectories that sweep past
    every edge and are clamped there, one whose shape is wider than the frame
    (its centre clamped to the middle), drawn states whose centres lie up to
    a frame past each edge, and those states moved onto the half-pixel lattice."""
    def trajectory(base_size):
        return Trajectory(
            x0=float(rng.uniform(0, w)), y0=float(rng.uniform(0, h)),
            vx=float(rng.uniform(-0.2, 0.2)) * w, vy=float(rng.uniform(-0.2, 0.2)) * h,
            amp_x=float(rng.uniform(0.5, 1.5)) * w, amp_y=float(rng.uniform(0.5, 1.5)) * h,
            omega=float(rng.uniform(0.3, 0.9)), phase=float(rng.uniform(0, 2 * np.pi)),
            base_size=base_size, scale_amp=0.35, scale_omega=float(rng.uniform(0.1, 0.5)),
            scale_phase=float(rng.uniform(0, 2 * np.pi)), base_hue=0.3, hue_amp=0.06,
            aspect=float(rng.uniform(0.6, 1.5)), shape=shape)

    length = int(rng.integers(1, 40))
    tracks = [[trajectory(float(rng.uniform(1.5, min(h, w) / 3))).state_at(t, h, w) for t in range(length)],
              [trajectory(float(rng.uniform(max(h, w), 2 * max(h, w)))).state_at(t, h, w) for t in range(length)]]
    drawn = []
    for _ in range(length):
        cx, cy = rng.uniform(-w, 2 * w), rng.uniform(-h, 2 * h)
        size, aspect = rng.uniform(0.5, max(h, w)), rng.uniform(0.6, 1.5)
        drawn.append(ShapeState(shape, float(cx), float(cy), float(size), float(aspect), (0, 0, 0)))
    tracks.append(drawn)
    tracks.append([ShapeState(shape, *(float(np.round(2 * v) / 2) for v in (s.cx, s.cy, s.size)), 0.75, s.color)
                   for s in drawn])
    return tracks


class TestTrackRasterizer:
    @pytest.mark.parametrize("chunk_bytes", [None, 1, 1 << 12], ids=["default-chunks", "frame-chunks", "4k-chunks"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_mgrid_oracle_frame_by_frame(self, monkeypatch, shape, chunk_bytes):
        if chunk_bytes is not None:
            monkeypatch.setattr(synth, "RASTER_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng([2026, 10, SHAPES.index(shape)])
        clamped = edges = lattice = split = 0
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(8, 97, size=2))
            for states in seeded_tracks(rng, shape, h, w):
                chunks = list(rasterize_track(states, h, w))
                split += len(chunks) > 1
                got = placed(chunks, h, w)
                assert len(got) == len(states)
                for grid, state in zip(got, states):
                    assert np.array_equal(grid, mgrid_rasterize_shape(state, h, w)), state
                    clamped += (state.cx, state.cy) == (w / 2, h / 2)
                    edges += min(state.cx, state.cy, w - state.cx, h - state.cy) < state.size
                    lattice += state.cx % 0.5 == state.cy % 0.5 == 0
        assert clamped > 100 and edges > 1000 and lattice > 100
        assert split > (100 if chunk_bytes else 0)

    def test_mixed_shapes_rejected(self):
        states = [ShapeState(shape, 8.0, 8.0, 3.0, 1.0, (0, 0, 0)) for shape in ("disk", "triangle")]
        with pytest.raises(SceneConfigError, match="one known shape"):
            list(rasterize_track(states, 16, 16))


class TestWriteRegularFile:
    def test_replaces_a_longer_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 100)
        write_regular_file(path, b"ab")
        assert path.read_bytes() == b"ab"

    @pytest.mark.parametrize("victim, reason", [
        ("directory", os.strerror(errno.EISDIR)),
        ("missing parent", os.strerror(errno.ENOENT)),
    ])
    def test_names_why_it_cannot_write(self, tmp_path, victim, reason):
        path = tmp_path if victim == "directory" else tmp_path / "no" / "out.json"
        with pytest.raises(FileNotFoundError, match=f"^{re.escape(f'{path}: {reason}')}$"):
            write_regular_file(path, b"ab")


class TestGenerateScene:
    def test_full_timeline_single_occurrence(self):
        cfg = SceneConfig(num_frames=20, num_occurrences=1, appearance_drift=0.0,
                          full_timeline=True, seed=3)
        record = generate_scene(cfg)
        assert len(record.gt.occurrences) == 1
        occ = record.gt.occurrences[0]
        assert (occ.start_frame, occ.end_frame) == (0, 19)

    def test_determinism(self):
        cfg = SceneConfig(num_frames=12, num_occurrences=2, seed=99)
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))
        assert np.array_equal(a.query_frame, b.query_frame)
        assert a.query_mask == b.query_mask
        assert a.gt == b.gt

    def test_seed_changes_content(self):
        a = generate_scene(SceneConfig(num_frames=8, num_occurrences=1, seed=1))
        b = generate_scene(SceneConfig(num_frames=8, num_occurrences=1, seed=2))
        assert not all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))

    def test_three_disjoint_occurrences_match_rerasterization(self):
        cfg = SceneConfig(num_frames=60, num_occurrences=3, seed=11,
                          target_shape="triangle", appearance_drift=0.5)
        record = generate_scene(cfg)
        occs = record.gt.occurrences
        assert len(occs) == 3
        for prev, nxt in zip(occs, occs[1:]):
            assert nxt.start_frame > prev.end_frame + 0  # disjoint and sorted
        h, w = cfg.frame_size
        for occ, states in zip(occs, scene_states(cfg)[0]):
            assert len(states) == len(occ.masks)
            for mask, state in zip(occ.masks, states):
                expected = oracle_rasterize(state, h, w)
                assert np.array_equal(rle_decode(mask).astype(bool), expected)

    def test_target_absent_outside_occurrences(self):
        # frames outside every span must not contain the target color patch:
        # regenerating the scene with the target painted everywhere would
        # differ, so instead check annotated frames differ from background-only
        cfg = SceneConfig(num_frames=10, num_occurrences=2, seed=5, distractor_count=0,
                          appearance_drift=0.0)
        record = generate_scene(cfg)
        covered = set(record.gt.frame_masks())
        uncovered = [t for t in range(cfg.num_frames) if t not in covered]
        assert uncovered, "scene should have empty frames"
        # all uncovered frames show the pure background (no distractors here)
        base = record.frames[uncovered[0]]
        for t in uncovered[1:]:
            assert np.array_equal(record.frames[t], base)
        for t in sorted(covered):
            assert not np.array_equal(record.frames[t], base)

    def test_query_is_not_a_video_frame(self):
        record = generate_scene(SceneConfig(num_frames=16, num_occurrences=2, seed=21))
        for frame in record.frames:
            assert not np.array_equal(record.query_frame, frame)
        assert record.query_mask.area() > 0

    def test_all_shapes_render(self):
        for shape in ("disk", "rectangle", "triangle"):
            record = generate_scene(SceneConfig(num_frames=5, num_occurrences=1,
                                                target_shape=shape, seed=2))
            assert all(m.area() > 0 for occ in record.gt.occurrences for m in occ.masks)

    def test_unfit_occurrences_rejected(self):
        with pytest.raises(SceneConfigError):
            SceneConfig(num_frames=3, num_occurrences=3)

    @pytest.mark.parametrize("fps", [0, -6])
    def test_fps_below_one_rejected(self, fps):
        with pytest.raises(SceneConfigError, match=f"fps must be >= 1, got {fps}"):
            SceneConfig(fps=fps)

    @pytest.mark.parametrize("chunk_bytes", [None, 1, 1 << 12], ids=["default-chunks", "frame-chunks", "4k-chunks"])
    def test_matches_per_frame_rendering(self, monkeypatch, chunk_bytes):
        if chunk_bytes is not None:
            monkeypatch.setattr(synth, "RASTER_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(20261020)
        for i in range(24):
            num_frames = int(rng.integers(1, 30))
            cfg = SceneConfig(frame_size=(int(rng.integers(8, 80)), int(rng.integers(8, 80))),
                              num_frames=num_frames,
                              num_occurrences=int(rng.integers(1, (num_frames + 1) // 2 + 1)),
                              distractor_count=int(rng.integers(0, 4)), target_shape=SHAPES[i % 3],
                              appearance_drift=float(rng.uniform(0, 1)),
                              target_scale=float(rng.uniform(0.02, 0.49)), seed=i)
            record = generate_scene(cfg)
            frames, masks, query, query_mask = per_frame_scene(cfg)
            assert len(record.frames) == len(frames)
            assert all(np.array_equal(got, want) for got, want in zip(record.frames, frames))
            assert [list(occ.masks) for occ in record.gt.occurrences] == masks
            assert np.array_equal(record.query_frame, query) and record.query_mask == query_mask
            # the frames are views into one block
            block = record.frames[0].base
            assert block.shape == (num_frames, *cfg.frame_size, 3)
            assert all(frame.base is block for frame in record.frames)

    def test_query_mask_matches_query_state(self):
        cfg = SceneConfig(num_frames=6, num_occurrences=1, seed=77)
        record = generate_scene(cfg)
        h, w = cfg.frame_size
        expected = oracle_rasterize(scene_states(cfg)[1], h, w)
        assert np.array_equal(rle_decode(record.query_mask).astype(bool), expected)


class TestDatasetConfigBounds:
    @pytest.mark.parametrize("field, bounds, message", [
        ("num_frames", (5, 3), "--frames range 5:3 is reversed"),
        ("num_frames", (0, 3), "--frames range must start at >= 1, got 0:3"),
        ("num_occurrences", (3, 1), "--occurrences range 3:1 is reversed"),
        ("num_occurrences", (0, 0), "--occurrences range must start at >= 1, got 0:0"),
        ("distractor_count", (2, 1), "--distractors range 2:1 is reversed"),
        ("distractor_count", (-1, 2), "--distractors range must start at >= 0, got -1:2"),
        ("appearance_drift", (0.5, 0.1), "--drift range 0.5:0.1 is reversed"),
        ("appearance_drift", (-0.1, 0.1), "--drift range must start at >= 0.0, got -0.1:0.1"),
        ("target_scale", (0.3, 0.1), "--scale range 0.3:0.1 is reversed"),
        ("target_scale", (0.2, 0.5), "--scale range must end at <= 0.49, got 0.2:0.5"),
    ])
    def test_bad_range_names_its_flag(self, field, bounds, message):
        with pytest.raises(SceneConfigError, match=re.escape(message)):
            DatasetConfig(**{field: bounds})

    def test_occurrences_must_fit_the_shortest_video(self):
        # LO occurrences need 2 * LO - 1 frames; the sampler used to draw fewer without a word
        for frames in range(1, 12):
            most = (frames + 1) // 2
            DatasetConfig(num_frames=(frames, frames + 5), num_occurrences=(most, most + 3))
            with pytest.raises(SceneConfigError, match=re.escape(
                    f"--occurrences range must start at <= {most} to fit in {frames} frames, "
                    f"got {most + 1}:{most + 3}")):
                DatasetConfig(num_frames=(frames, frames + 5), num_occurrences=(most + 1, most + 3))

    def test_caps_are_checked_on_the_config_alone(self):
        # the largest frame sizes the block; nothing is drawn or allocated
        sizes = ((8, 8), (64, 48), (16, 16))
        most = MAX_SCENE_BYTES // (64 * 48 * 3)
        DatasetConfig(frame_sizes=sizes, num_frames=(1, most))
        with pytest.raises(SceneConfigError, match=f"--frames 1:{most + 1}: a scene of {most + 1} 64x48 frames"):
            DatasetConfig(frame_sizes=sizes, num_frames=(1, most + 1))
        DatasetConfig(distractor_count=(0, MAX_DISTRACTORS))
        with pytest.raises(SceneConfigError, match=f"--distractors range must end at <= {MAX_DISTRACTORS}"):
            DatasetConfig(distractor_count=(0, MAX_DISTRACTORS + 1))


def small_dataset(tmp_path, n=3, seed=42, **overrides):
    dist = DatasetConfig(
        frame_sizes=((32, 32),),
        num_frames=(8, 14),
        num_occurrences=(1, 3),
        distractor_count=(0, 2),
        target_scale=(0.15, 0.3),
        **overrides,
    )
    out = tmp_path / "ds"
    manifest = generate_dataset(n, dist, seed, out)
    return out, manifest


class TestGenerateDataset:
    def test_single_scene_digest_verifies(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=1)
        assert len(manifest["scenes"]) == 1
        assert validate_manifest(out) == []

    def test_same_seed_identical(self, tmp_path):
        out_a, man_a = small_dataset(tmp_path / "a", n=4, seed=7)
        out_b, man_b = small_dataset(tmp_path / "b", n=4, seed=7)
        assert man_a["digest"] == man_b["digest"]
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
        for scene in man_a["scenes"]:
            for rel in (scene["frames"], scene["query"], scene["gt"]):
                assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        _, man_a = small_dataset(tmp_path / "a", n=2, seed=1)
        _, man_b = small_dataset(tmp_path / "b", n=2, seed=2)
        assert man_a["digest"] != man_b["digest"]

    def test_gt_loadable(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=2)
        for entry in manifest["scenes"]:
            response, qmask = load_scene_gt(out, entry)
            assert qmask.shape == (entry["height"], entry["width"])
            assert qmask.area() > 0
            assert len(response.occurrences) >= 1

    def test_area_distribution_spans_all_subsets(self, tmp_path):
        from vqs.metrics import evaluate_run

        dist = DatasetConfig(
            frame_sizes=((48, 48), (128, 128), (320, 320)),
            num_frames=(8, 14),
            num_occurrences=(1, 2),
            distractor_count=(0, 1),
            appearance_drift=(0.0, 0.3),
            target_scale=(0.15, 0.45),
        )
        out = tmp_path / "span"
        manifest = generate_dataset(50, dist, 5, out)
        gts = {}
        for entry in manifest["scenes"]:
            response, _ = load_scene_gt(out, entry)
            gts[entry["id"]] = response
        report = evaluate_run(gts, dict(gts))
        assert all(report.video_counts[name] > 0 for name in ("Small", "Medium", "Large"))


class TestComputeStats:
    def test_video_length_seconds(self, tmp_path):
        dist = DatasetConfig(frame_sizes=((32, 32),), num_frames=(60, 60),
                             num_occurrences=(1, 1), distractor_count=(0, 0))
        out = tmp_path / "ds"
        generate_dataset(1, dist, 5, out)
        stats = compute_stats(out)
        assert stats["video_length_sec"]["mean"] == pytest.approx(10.0)

    def test_static_target_adjacent_iou_one(self, tmp_path):
        dist = DatasetConfig(frame_sizes=((32, 32),), num_frames=(10, 10),
                             num_occurrences=(1, 1), distractor_count=(0, 1),
                             appearance_drift=(0.0, 0.0))
        out = tmp_path / "ds"
        generate_dataset(2, dist, 9, out)
        stats = compute_stats(out)
        hist = stats["adjacent_frame_iou"]
        assert hist["min"] == 1.0 and hist["max"] == 1.0

    def test_occurrence_histogram_matches_direct_count(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=10, seed=3)
        stats = compute_stats(out)
        direct = []
        for entry in manifest["scenes"]:
            with open(out / entry["gt"]) as fh:
                direct.append(len(json.load(fh)["occurrences"]))
        assert stats["occurrence_count"]["count"] == len(direct)
        assert stats["occurrence_count"]["mean"] == pytest.approx(np.mean(direct))


class TestValidateManifest:
    def test_fresh_dataset_clean(self, tmp_path):
        out, _ = small_dataset(tmp_path, n=3)
        assert validate_manifest(out) == []

    def test_overlapping_masklets_reported(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=1)
        gt_path = out / manifest["scenes"][0]["gt"]
        obj = json.loads(gt_path.read_text())
        occ = obj["occurrences"][0]
        clone = dict(occ)  # same span again -> temporal overlap
        obj["occurrences"] = [occ, clone]
        gt_path.write_text(json.dumps(obj))
        violations = validate_manifest(out)
        assert any("disjoint" in v or "overlap" in v for v in violations)

    def test_corrupt_run_sum_reported(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=1)
        sid = manifest["scenes"][0]["id"]
        gt_path = out / manifest["scenes"][0]["gt"]
        obj = json.loads(gt_path.read_text())
        runs = obj["occurrences"][0]["masks"][0].split(",")
        runs[0] = str(int(runs[0]) + 1)
        obj["occurrences"][0]["masks"][0] = ",".join(runs)
        gt_path.write_text(json.dumps(obj))
        violations = validate_manifest(out)
        assert any(sid in v and "runs" in v for v in violations)

    def test_missing_file_reported(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=1)
        victim = out / manifest["scenes"][0]["frames"]
        victim.unlink()
        violations = validate_manifest(out)
        assert any("missing file" in v for v in violations)

    def test_digest_mismatch_reported(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=1)
        query = out / manifest["scenes"][0]["query"]
        blob = bytearray(query.read_bytes())
        blob[-1] ^= 0xFF
        query.write_bytes(bytes(blob))
        violations = validate_manifest(out)
        assert any("digest" in v for v in violations)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_reported_missing(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=1)
        victim = manifest["scenes"][0]["frames"]
        (out / victim).unlink()
        os.mkfifo(out / victim)  # opening it for reading would wait for a writer
        assert validate_manifest(out) == [f"scene_0000: missing file {victim}"]

    def test_query_equal_to_frame_reported(self, tmp_path):
        out, manifest = small_dataset(tmp_path, n=1)
        entry = manifest["scenes"][0]
        frames = read_ppm(out / entry["frames"], entry["num_frames"])
        write_ppm(out / entry["query"], frames[-1])
        first = next(t for t, frame in enumerate(frames) if np.array_equal(frame, frames[-1]))
        violations = validate_manifest(out)
        assert f"scene_0000: query frame identical to video frame {first} of {entry['frames']}" in violations


def multi_defect_dataset(tmp_path, missing_frames=True):
    """A six-scene dataset with one of each defect validate reports.

    Scene 0 has overlapping masklets and, when `missing_frames`, no frames
    file, which turns the digest check off. Scene 1 has a bad run sum and a
    query equal to its frame 0, and scene 2 gt that is not JSON, a query with
    a flipped byte and a frame 1 of the wrong shape; a gt defect does not end
    its scene's other checks. Scene 3 has a query equal to its frame 3, a frame
    2 of the wrong shape and a frame 5 that is not a PPM. Scene 4's frames
    file lacks its last image, and scene 5's has bytes after its last image.
    """
    out, manifest = small_dataset(tmp_path, n=6, seed=4)
    s0, s1, s2, s3, s4, s5 = manifest["scenes"]
    f1, f2, f3, f4 = (read_ppm(out / s["frames"], s["num_frames"]) for s in (s1, s2, s3, s4))
    wrong_shape = np.zeros((16, 24, 3), dtype=np.uint8)
    gt0 = json.loads((out / s0["gt"]).read_text())
    gt0["occurrences"] = [gt0["occurrences"][0], dict(gt0["occurrences"][0])]
    (out / s0["gt"]).write_text(json.dumps(gt0))
    if missing_frames:
        (out / s0["frames"]).unlink()
    gt1 = json.loads((out / s1["gt"]).read_text())
    runs = gt1["occurrences"][0]["masks"][0].split(",")
    runs[0] = str(int(runs[0]) + 1)
    gt1["occurrences"][0]["masks"][0] = ",".join(runs)
    (out / s1["gt"]).write_text(json.dumps(gt1))
    write_ppm(out / s1["query"], f1[0])
    (out / s2["gt"]).write_text('{"video_id": "scene_0002", "occurrences": [')
    query = bytearray((out / s2["query"]).read_bytes())
    query[-1] ^= 0xFF
    (out / s2["query"]).write_bytes(bytes(query))
    write_ppm(out / s2["frames"], f2[0], wrong_shape, *f2[2:])
    write_ppm(out / s3["query"], f3[3])
    write_ppm(out / s3["frames"], *f3[:2], wrong_shape, *f3[3:5])
    with open(out / s3["frames"], "ab") as fh:
        fh.write(b"GIF89a not a portable pixmap")
    write_ppm(out / s4["frames"], *f4[:-1])
    with open(out / s5["frames"], "ab") as fh:
        fh.write(b"trailing")
    return out


# validate's output on multi_defect_dataset. Scenes 0 to 3 keep the text and
# order of the validate that read one file per frame, with each frame named by
# its index in the scene's frames file. The second lines of scenes 1 and 2 show
# that a gt defect does not end its scene's other checks.
_SCENE_CHECKS = [
    "scene_0000: occurrences must be sorted and temporally disjoint; [0, 1] overlaps or precedes frame 1",
    "scene_0001: runs sum to 1025, expected 1024",
    "scene_0001: query frame identical to video frame 0 of scenes/scene_0001/frames.ppm",
    "scene_0002: gt unreadable (Expecting value: line 1 column 44 (char 43))",
    "scene_0002: frame 1 of scenes/scene_0002/frames.ppm has shape (16, 24)",
    "scene_0003: query frame identical to video frame 3 of scenes/scene_0003/frames.ppm",
    "scene_0003: frame 2 of scenes/scene_0003/frames.ppm has shape (16, 24)",
    "scene_0003: frame 5 of <data>/scenes/scene_0003/frames.ppm: not a binary PPM",
    "scene_0004: <data>/scenes/scene_0004/frames.ppm: holds 10 PPM images, expected 11",
    "scene_0005: <data>/scenes/scene_0005/frames.ppm: 8 bytes left over after 10 PPM images, expected 10",
]
MULTI_DEFECT_VIOLATIONS = {
    True: ["scene_0000: missing file scenes/scene_0000/frames.ppm", *_SCENE_CHECKS],
    False: ["manifest: digest does not match dataset content", *_SCENE_CHECKS],
}


class TestValidateReadsOnce:
    @staticmethod
    def assert_clean_reading_once(out):
        dataset_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        assert validate_manifest(out) == []  # first call: lazy imports, warm caches
        before = bytes_read()
        assert validate_manifest(out) == []
        assert bytes_read() - before <= 1.05 * dataset_bytes

    def test_reads_each_file_once(self, tmp_path):
        self.assert_clean_reading_once(small_dataset(tmp_path, n=4)[0])

    def test_repeated_file_read_once_hashed_twice(self, tmp_path):
        # both scenes list the longer scene's frames file; the other one is gone
        out, manifest = small_dataset(tmp_path, n=2)
        short, long = sorted(manifest["scenes"], key=lambda entry: entry["num_frames"])
        (out / short["frames"]).unlink()
        short.update(frames=long["frames"], num_frames=long["num_frames"])
        manifest["digest"] = compute_digest(out, _dataset_files(manifest["scenes"]))
        (out / "manifest.json").write_text(json.dumps(manifest))
        self.assert_clean_reading_once(out)


class TestBoundedReads:
    """validate and gen's digest read a frames file one frame at a time."""

    FRAME_BYTES = len(b"P6\n32 32\n255\n") + 32 * 32 * 3  # small_dataset's frames

    def assert_one_frame_a_read(self, out, manifest, reads):
        frames = {str(out / entry["frames"]) for entry in manifest["scenes"]}
        sizes = [n for path, n in reads if path in frames]
        assert {path for path, _ in reads} >= frames
        assert max(sizes) <= self.FRAME_BYTES
        assert min(os.path.getsize(path) for path in frames) > self.FRAME_BYTES

    def test_validate(self, tmp_path, monkeypatch):
        out, manifest = small_dataset(tmp_path, n=3)
        reads = recorded_reads(monkeypatch)
        assert validate_manifest(out) == []
        monkeypatch.undo()
        self.assert_one_frame_a_read(out, manifest, reads)

    def test_gen_digest(self, tmp_path, monkeypatch):
        reads = recorded_reads(monkeypatch)
        out, manifest = small_dataset(tmp_path, n=3)  # gen reads nothing but through compute_digest
        monkeypatch.undo()
        self.assert_one_frame_a_read(out, manifest, reads)


class TestOneReadAFrame:
    @pytest.mark.parametrize("reader", ["validate", "digest"])
    def test_frames_file_in_frames_plus_one_reads(self, tmp_path, monkeypatch, reader):
        out, manifest = small_dataset(tmp_path, n=3)
        reads = recorded_reads(monkeypatch)
        if reader == "validate":
            assert validate_manifest(out) == []
        else:
            assert compute_digest(out, _dataset_files(manifest["scenes"])) == manifest["digest"]
        monkeypatch.undo()
        for entry in manifest["scenes"]:
            sizes = [n for path, n in reads if path == str(out / entry["frames"])]
            assert sizes == [synth._PPM_HEADER_MAX] + [TestBoundedReads.FRAME_BYTES] * entry["num_frames"]


def restamp(out, manifest):
    """Write `manifest` with the digest of the files it now names."""
    manifest["digest"] = compute_digest(out, _dataset_files(manifest["scenes"]))
    (out / "manifest.json").write_text(json.dumps(manifest))


def first_equal(frames, image):
    return next(t for t, frame in enumerate(frames) if np.array_equal(frame, image))


class TestQueryComparison:
    """A query is compared byte for byte with the frames of each scene that
    names it, wherever its file sorts; the lists are those of the validate
    that compared a sha256 of the query with one of each frame."""

    @staticmethod
    def two_scenes(tmp_path):
        out, manifest = small_dataset(tmp_path, n=2)
        frames = [read_ppm(out / entry["frames"], entry["num_frames"]) for entry in manifest["scenes"]]
        return out, manifest, manifest["scenes"], frames

    def test_payload_under_another_header_not_reported(self, tmp_path):
        out, manifest, (s0, _), (f0, _) = self.two_scenes(tmp_path)
        (out / s0["query"]).write_bytes(b"P6 32 32 255\n" + f0[2].tobytes())
        restamp(out, manifest)
        assert validate_manifest(out) == []

    def test_query_is_another_scenes_frames_file(self, tmp_path):
        out, manifest, (s0, s1), _ = self.two_scenes(tmp_path)
        s1["query"] = s0["frames"]
        restamp(out, manifest)
        assert validate_manifest(out) == []

    def test_query_that_is_its_own_broken_frames_file(self, tmp_path):
        # one piece that does not parse, as query and as frames: nothing to compare
        out, manifest, (s0, _), _ = self.two_scenes(tmp_path)
        s0["query"] = s0["frames"]
        (out / s0["frames"]).write_bytes((out / s0["frames"]).read_bytes()[:TestBoundedReads.FRAME_BYTES - 100])
        restamp(out, manifest)
        assert validate_manifest(out) == [f"scene_0000: frame 0 of {out / s0['frames']}: pixel payload holds "
                                          f"{32 * 32 * 3 - 100} bytes, a 32x32 image needs {32 * 32 * 3}"]

    def test_query_listed_by_two_scenes(self, tmp_path, monkeypatch):
        # the query's turn comes before the second scene's frames file: it is held, not read again
        out, manifest, (s0, s1), (f0, f1) = self.two_scenes(tmp_path)
        write_ppm(out / s0["query"], f1[2])
        s1["query"] = s0["query"]
        restamp(out, manifest)
        reads = recorded_reads(monkeypatch)
        assert validate_manifest(out) == [
            f"scene_0001: query frame identical to video frame {first_equal(f1, f1[2])} of {s1['frames']}"]
        monkeypatch.undo()
        assert [n for path, n in reads if path == str(out / s0["query"])] == [
            synth._PPM_HEADER_MAX, TestBoundedReads.FRAME_BYTES]

    def test_missing_query_leaves_frames_checked(self, tmp_path):
        out, manifest, (s0, _), (f0, _) = self.two_scenes(tmp_path)
        (out / s0["query"]).unlink()
        write_ppm(out / s0["frames"], f0[0], np.zeros((16, 24, 3), dtype=np.uint8), *f0[2:])
        assert validate_manifest(out) == [f"scene_0000: missing file {s0['query']}",
                                          f"scene_0000: frame 1 of {s0['frames']} has shape (16, 24)"]

    def test_query_sorting_before_its_frames(self, tmp_path):
        out, manifest, (s0, _), (f0, _) = self.two_scenes(tmp_path)
        write_ppm(out / s0["frames"], *f0[:5], f0[3], *f0[6:])  # frame 3 again at 5: the first is named
        s0["query"] = "scenes/scene_0000/a_query.ppm"
        write_ppm(out / s0["query"], f0[3])
        restamp(out, manifest)
        assert validate_manifest(out) == [
            f"scene_0000: query frame identical to video frame {first_equal(f0, f0[3])} of {s0['frames']}"]

    def test_shared_frames_file_meets_each_scenes_query(self, tmp_path):
        out, manifest, (s0, s1), (_, f1) = self.two_scenes(tmp_path)
        s0.update(frames=s1["frames"], num_frames=s1["num_frames"])
        write_ppm(out / s0["query"], f1[4])
        write_ppm(out / s1["query"], f1[1])
        restamp(out, manifest)
        assert validate_manifest(out) == [
            f"scene_0000: query frame identical to video frame {first_equal(f1, f1[4])} of {s1['frames']}",
            f"scene_0001: query frame identical to video frame {first_equal(f1, f1[1])} of {s1['frames']}"]


class TestValidatePinned:
    @pytest.mark.parametrize("missing_frame", [True, False], ids=["missing-frame", "all-files"])
    def test_violation_list_is_pinned(self, tmp_path, missing_frame):
        out = multi_defect_dataset(tmp_path, missing_frame)
        violations = [v.replace(str(out), "<data>") for v in validate_manifest(out)]
        assert violations == MULTI_DEFECT_VIOLATIONS[missing_frame]
