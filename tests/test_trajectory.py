import hashlib
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from physedit import raster
from physedit.errors import DomainError, IoError, ShapeError
from physedit.raster import CameraSpec, rasterize_frame, read_pgm, write_pgm
from physedit.trajectory import (Trajectory, compare_trajectories,
                                 export_trajectory, frame_bytes,
                                 parse_frame_bytes, read_trajectory,
                                 verify_trajectory)
from oracles import pixel_oracle


def make_traj(rng, frames=3, n=20):
    pos = rng.uniform(-1, 1, size=(frames, n, 3)).astype(np.float32)
    oid = np.concatenate([np.zeros(n // 2, dtype=np.int32),
                          np.ones(n - n // 2, dtype=np.int32)])
    return Trajectory.from_frames(pos, 24.0, oid,
                                  edit_log=[{"t": 0.1, "property": "gravity"}],
                                  scene_hash="abc", config_hash="def")


def _short_second_frame(manifest, root):
    """Replace frame 1 with a well-formed 19-point frame and list its hash."""
    raw = frame_bytes(np.zeros((19, 3)), 1)
    (root / manifest["files"][1]).write_bytes(raw)
    manifest["frame_sha256"][1] = hashlib.sha256(raw).hexdigest()


class TestExport:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        traj = make_traj(rng)
        export_trajectory(traj, tmp_path)
        back = read_trajectory(tmp_path)
        assert np.array_equal(back.positions, traj.positions)
        assert back.positions.dtype == np.float32
        assert back.fps == traj.fps
        assert np.array_equal(back.object_id, traj.object_id)
        assert back.edit_log == traj.edit_log
        assert back.scene_hash == "abc"

    def test_single_frame_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        traj = make_traj(rng, frames=1)
        export_trajectory(traj, tmp_path)
        back = read_trajectory(tmp_path)
        assert np.array_equal(back.positions, traj.positions)

    def test_manifest_lists_frames_in_order(self, tmp_path):
        rng = np.random.default_rng(2)
        traj = make_traj(rng, frames=48)
        manifest = export_trajectory(traj, tmp_path)
        assert manifest["frames"] == 48
        assert manifest["files"] == [f"frames/frame_{k:04d}.trjf"
                                     for k in range(48)]
        assert len(manifest["frame_sha256"]) == 48
        report = verify_trajectory(tmp_path)
        assert report["ok"]

    def test_tamper_detected(self, tmp_path):
        rng = np.random.default_rng(3)
        export_trajectory(make_traj(rng), tmp_path)
        victim = tmp_path / "frames" / "frame_0001.trjf"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        report = verify_trajectory(tmp_path)
        assert not report["ok"]
        assert any("frame_0001" in e for e in report["errors"])

    def test_manifest_bytes_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        traj = make_traj(rng)
        export_trajectory(traj, tmp_path / "a")
        export_trajectory(traj, tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()

    def test_frame_header_fields(self):
        pos = np.array([[1, 2, 3]], dtype=np.float32)
        raw = frame_bytes(pos, 7)
        idx, back = parse_frame_bytes(raw)
        assert idx == 7
        assert np.array_equal(back, pos)

    def test_centroids_and_aabbs(self):
        rng = np.random.default_rng(5)
        traj = make_traj(rng, frames=2, n=10)
        mask = traj.object_id == 0
        want = traj.positions[0, mask].astype(np.float64).mean(axis=0)
        assert np.allclose(traj.centroids[0, 0], want)
        assert np.all(traj.aabbs[:, :, 0] <= traj.aabbs[:, :, 1])

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            Trajectory.from_frames(np.zeros((2, 3)), 24.0, np.zeros(3))

    @pytest.mark.parametrize("cut", ["inside-header", "header-only", "short",
                                     "padded"])
    def test_frame_length_must_match_header(self, tmp_path, cut):
        export_trajectory(make_traj(np.random.default_rng(13)), tmp_path)
        victim = tmp_path / "frames" / "frame_0001.trjf"
        raw = victim.read_bytes()
        victim.write_bytes({"inside-header": raw[:10], "header-only": raw[:20],
                            "short": raw[:-12],
                            "padded": raw + b"\x00" * 12}[cut])
        with pytest.raises(IoError, match="header") as info:
            read_trajectory(tmp_path)
        assert str(victim) in str(info.value)

    @pytest.mark.parametrize("text, message", [
        ("{broken", "cannot read edit log"),
        ('{"t": 0.1}', "edit log is not a JSON array"),
        (None, "cannot read edit log"),
    ], ids=["malformed", "object", "missing"])
    def test_bad_edit_log_io_error(self, tmp_path, text, message):
        export_trajectory(make_traj(np.random.default_rng(10)), tmp_path)
        edits = tmp_path / "edits.json"
        if text is None:
            edits.unlink()
        else:
            edits.write_text(text)
        with pytest.raises(IoError, match=message) as info:
            read_trajectory(tmp_path)
        assert str(edits) in str(info.value)


class TestManifestKeys:
    @pytest.mark.parametrize("path", [
        ("files",), ("fps",), ("objects",), ("edit_log_file",),
        ("objects", 0, "id"), ("objects", 1, "count"), ("format",),
        ("version",),
    ], ids=["files", "fps", "objects", "edit_log_file", "id", "count",
            "format", "version"])
    def test_missing_key_io_error(self, tmp_path, path):
        export_trajectory(make_traj(np.random.default_rng(12)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        doc = manifest
        for step in path[:-1]:
            doc = doc[step]
        del doc[path[-1]]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IoError,
                           match=f"missing required key '{path[-1]}'") as info:
            read_trajectory(tmp_path)
        assert str(manifest_path) in str(info.value)

    @pytest.mark.parametrize("key, value", [
        ("format", "scene"), ("version", 7), ("version", "1")],
        ids=["format", "version", "version-string"])
    def test_wrong_format_or_version_io_error(self, tmp_path, key, value):
        export_trajectory(make_traj(np.random.default_rng(14)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IoError, match=f"bad value for key '{key}'") as info:
            read_trajectory(tmp_path)
        assert str(manifest_path) in str(info.value)
        report = verify_trajectory(tmp_path)
        assert not report["ok"]
        assert report["errors"] == [str(info.value)]

    @pytest.mark.parametrize("text", ["[]", "3", "{broken"],
                             ids=["array", "number", "malformed"])
    def test_unusable_manifest_reported(self, tmp_path, text):
        export_trajectory(make_traj(np.random.default_rng(13)), tmp_path)
        (tmp_path / "manifest.json").write_text(text)
        report = verify_trajectory(tmp_path)
        assert not report["ok"]
        assert len(report["errors"]) == 1
        assert "manifest" in report["errors"][0]


    def test_empty_file_list_io_error(self, tmp_path):
        export_trajectory(make_traj(np.random.default_rng(17)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(files=[], frame_sha256=[], frames=0)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IoError, match="bad value for key 'files': "
                                          "expected a non-empty list") as info:
            read_trajectory(tmp_path)
        assert str(manifest_path) in str(info.value)
        report = verify_trajectory(tmp_path)
        assert not report["ok"]
        assert report["errors"] == [str(info.value)]

    @pytest.mark.parametrize("counts", [(10, 9), (10, 11), (1,)],
                             ids=["short", "long", "one-object"])
    def test_object_counts_must_add_up(self, tmp_path, counts):
        export_trajectory(make_traj(np.random.default_rng(18)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["objects"] = [{"id": k, "count": c}
                               for k, c in enumerate(counts)]
        manifest_path.write_text(json.dumps(manifest))
        total = sum(counts)
        with pytest.raises(IoError, match=f"object counts add up to {total}, "
                                          "n_particles is 20") as info:
            read_trajectory(tmp_path)
        assert str(manifest_path) in str(info.value)
        report = verify_trajectory(tmp_path)
        assert not report["ok"]
        assert report["errors"] == [str(info.value)]


    def test_short_hash_list_reported(self, tmp_path):
        export_trajectory(make_traj(np.random.default_rng(20)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["frame_sha256"] = manifest["frame_sha256"][:1]
        manifest_path.write_text(json.dumps(manifest))
        victim = tmp_path / "frames" / "frame_0002.trjf"
        victim.write_bytes(victim.read_bytes() + b"\x00\x00")
        report = verify_trajectory(tmp_path)
        assert not report["ok"]
        assert report["errors"] == [f"manifest {manifest_path}: lists 3 frame "
                                    "files and 1 frame hashes"]

    @pytest.mark.parametrize("key, value, error", [
        ("files", 3, "bad value for key 'files'"),
        ("frame_sha256", 3, "bad value for key 'frame_sha256'"),
        ("files", [7], "bad value for key 'files'"),
    ], ids=["files-number", "hashes-number", "file-entry-number"])
    def test_unreadable_frame_list_reported(self, tmp_path, key, value, error):
        export_trajectory(make_traj(np.random.default_rng(21)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        report = verify_trajectory(tmp_path)
        assert not report["ok"]
        assert error in report["errors"][0]
        if key == "files":
            with pytest.raises(IoError, match=error) as info:
                read_trajectory(tmp_path)
            assert str(manifest_path) in str(info.value)

    @pytest.mark.parametrize("objects, error", [
        (None, "missing required key 'objects'"),
        (3, "bad value for key 'objects'"),
        ([{"id": 0}], "objects[0]: missing required key 'count'")],
        ids=["missing", "number", "no-count"])
    def test_unreadable_object_table_reported(self, tmp_path, objects, error):
        export_trajectory(make_traj(np.random.default_rng(19)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["objects"] = objects
        if objects is None:
            del manifest["objects"]
        manifest_path.write_text(json.dumps(manifest))
        report = verify_trajectory(tmp_path)
        assert len(report["errors"]) == 1
        assert error in report["errors"][0]

    @pytest.mark.parametrize("damage, error", [
        (lambda m, root: m["objects"][0].update(count="10"),
         "objects[0]: bad value for key 'count'"),
        (lambda m, root: m.update(fps="x"), "bad value for key 'fps'"),
        (lambda m, root: m.update(fps=-1),
         "fps is -1.0, not finite and positive"),
        (lambda m, root: m["objects"][0].update(id="a"),
         "objects[0]: bad value for key 'id'"),
        (lambda m, root: m.update(objects=[{"id": 0, "count": -1},
                                           {"id": 1, "count": 21}]),
         "objects[0]: bad value for key 'count'"),
        (lambda m, root: m.update(edit_log_file=3),
         "bad value for key 'edit_log_file'"),
        (lambda m, root: (m["files"].reverse(), m["frame_sha256"].reverse()),
         "header has frame 2 of 20 points, the manifest lists frame 0"),
        (_short_second_frame,
         "header has frame 1 of 19 points, the manifest lists frame 1 of 20"),
    ], ids=["count-text", "fps-text", "fps-negative", "id-text",
            "count-negative", "edit_log_file-number", "frames-reversed",
            "frame-short"])
    def test_both_readers_reject(self, tmp_path, damage, error):
        export_trajectory(make_traj(np.random.default_rng(22)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        damage(manifest, tmp_path)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IoError, match=re.escape(error)) as info:
            read_trajectory(tmp_path)
        report = verify_trajectory(tmp_path)
        assert not report["ok"]
        assert report["errors"][0] == str(info.value)

    @pytest.mark.parametrize("name", ["/abs/x.trjf", "../x.trjf"],
                             ids=["absolute", "parent"])
    @pytest.mark.parametrize("key", ["files", "edit_log_file"])
    def test_paths_stay_inside_directory(self, tmp_path, key, name):
        # "../x.trjf" names a readable file whose hash the manifest lists
        root = tmp_path / "run"
        export_trajectory(make_traj(np.random.default_rng(23)), root)
        manifest_path = root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        listed = manifest["files"][0] if key == "files" else "edits.json"
        (tmp_path / "x.trjf").write_bytes((root / listed).read_bytes())
        if key == "files":
            manifest["files"][0] = name
        else:
            manifest["edit_log_file"] = name
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IoError, match=re.escape(
                f"bad value for key '{key}'")) as info:
            read_trajectory(root)
        assert name in str(info.value)
        report = verify_trajectory(root)
        assert not report["ok"]
        assert report["errors"] == [str(info.value)]


class TestCompare:
    def test_identical_runs(self):
        traj = make_traj(np.random.default_rng(14))
        assert compare_trajectories(traj, traj) == {
            "frames": 3, "max_centroid_dev_m": 0.0, "max_aabb_dev_m": 0.0}

    def test_known_shift(self):
        rng = np.random.default_rng(15)
        # dyadic coordinates, so the shifted float32 positions are exact
        pos = rng.integers(-512, 512, size=(4, 20, 3)) / 1024.0
        oid = np.repeat([0, 1], 10)
        shifted = pos.copy()
        shifted[2, :10, 1] += 0.125    # object 0 moves in frame 2
        shifted[3, 10:, 0] -= 0.0625   # object 1 moves less in frame 3
        a = Trajectory.from_frames(pos, 24.0, oid)
        b = Trajectory.from_frames(shifted, 24.0, oid)
        assert compare_trajectories(a, b) == {
            "frames": 4, "max_centroid_dev_m": 0.125, "max_aabb_dev_m": 0.125}

    def test_mismatch_io_error(self):
        rng = np.random.default_rng(16)
        traj = make_traj(rng)
        with pytest.raises(IoError, match="frame counts differ"):
            compare_trajectories(traj, make_traj(rng, frames=4))
        other = Trajectory.from_frames(traj.positions, 24.0,
                                       traj.object_id + 1)
        with pytest.raises(IoError, match="object tables differ"):
            compare_trajectories(traj, other)


@hst.composite
def raster_cases(draw):
    """Small axis-camera frames whose projections are exact dyadic numbers.

    u = 8 x / z + cx with z a power of two, so with quarter-pixel u, v and
    integer or half-integer radii some pixels lie exactly at distance r.
    Points straddle every image edge, some repeat earlier ones exactly (depth
    ties), some lie behind the camera, and the chunk size ranges from one
    point per chunk to the whole frame.
    """
    w, h = draw(hst.integers(16, 24)), draw(hst.integers(16, 20))
    r = draw(hst.one_of(hst.floats(0.3, 4.0),
                        hst.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])))
    reach = int(np.ceil(r)) + 2
    cam = CameraSpec(fx=8.0, fy=8.0, cx=w / 2, cy=h / 2, width=w, height=h,
                     splat_radius=r)
    pts = []
    for _ in range(draw(hst.integers(1, 40))):
        if pts and draw(hst.integers(0, 3)) == 0:
            pts.append(pts[draw(hst.integers(0, len(pts) - 1))])
            continue
        qu = draw(hst.integers(-4 * reach, 4 * (w + reach))) / 4
        qv = draw(hst.integers(-4 * reach, 4 * (h + reach))) / 4
        z = draw(hst.sampled_from([0.5, 1.0, 2.0, 4.0, -1.0, 0.0]))
        scale = abs(z) if z else 1.0
        pts.append(((qu - cam.cx) * scale / 8, (qv - cam.cy) * scale / 8, z))
    cells = draw(hst.sampled_from([1, 30, 200, raster._CHUNK_CELLS]))
    return np.array(pts), cam, cells


class TestRaster:
    def axis_cam(self, **kw):
        base = dict(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)
        base.update(kw)
        return CameraSpec(**base)

    def test_optical_axis_projection(self):
        cam = self.axis_cam()
        frame = rasterize_frame(np.array([[0.0, 0.0, 1.0]]), cam)
        assert frame.index[32, 32] == 0
        assert not frame.empty
        occupied = np.argwhere(frame.index >= 0)
        assert np.all(np.abs(occupied - 32) <= cam.splat_radius)

    def test_zbuffer_prefers_near(self):
        cam = self.axis_cam()
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
        frame = rasterize_frame(pts, cam)
        assert frame.index[32, 32] == 1
        assert frame.depth[32, 32] == 1.0

    def test_tie_breaks_lower_index(self):
        cam = self.axis_cam()
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        frame = rasterize_frame(pts, cam)
        assert frame.index[32, 32] == 0

    def test_matches_pixel_oracle_100_points(self):
        rng = np.random.default_rng(6)
        cam = self.axis_cam(width=48, height=40, cx=24.0, cy=20.0,
                            splat_radius=1.5)
        pts = rng.uniform(-0.3, 0.3, size=(100, 3)) + [0, 0, 1.5]
        frame = rasterize_frame(pts, cam)
        depth, index = pixel_oracle(pts, cam)
        assert np.array_equal(frame.index, index)
        finite = np.isfinite(depth)
        assert np.array_equal(np.isfinite(frame.depth), finite)
        assert np.allclose(frame.depth[finite], depth[finite])

    def test_input_order_independence(self):
        rng = np.random.default_rng(7)
        cam = self.axis_cam()
        pts = rng.uniform(-0.2, 0.2, size=(50, 3)) + [0, 0, 1.2]
        a = rasterize_frame(pts, cam)
        perm = rng.permutation(50)
        b = rasterize_frame(pts[perm], cam)
        # same pixels hit, same depths (indices permute)
        assert np.array_equal(a.index >= 0, b.index >= 0)
        assert np.allclose(a.depth, b.depth, equal_nan=True)
        hit = a.index >= 0
        assert np.array_equal(b.index[hit], perm.argsort()[a.index[hit]])

    def test_behind_camera_culled(self):
        cam = self.axis_cam()
        frame = rasterize_frame(np.array([[0.0, 0.0, -1.0]]), cam)
        assert frame.empty
        assert frame.image.sum() == 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.2, 0.2, size=(30, 3)) + [0, 0, 1.5]
        shift = np.array([10.0, -3.0, 7.0])
        cam_a = CameraSpec.look_at(eye=(0.4, 0.3, -0.2), target=(0, 0, 1.5),
                                   fx=90.0, fy=90.0, cx=24.0, cy=24.0,
                                   width=48, height=48)
        cam_b = CameraSpec.look_at(eye=np.array((0.4, 0.3, -0.2)) + shift,
                                   target=np.array((0, 0, 1.5)) + shift,
                                   fx=90.0, fy=90.0, cx=24.0, cy=24.0,
                                   width=48, height=48)
        a = rasterize_frame(pts, cam_a)
        b = rasterize_frame(pts + shift, cam_b)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.index, b.index)

    def test_depth_mapping_monotone(self):
        cam = self.axis_cam()
        pts = np.array([[0.0, 0.0, 1.0], [0.2, 0.0, 2.0], [-0.2, 0.0, 3.0]])
        frame = rasterize_frame(pts, cam)
        vals = []
        for i in range(3):
            mask = frame.index == i
            assert mask.any()
            vals.append(int(frame.image[mask][0]))
        assert vals[0] == 255 and vals[2] == 1  # near bright, far dim
        assert vals[0] > vals[1] > vals[2] >= 1

    def test_object_id_mode(self):
        cam = self.axis_cam(color_mode="object_id")
        pts = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0]])
        frame = rasterize_frame(pts, cam, object_id=np.array([0, 4]))
        assert set(np.unique(frame.image)) == {0, 1, 5}
        with pytest.raises(DomainError):
            rasterize_frame(pts, cam)

    def test_fixed_depth_range(self):
        cam = self.axis_cam(depth_range=(1.0, 3.0))
        frame = rasterize_frame(np.array([[0.0, 0.0, 2.0]]), cam)
        hit = frame.index >= 0
        assert np.all(frame.image[hit] == 1 + round(254 * 0.5))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=raster_cases())
    def test_matches_pixel_oracle_bitwise(self, case):
        pts, cam, cells = case
        with mock.patch.object(raster, "_CHUNK_CELLS", cells):
            frame = rasterize_frame(pts, cam)
        depth, index = pixel_oracle(pts, cam)
        assert frame.index.dtype == np.int32
        assert np.array_equal(frame.index, index)
        assert frame.depth.tobytes() == depth.tobytes()

    def test_non_finite_and_far_points_dropped(self):
        rng = np.random.default_rng(11)
        cam = self.axis_cam(width=24, height=20, cx=12.0, cy=10.0,
                            splat_radius=2.0)
        finite = rng.uniform(-0.1, 0.1, size=(30, 3)) + [0, 0, 1.0]
        bad = np.array([[np.nan, np.nan, np.nan], [np.inf, 0.0, 1.0],
                        [0.0, -np.inf, 1.0], [0.0, 0.0, np.inf],
                        [1e10, 0.0, 2e-9]])
        pts = np.concatenate([finite[:10], bad, finite[10:]])
        frame = rasterize_frame(pts, cam)
        depth, index = pixel_oracle(finite, cam)
        keep = np.r_[0:10, 15:35]
        assert np.array_equal(frame.index,
                              np.where(index >= 0, keep[index], -1))
        assert frame.depth.tobytes() == depth.tobytes()
        with pytest.raises(DomainError):
            rasterize_frame(finite, self.axis_cam(splat_radius=np.nan))

    def test_huge_radius_clamped_and_chunked(self):
        # r = 500 on 64x64: each stencil is clipped to the image, so with
        # one 64^2 stencil per chunk the extra memory stays near 4096 cells;
        # an unclamped 1001^2 stencil would allocate about 18 MB
        rng = np.random.default_rng(12)
        cam = self.axis_cam(splat_radius=500.0)
        u = rng.uniform(-495.0, -460.0, 300)
        v = rng.uniform(0.0, 64.0, 300)
        z = rng.uniform(1.0, 2.0, 300)
        pts = np.stack([(u - cam.cx) * z / cam.fx, (v - cam.cy) * z / cam.fy,
                        z], axis=1)
        with mock.patch.object(raster, "_CHUNK_CELLS", 64 * 64):
            tracemalloc.start()
            try:
                frame = rasterize_frame(pts, cam)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 ** 20
        depth, index = pixel_oracle(pts, cam)
        assert np.array_equal(frame.index, index)
        assert frame.depth.tobytes() == depth.tobytes()

    def test_camera_validation(self):
        with pytest.raises(DomainError):
            self.axis_cam(fx=-1.0).validate()
        with pytest.raises(DomainError):
            self.axis_cam(width=8).validate()
        with pytest.raises(DomainError):
            self.axis_cam(color_mode="rainbow").validate()

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, size=(40, 48)).astype(np.uint8)
        write_pgm(img, tmp_path / "x.pgm")
        assert np.array_equal(read_pgm(tmp_path / "x.pgm"), img)
        # byte-stable
        write_pgm(img, tmp_path / "y.pgm")
        assert (tmp_path / "x.pgm").read_bytes() == \
            (tmp_path / "y.pgm").read_bytes()

    @pytest.mark.parametrize("raw, message", [
        (b"P5\nx y\n255\n", "malformed PGM header"),
        (b"P5\n4 3\n255\n" + bytes(11), "the file holds 11 pixel bytes"),
        (b"P6\n1 1\n255\n" + bytes(3), "not a binary PGM"),
    ], ids=["header", "short-pixels", "color"])
    def test_malformed_pgm_io_error(self, tmp_path, raw, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(IoError, match=message) as info:
            read_pgm(path)
        assert str(path) in str(info.value)
