import json
import math

import numpy as np
import pytest

from physedit.cli import main
from physedit.fieldio import read_field, write_field
from physedit.fill import FillConfig, fill_field
from physedit.losses import (LossWeights, SupervisionTargets, sample_triplets,
                             total_loss)
from physedit.trajectory import (Trajectory, export_trajectory,
                                 read_trajectory)
from physedit.materials import MaterialClass
from physedit.scenes import (build_analyze_fixture, build_scene,
                             cube_shell_positions, uniform_field)


@pytest.fixture(scope="module")
def surface_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "cube.mfield"
    shell = cube_shell_positions(0.4, 11)
    write_field(uniform_field(shell, MaterialClass.ELASTIC, 1e5, 0.3, 1000.0),
                path)
    return path


def single_error_record(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestFillCommand:
    def test_fill_roundtrip(self, surface_file, tmp_path, capsys):
        out = tmp_path / "filled.mfield"
        rc = main(["fill", str(surface_file), str(out), "--spacing", "0.04"])
        assert rc == 0
        filled = read_field(out)
        assert filled.interior_flag.sum() > 0
        assert "interior" in capsys.readouterr().out

    def test_zero_spacing_fails_with_record(self, surface_file, tmp_path,
                                            capsys):
        rc = main(["fill", str(surface_file), str(tmp_path / "x.mfield"),
                   "--spacing", "0"])
        assert rc != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DomainError"
        assert record["code"] == rc

    def test_missing_input_io_error(self, tmp_path, capsys):
        rc = main(["fill", str(tmp_path / "nope.mfield"),
                   str(tmp_path / "y.mfield"), "--spacing", "0.05"])
        assert rc != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "IoError"


    @pytest.mark.parametrize("key, damage, error", [
        ("class_id", lambda v: ["abc"] * len(v), "IoError"),
        ("positions", lambda v: [p[:2] for p in v], "IoError"),
        ("class_id", lambda v: v[:-5], "DomainError"),
        ("young_modulus", lambda v: [-1.0] * len(v), "DomainError"),
        ("class_id", lambda v: [9] * len(v), "DomainError"),
    ], ids=["class-not-int", "positions-2d", "class-short", "negative-e",
            "class-9"])
    def test_bad_surface_field_fails_with_record(self, surface_file, tmp_path,
                                                 capsys, key, damage, error):
        src = tmp_path / "surface.json"
        write_field(read_field(surface_file), src)
        doc = json.loads(src.read_text())
        doc[key] = damage(doc[key])
        src.write_text(json.dumps(doc))
        out = tmp_path / "solid.json"
        rc = main(["fill", str(src), str(out), "--spacing", "0.03"])
        record = single_error_record(capsys)
        assert record["error"] == error
        assert rc == record["code"]
        assert key in record["message"]
        assert not out.exists()


class TestSimulateCommand:
    def test_bundled_scene_runs_and_verifies(self, tmp_path, capsys):
        rc = main(["simulate", "--bundled", "drop_cube", str(tmp_path / "t")])
        assert rc == 0
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        assert manifest["frames"] == 16
        assert (tmp_path / "t" / "images" / "frame_0000.pgm").exists()
        assert main(["verify", str(tmp_path / "t")]) == 0

    def test_seed_flag_overrides_and_changes_config_hash(self, tmp_path):
        main(["simulate", "--bundled", "drop_cube", str(tmp_path / "a"),
              "--no-images"])
        main(["simulate", "--bundled", "drop_cube", str(tmp_path / "b"),
              "--no-images", "--seed", "123"])
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma["config_hash"] != mb["config_hash"]
        assert ma["frame_sha256"] == mb["frame_sha256"]  # seed has no physics

    def test_env_seed_layering(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHYSEDIT_SEED", "77")
        main(["simulate", "--bundled", "drop_cube", str(tmp_path / "env"),
              "--no-images"])
        m_env = json.loads((tmp_path / "env" / "manifest.json").read_text())
        monkeypatch.setenv("PHYSEDIT_SEED", "77")
        main(["simulate", "--bundled", "drop_cube", str(tmp_path / "flag"),
              "--no-images", "--seed", "42"])
        m_flag = json.loads((tmp_path / "flag" / "manifest.json").read_text())
        assert m_env["config_hash"] != m_flag["config_hash"]  # flag wins

    def test_scene_path_variant(self, tmp_path):
        scene = build_scene("drop_cube", tmp_path / "src")
        rc = main(["simulate", str(scene), str(tmp_path / "out"),
                   "--no-images"])
        assert rc == 0

    def test_scene_directory_runs_its_scene_json(self, tmp_path):
        scene = build_scene("drop_cube", tmp_path / "src")
        for name, path in (("file", scene), ("dir", scene.parent)):
            assert main(["simulate", str(path), str(tmp_path / name),
                         "--no-images", "--frames", "2"]) == 0
        assert (tmp_path / "file" / "manifest.json").read_bytes() == \
            (tmp_path / "dir" / "manifest.json").read_bytes()

    def test_fps_flag_sets_frame_times(self, tmp_path):
        assert main(["simulate", "--bundled", "drop_cube", str(tmp_path / "o"),
                     "--no-images", "--frames", "3", "--fps", "12"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["fps"] == 12.0
        # the cube is in free fall for the first 0.25 s: frame k is at
        # t = k/12 when its centroid has dropped g t^2 / 2
        traj = read_trajectory(tmp_path / "o")
        drop = traj.centroids[0, 0, 1] - traj.centroids[:, 0, 1]
        t = np.arange(3) / 12.0
        assert np.allclose(drop, 0.5 * 9.8 * t ** 2, atol=2e-3)

    def test_rigid_scene_deterministic_across_threads(self, tmp_path):
        # a rigid block dropped on an elastic pad that turns rigid mid-run
        src = tmp_path / "src"
        src.mkdir()
        objects = []
        for oid, (name, size, n, material, y) in enumerate([
                ("pad", 0.12, 5, MaterialClass.ELASTIC, 0.015),
                ("block", 0.09, 4, MaterialClass.RIGID, 0.2)]):
            shell = uniform_field(cube_shell_positions(size, n), material,
                                  5e4, 0.3, 800.0)
            write_field(fill_field(shell, FillConfig(particle_spacing=0.03)),
                        src / f"{name}.mfield")
            objects.append({"id": oid, "field": f"{name}.mfield",
                            "h_fill": 0.03, "translate": [0.0, y, 0.0]})
        (src / "schedule.txt").write_text(
            "at t=0.1 set object 0 material_model rigid\n")
        (src / "scene.json").write_text(json.dumps({
            "format": "scene", "version": 1, "objects": objects,
            "schedule": "schedule.txt", "gravity": [0.0, -9.8, 0.0],
            "sim": {"h_grid": 0.03, "frames": 5, "fps": 24.0,
                    "domain_lo": [-0.3, -0.09, -0.3],
                    "domain_hi": [0.45, 0.6, 0.45],
                    "ground_height": 0.0, "ground_bc": "sticky"}}))
        manifests = []
        for run, threads in enumerate(["1", "1", "4"]):
            out = tmp_path / f"r{run}"
            assert main(["simulate", str(src / "scene.json"), str(out),
                         "--threads", threads, "--no-images"]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1] == manifests[2]
        assert main(["verify", str(tmp_path / "r0")]) == 0
        edits = read_trajectory(tmp_path / "r0").edit_log
        assert [e["value"] for e in edits] == ["RIGID"]

    def test_null_domain_bounds_are_derived(self, tmp_path, surface_file):
        (tmp_path / "cube.mfield").write_bytes(surface_file.read_bytes())
        positions = []
        for run, bounds in enumerate([{}, {"domain_lo": None,
                                           "domain_hi": None}]):
            scene = tmp_path / f"scene{run}.json"
            scene.write_text(json.dumps({
                "format": "scene",
                "objects": [{"field": "cube.mfield", "h_fill": 0.05}],
                "sim": {"h_grid": 0.05, "frames": 2, **bounds}}))
            out = tmp_path / f"o{run}"
            assert main(["simulate", str(scene), str(out),
                         "--no-images"]) == 0
            positions.append(read_trajectory(out).positions)
        assert np.array_equal(positions[0], positions[1])

    @pytest.mark.parametrize("changes, key", [
        ({"fx": math.nan}, "fx"), ({"fy": math.inf}, "fy"),
        ({"cx": math.inf}, "cx"), ({"cy": -math.inf}, "cy"),
        ({"depth_range": [0.5, math.inf]}, "depth_range"),
        ({"eye": [math.nan, 0.5, 1.0]}, "rotation"),
        ({"eye": None, "target": None, "rotation": [[math.nan] * 3] * 3,
          "translation": [0.0, 0.0, 1.0]}, "rotation"),
        ({"eye": None, "target": None, "rotation": np.eye(3).tolist(),
          "translation": [0.0, math.inf, 1.0]}, "translation"),
    ], ids=["fx", "fy", "cx", "cy", "depth_range", "eye", "rotation",
            "translation"])
    def test_non_finite_camera_domain_error(self, tmp_path, capsys, changes,
                                            key):
        scene = build_scene("drop_cube", tmp_path / "src")
        doc = json.loads(scene.read_text())
        camera = {**doc["camera"], **changes}
        doc["camera"] = {k: v for k, v in camera.items() if v is not None}
        scene.write_text(json.dumps(doc))
        rc = main(["simulate", str(scene), str(tmp_path / "o"),
                   "--frames", "2"])
        record = single_error_record(capsys)
        assert (rc, record["error"]) == (10, "DomainError")
        assert f"{key} must be finite" in record["message"]

    def test_missing_scene_errors(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "ghost.json"),
                   str(tmp_path / "o")])
        assert rc != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "IoError"

    def test_malformed_scene_io_error(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text('{"format": "scene", "objects": [')
        rc = main(["simulate", str(scene), str(tmp_path / "o")])
        assert rc == 50
        record = single_error_record(capsys)
        assert record["error"] == "IoError"
        assert str(scene) in record["message"]

    @pytest.mark.parametrize("doc, key", [
        ({"format": "scene"}, "objects"),
        ({"format": "scene", "objects": [], "sim": {}}, "h_grid"),
        ({"format": "scene", "objects": [{"h_fill": 0.03}]}, "field"),
        ({"format": "scene", "objects": [{"field": "cube.mfield"}]}, "h_fill"),
    ], ids=["objects", "h_grid", "field", "h_fill"])
    def test_scene_missing_key_io_error(self, tmp_path, capsys, surface_file,
                                        doc, key):
        scene = tmp_path / "scene.json"
        (tmp_path / "cube.mfield").write_bytes(surface_file.read_bytes())
        scene.write_text(json.dumps(doc))
        rc = main(["simulate", str(scene), str(tmp_path / "o")])
        assert rc == 50
        record = single_error_record(capsys)
        assert record["error"] == "IoError"
        assert f"missing required key '{key}'" in record["message"]
        assert str(scene) in record["message"]


    @pytest.mark.parametrize("key, value", [
        ("h_fill", "x"), ("velocity", 5), ("translate", [1.0, 2.0]),
        ("rotate", [[1.0, 0.0], [0.0, 1.0]])],
        ids=["h_fill", "velocity", "translate", "rotate"])
    def test_scene_object_value_io_error(self, tmp_path, capsys, surface_file,
                                         key, value):
        scene = tmp_path / "scene.json"
        (tmp_path / "cube.mfield").write_bytes(surface_file.read_bytes())
        scene.write_text(json.dumps({
            "format": "scene", "sim": {"h_grid": 0.05, "frames": 1},
            "objects": [{"field": "cube.mfield", "h_fill": 0.05,
                         key: value}]}))
        rc = main(["simulate", str(scene), str(tmp_path / "o"),
                   "--no-images"])
        assert rc == 50
        record = single_error_record(capsys)
        assert record["error"] == "IoError"
        assert f"bad value for key '{key}'" in record["message"]
        assert f"{scene} objects[0]" in record["message"]

    @pytest.mark.parametrize("key, value, message", [
        ("h_grid", "x", "bad value for key 'h_grid'"),
        ("frames", "abc", "bad value for key 'frames'"),
        ("domain_lo", 5, "bad value for key 'domain_lo'"),
        ("domain_hi", [0.5, 0.5], "bad value for key 'domain_hi'"),
        ("fps", [1], "bad value for key 'fps'"),
        ("dampng", 5.0, "unknown key 'dampng'")],
        ids=["h_grid", "frames", "domain_lo", "domain_hi-length", "fps",
             "misspelled"])
    def test_scene_sim_value_io_error(self, tmp_path, capsys, surface_file,
                                      key, value, message):
        scene = tmp_path / "scene.json"
        (tmp_path / "cube.mfield").write_bytes(surface_file.read_bytes())
        sim = {"h_grid": 0.05, "frames": 1, "fps": 24.0,
               "domain_lo": [-0.5, -0.1, -0.5], "domain_hi": [0.9, 0.9, 0.9],
               key: value}
        scene.write_text(json.dumps({
            "format": "scene", "sim": sim,
            "objects": [{"field": "cube.mfield", "h_fill": 0.05}]}))
        rc = main(["simulate", str(scene), str(tmp_path / "o"),
                   "--no-images"])
        assert rc == 50
        record = single_error_record(capsys)
        assert record["error"] == "IoError"
        assert message in record["message"]
        assert f"{scene} sim" in record["message"]


class TestAnalyzeCommand:
    def test_fixture_report_echoes_weights(self, tmp_path, capsys):
        rc = main(["analyze", "--fixture", str(tmp_path / "fix")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lambda_reg      1" in out.replace("   ", "   ") or \
            "lambda_reg" in out
        for token in ("lambda_reg    1", "lambda_cls    0.3",
                      "lambda_smooth 0.02", "lambda_con    0.0005",
                      "lambda_assign 0.1"):
            assert token in out
        assert "pass" in out

    def test_json_report(self, tmp_path):
        fix = tmp_path / "fix"
        build_analyze_fixture(fix)
        rc = main(["analyze", str(fix / "labeled_field.mfield"),
                   str(fix / "targets.json"), "--json",
                   str(tmp_path / "report.json"), "--no-gradcheck"])
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["weights"]["lambda_con"] == 5e-4
        assert payload["breakdown"]["total"] > 0
        assert set(payload["breakdown"]) == {"task", "smoothness",
                                             "contrastive", "assignment",
                                             "total"}

    def test_malformed_targets_io_error(self, tmp_path, capsys):
        field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
        doc = json.loads(targets_path.read_text())
        del doc["part_labels"]
        for text, named in (("{not json", "targets"), ("[]", "targets"),
                            (json.dumps(doc), "'part_labels'")):
            targets_path.write_text(text)
            rc = main(["analyze", str(field_path), str(targets_path),
                       "--no-gradcheck"])
            assert rc == 50
            record = single_error_record(capsys)
            assert record["error"] == "IoError"
            assert str(targets_path) in record["message"]
            assert named in record["message"]

    @pytest.mark.parametrize("path, value", [
        (("prompt_of_part",), [0, 1]), (("prompt_of_part",), {"x": 0}),
        (("prompt_of_part",), {"0": "a"}), (("tau",), "hot"),
        (("triplets",), [["a", 0, 1]]), (("n_triplets",), "many"),
        (("class_labels",), "abc"), (("bundle", "phi"), "abc"),
        (("bundle", "tau"), "hot")],
        ids=["prompts-list", "prompts-key", "prompts-value", "tau",
             "triplets", "n_triplets", "class_labels", "bundle-array",
             "bundle-tau"])
    def test_bad_targets_value_io_error(self, tmp_path, capsys, path, value):
        field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
        doc = json.loads(targets_path.read_text())
        owner = doc["bundle"] if path[0] == "bundle" else doc
        owner[path[-1]] = value
        targets_path.write_text(json.dumps(doc))
        rc = main(["analyze", str(field_path), str(targets_path),
                   "--no-gradcheck"])
        assert rc == 50
        record = single_error_record(capsys)
        assert record["error"] == "IoError"
        assert f"bad value for key '{path[-1]}'" in record["message"]
        owner_name = "feature-bundle" if owner is not doc else targets_path
        assert str(owner_name) in record["message"]

    @pytest.mark.parametrize("key, value", [("n_triplets", -1),
                                            ("triplet_seed", -3)])
    def test_negative_triplet_setting_io_error(self, tmp_path, capsys, key,
                                               value):
        field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
        doc = json.loads(targets_path.read_text())
        doc[key] = value
        targets_path.write_text(json.dumps(doc))
        rc = main(["analyze", str(field_path), str(targets_path),
                   "--no-gradcheck"])
        assert rc == 50
        record = single_error_record(capsys)
        assert record["error"] == "IoError"
        assert str(targets_path) in record["message"]
        assert f"bad value for key '{key}'" in record["message"]
        assert f"got {value}" in record["message"]

    def test_null_optional_targets_take_defaults(self, tmp_path):
        field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
        doc = json.loads(targets_path.read_text())
        assert (doc["tau"], doc["n_triplets"], doc["triplet_seed"]) == \
            (0.07, 64, 0)
        reports = []
        for run, value in enumerate(["keep", None]):
            if value is None:
                doc.update(tau=None, n_triplets=None, triplet_seed=None)
                targets_path.write_text(json.dumps(doc))
            report = tmp_path / f"report{run}.json"
            assert main(["analyze", str(field_path), str(targets_path),
                         "--json", str(report), "--no-gradcheck"]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_missing_bundle_file_io_error(self, tmp_path, capsys):
        field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
        doc = json.loads(targets_path.read_text())
        doc["bundle"] = "ghost_bundle.json"
        targets_path.write_text(json.dumps(doc))
        rc = main(["analyze", str(field_path), str(targets_path),
                   "--no-gradcheck"])
        assert rc == 50
        record = single_error_record(capsys)
        assert record["error"] == "IoError"
        assert "ghost_bundle.json" in record["message"]

    def test_logits_without_bundle_or_probs(self, tmp_path):
        field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
        doc = json.loads(targets_path.read_text())
        del doc["bundle"], doc["pred_probs"]
        logits = np.random.default_rng(5).standard_normal((48, 2))
        doc["logits"] = logits.tolist()
        targets_path.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert main(["analyze", str(field_path), str(targets_path),
                     "--json", str(report), "--no-gradcheck"]) == 0
        fld = read_field(field_path)
        targets = SupervisionTargets(
            class_labels=np.asarray(doc["class_labels"]),
            param_targets=np.asarray(doc["param_targets"]),
            part_labels=np.asarray(doc["part_labels"]),
            prompt_of_part={0: 0, 1: 1})
        one_hot = np.eye(6)[fld.class_id]
        params = fld.normalization.normalize(fld.young_modulus,
                                             fld.poisson_ratio, fld.density)
        _, breakdown = total_loss(
            one_hot, params, fld, sample_triplets(targets.part_labels, 64),
            logits, targets, LossWeights(), tau=0.07)
        payload = json.loads(report.read_text())
        assert payload["breakdown"] == breakdown
        assert payload["assignment_tau"] == payload["tau"] == 0.07

    def test_neither_logits_nor_bundle_domain_error(self, tmp_path, capsys):
        field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
        doc = json.loads(targets_path.read_text())
        del doc["bundle"]
        targets_path.write_text(json.dumps(doc))
        rc = main(["analyze", str(field_path), str(targets_path),
                   "--no-gradcheck"])
        record = single_error_record(capsys)
        assert (rc, record["error"]) == (10, "DomainError")
        assert "logits or a bundle" in record["message"]

    def test_invalid_field_domain_error(self, tmp_path, capsys):
        # class 9 used to index the one-hot table: a bare IndexError
        field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
        fld = read_field(field_path)
        class_id = fld.class_id.copy()
        class_id[4] = 9
        write_field(fld.with_(class_id=class_id), field_path)
        doc = json.loads(targets_path.read_text())
        del doc["pred_probs"]
        targets_path.write_text(json.dumps(doc))
        rc = main(["analyze", str(field_path), str(targets_path)])
        record = single_error_record(capsys)
        assert (rc, record["error"]) == (10, "DomainError")
        assert "class_id[4]" in record["message"]
        assert str(field_path) in record["message"]

    def test_missing_args_error(self, capsys):
        rc = main(["analyze"])
        assert rc != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DomainError"


class TestVerifyCommand:
    def test_corrupt_exit_code(self, tmp_path, capsys):
        main(["simulate", "--bundled", "drop_cube", str(tmp_path / "v"),
              "--no-images"])
        victim = tmp_path / "v" / "frames" / "frame_0002.trjf"
        raw = bytearray(victim.read_bytes())
        raw[-2] ^= 0x01
        victim.write_bytes(bytes(raw))
        rc = main(["verify", str(tmp_path / "v")])
        assert rc == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_array_manifest_reported(self, tmp_path, capsys):
        main(["simulate", "--bundled", "drop_cube", str(tmp_path / "v"),
              "--no-images", "--frames", "2"])
        (tmp_path / "v" / "manifest.json").write_text("[]")
        rc = main(["verify", str(tmp_path / "v")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "manifest is not a JSON object" in out


    @pytest.mark.parametrize("key, value", [
        ("files", 3), ("frame_sha256", 3), ("files", [7])],
        ids=["files-number", "hashes-number", "file-entry-number"])
    def test_unreadable_frame_list_is_corrupt(self, tmp_path, capsys, key,
                                              value):
        pos = np.zeros((2, 4, 3), dtype=np.float32)
        export_trajectory(Trajectory.from_frames(
            pos, 24.0, np.zeros(4, dtype=np.int32)), tmp_path / "v")
        manifest_path = tmp_path / "v" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        rc = main(["verify", str(tmp_path / "v")])
        assert rc == 1
        assert "CORRUPT" in capsys.readouterr().out


    @pytest.mark.parametrize("damage", ["altered", "missing"])
    def test_edit_log_damage_is_corrupt(self, tmp_path, capsys, damage):
        pos = np.zeros((2, 4, 3), dtype=np.float32)
        export_trajectory(Trajectory.from_frames(
            pos, 24.0, np.zeros(4, dtype=np.int32),
            edit_log=[{"t": 0.0, "property": "gravity"}]), tmp_path / "v")
        edits = tmp_path / "v" / "edits.json"
        if damage == "missing":
            edits.unlink()
        else:
            edits.write_text(edits.read_text().replace("gravity", "wind"))
        rc = main(["verify", str(tmp_path / "v")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "edits.json" in out
        if damage == "altered":
            assert "hash mismatch" in out


class TestCompareCommand:
    def test_identical_and_mismatched_runs(self, tmp_path, capsys):
        for name, frames in (("a", "3"), ("b", "3"), ("c", "2")):
            assert main(["simulate", "--bundled", "drop_cube",
                         str(tmp_path / name), "--no-images",
                         "--frames", frames]) == 0
        capsys.readouterr()
        rc = main(["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "frames": 3, "max_centroid_dev_m": 0.0, "max_aabb_dev_m": 0.0}
        rc = main(["compare", str(tmp_path / "a"), str(tmp_path / "c")])
        assert rc == 50
        record = single_error_record(capsys)
        assert record["error"] == "IoError"
        assert "frame counts differ" in record["message"]


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("fill", "simulate", "analyze", "verify"):
            assert sub in out

    def test_unknown_flag_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--frobnicate"])
        assert exc.value.code != 0

    def test_threads_flag_validated(self, tmp_path, capsys):
        rc = main(["simulate", "--bundled", "drop_cube", str(tmp_path / "x"),
                   "--threads", "0"])
        assert rc != 0
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "DomainError"

    def test_threads_environment_variable_not_read(self, tmp_path,
                                                   monkeypatch):
        # only --threads is validated; no environment variable stands in
        monkeypatch.setenv("PHYSEDIT_THREADS", "0")
        assert main(["simulate", "--bundled", "drop_cube", str(tmp_path / "x"),
                     "--frames", "1", "--no-images"]) == 0


@pytest.mark.parametrize("file, key, damage", [
    ("field", "class_id", lambda v: [4.7] * len(v)),
    ("field", "part_label", lambda v: [0.5] * len(v)),
    ("targets", "class_labels", lambda v: [c + 0.4 for c in v]),
    ("targets", "prompt_of_part", lambda v: {"0": 0.5, "1": 1}),
], ids=["class_id", "part_label", "class_labels", "prompt_of_part"])
def test_integer_values_must_be_whole(surface_file, tmp_path, capsys, file,
                                      key, damage):
    if file == "field":
        path = tmp_path / "surface.json"
        write_field(read_field(surface_file), path)
        argv = ["fill", str(path), str(tmp_path / "solid.json"),
                "--spacing", "0.05"]
    else:
        _, path = build_analyze_fixture(tmp_path / "fix")
        argv = ["analyze", str(tmp_path / "fix" / "labeled_field.mfield"),
                str(path), "--no-gradcheck"]
    doc = json.loads(path.read_text())
    doc[key] = damage(doc[key])
    path.write_text(json.dumps(doc))
    rc = main(argv)
    record = single_error_record(capsys)
    assert (rc, record["error"]) == (50, "IoError")
    assert f"bad value for key '{key}'" in record["message"]
    assert "whole" in record["message"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--fixture", "{tmp}/fix", "--no-gradcheck",
     "--json", "{tmp}/no_such_dir/r.json"],
    ["simulate", "--bundled", "drop_cube", "{tmp}/file/out"],
    ["analyze", "--fixture", "{tmp}/file/fx"],
], ids=["analyze-json", "simulate-out", "analyze-fixture"])
def test_write_failure_io_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("a file, not a directory\n")
    rc = main([arg.format(tmp=tmp_path) for arg in argv])
    record = single_error_record(capsys)
    assert (rc, record["error"]) == (50, "IoError")
    assert str(tmp_path) in record["message"]


@pytest.mark.parametrize("value", [5, [1, 2]], ids=["number", "list"])
def test_bundle_of_wrong_type_io_error(tmp_path, capsys, value):
    field_path, targets_path = build_analyze_fixture(tmp_path / "fix")
    doc = json.loads(targets_path.read_text())
    doc["bundle"] = value
    targets_path.write_text(json.dumps(doc))
    rc = main(["analyze", str(field_path), str(targets_path),
               "--no-gradcheck"])
    record = single_error_record(capsys)
    assert (rc, record["error"]) == (50, "IoError")
    assert "bad value for key 'bundle'" in record["message"]
