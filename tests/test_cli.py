import json

import numpy as np
import pytest

from physedit.cli import main
from physedit.fieldio import read_field, write_field
from physedit.fill import FillConfig, fill_field
from physedit.trajectory import read_trajectory
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
