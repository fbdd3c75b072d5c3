import json

import numpy as np
import pytest

from physedit.cli import main
from physedit.engine import build_state
from physedit.errors import DomainError, IoError
from physedit.scenes import (BUNDLED_SCENES, build_scene, cube_shell_positions,
                             load_scene, sphere_shell_positions)


def test_scene_names():
    assert set(BUNDLED_SCENES) == {"drop_cube", "liquefy_on_contact",
                                   "hollow_deflate", "zero_g_bounce"}
    with pytest.raises(DomainError):
        build_scene("warp_core_breach", "/tmp/nope")


def test_build_is_byte_deterministic(tmp_path):
    a = build_scene("hollow_deflate", tmp_path / "a")
    b = build_scene("hollow_deflate", tmp_path / "b")
    for name in ("scene.json", "schedule.txt", "ball.mfield"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    objects, cfg, extras = load_scene(a)
    assert len(objects) == 1
    assert cfg.frames == 20
    assert extras["camera"] is not None
    assert "density 0" in extras["schedule_text"]


def test_object_rotate_then_translate(tmp_path):
    scene = build_scene("drop_cube", tmp_path)
    doc = json.loads(scene.read_text())
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    doc["objects"][0]["rotate"] = rot.tolist()
    scene.write_text(json.dumps(doc))
    objects, cfg, _ = load_scene(scene)
    state = build_state(objects, cfg)
    translate = doc["objects"][0]["translate"]
    assert np.array_equal(state.x,
                          objects[0].field.positions @ rot.T + translate)


def test_shell_builders():
    shell = cube_shell_positions(1.0, 9)
    assert shell.shape == (9 ** 3 - 7 ** 3, 3)
    assert np.all(shell >= 0.0) and np.all(shell <= 1.0)
    sph = sphere_shell_positions(2.0, 500, center=(1.0, 0.0, 0.0))
    radii = np.linalg.norm(sph - [1.0, 0.0, 0.0], axis=1)
    assert np.allclose(radii, 2.0, rtol=1e-12)


@pytest.mark.parametrize("key", ["fx", "fy", "cx", "cy", "width", "height",
                                 "target", "rotation", "translation"])
def test_camera_missing_key_io_error(tmp_path, key):
    scene = build_scene("drop_cube", tmp_path)
    doc = json.loads(scene.read_text())
    cam = doc["camera"]
    if key in ("rotation", "translation"):  # a camera without "eye"
        del cam["eye"], cam["target"]
        cam["rotation"] = np.eye(3).tolist()
        cam["translation"] = [0.0, 0.0, 1.0]
    del cam[key]
    scene.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=f"missing required key '{key}'") as info:
        load_scene(scene)
    assert f"{scene} camera" in str(info.value)


@pytest.mark.parametrize("owner, key, value", [
    ("camera", "fx", "a"), ("camera", "eye", "x"), ("camera", "width", 96.5),
    ("camera", "depth_range", [1]), (None, "gravity", "x"),
    (None, "gravity", [0, -9.8]), (None, "wind", 5), (None, "schedule", 5),
    ("sim", "wall_bc", 3)],
    ids=["fx-text", "eye-text", "width-fraction", "depth_range-short",
         "gravity-text", "gravity-short", "wind-number", "schedule-number",
         "wall_bc-number"])
def test_scene_value_io_error(tmp_path, owner, key, value):
    scene = build_scene("drop_cube", tmp_path)
    doc = json.loads(scene.read_text())
    (doc[owner] if owner else doc)[key] = value
    scene.write_text(json.dumps(doc))
    with pytest.raises(IoError, match=f"bad value for key '{key}'") as info:
        load_scene(scene)
    assert f"{scene}{' ' + owner if owner else ''}:" in str(info.value)


@pytest.mark.parametrize("fmt", [None, "material-field"],
                         ids=["no-format", "other-format"])
def test_not_a_scene_document(tmp_path, fmt):
    scene = build_scene("drop_cube", tmp_path)
    doc = json.loads(scene.read_text())
    doc.pop("format")
    if fmt is not None:
        doc["format"] = fmt
    scene.write_text(json.dumps(doc))
    with pytest.raises(IoError, match="not a scene document") as info:
        load_scene(scene)
    assert str(scene) in str(info.value)


def test_explicit_camera_pose_and_depth_range(tmp_path):
    scene = build_scene("drop_cube", tmp_path / "src")
    look = load_scene(scene)[2]["camera"]
    doc = json.loads(scene.read_text())
    del doc["camera"]["eye"], doc["camera"]["target"]
    doc["camera"].update(rotation=look.rotation.tolist(),
                         translation=look.translation.tolist())
    posed = tmp_path / "src" / "posed.json"
    posed.write_text(json.dumps(doc))
    for name, path in (("look", scene), ("posed", posed)):
        assert main(["simulate", str(path), str(tmp_path / name),
                     "--frames", "2"]) == 0
    for k in range(2):
        image = f"images/frame_{k:04d}.pgm"
        assert (tmp_path / "look" / image).read_bytes() == \
            (tmp_path / "posed" / image).read_bytes()
    doc["camera"]["depth_range"] = [0.5, 2.0]
    posed.write_text(json.dumps(doc))
    assert tuple(load_scene(posed)[2]["camera"].depth_range) == (0.5, 2.0)
