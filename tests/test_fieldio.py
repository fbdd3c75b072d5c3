import numpy as np
import pytest

from physedit.errors import IoError
from physedit.fieldio import read_field, write_field
from physedit.materials import MaterialField, ParamNormalization


@pytest.fixture
def field():
    rng = np.random.default_rng(9)
    n = 17
    return MaterialField(
        positions=rng.normal(size=(n, 3)).astype(np.float32).astype(np.float64),
        class_id=rng.integers(0, 6, n).astype(np.int32),
        young_modulus=10 ** rng.uniform(3, 9, n),
        poisson_ratio=rng.uniform(-0.4, 0.49, n),
        density=rng.uniform(10, 5000, n),
        part_label=rng.integers(0, 3, n).astype(np.int32),
        interior_flag=rng.integers(0, 2, n).astype(bool),
        normalization=ParamNormalization((5.0, 0.1, 2.5), (1.5, 0.2, 0.75)),
    )


def assert_fields_equal(a, b):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.class_id, b.class_id)
    assert np.array_equal(a.young_modulus, b.young_modulus)
    assert np.array_equal(a.poisson_ratio, b.poisson_ratio)
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.part_label, b.part_label)
    assert np.array_equal(a.interior_flag, b.interior_flag)
    ma, sa = a.normalization.as_arrays()
    mb, sb = b.normalization.as_arrays()
    assert np.array_equal(ma, mb) and np.array_equal(sa, sb)


def test_binary_roundtrip(field, tmp_path):
    path = tmp_path / "f.mfield"
    write_field(field, path)
    assert_fields_equal(field, read_field(path))


def test_optional_part_label(field, tmp_path):
    bare = field.with_(part_label=None)
    path = tmp_path / "bare.mfield"
    write_field(bare, path)
    back = read_field(path)
    assert back.part_label is None


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.mfield"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(IoError):
        read_field(path)


def test_deterministic_bytes(field, tmp_path):
    write_field(field, tmp_path / "one.mfield")
    write_field(field, tmp_path / "two.mfield")
    assert (tmp_path / "one.mfield").read_bytes() == \
        (tmp_path / "two.mfield").read_bytes()


@pytest.mark.parametrize("suffix, damage, message", [
    (".mfield", lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
     "unsupported container version 2"),
    # a field is binary whatever its name: a JSON document is not read
    (".json", lambda raw: b'{"format": "material-field", "version": 1}\n',
     "bad magic"),
], ids=["container-version", "json-format"])
def test_other_format_or_version_rejected(field, tmp_path, suffix, damage,
                                          message):
    path = tmp_path / f"f{suffix}"
    write_field(field, path)
    raw = path.read_bytes()
    path.write_bytes(damage(raw))
    assert path.read_bytes() != raw
    with pytest.raises(IoError, match=message) as info:
        read_field(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("labels", [True, False], ids=["labeled", "bare"])
@pytest.mark.parametrize("cut", ["inside-header", "header-only", "half",
                                 "one-byte-short", "padded"])
def test_container_length_must_match_header(field, tmp_path, labels, cut):
    path = tmp_path / "f.mfield"
    write_field(field if labels else field.with_(part_label=None), path)
    raw = path.read_bytes()
    damaged = {"inside-header": raw[:30], "header-only": raw[:68],
               "half": raw[:len(raw) // 2], "one-byte-short": raw[:-1],
               "padded": raw + b"\x00" * 4}[cut]
    path.write_bytes(damaged)
    with pytest.raises(IoError, match="header") as info:
        read_field(path)
    assert str(path) in str(info.value)

