import numpy as np
import pytest

from physedit.errors import DomainError, ShapeError
from physedit.materials import (MATERIAL_CLASS_COUNT, MaterialClass,
                                MaterialField, ParamNormalization,
                                validate_field, wave_speeds)


def lame_oracle(e, nu):
    # independent closed forms used throughout as the reference
    mu = e / (2 * (1 + nu))
    lam = e * nu / ((1 + nu) * (1 - 2 * nu))
    return mu, lam


class TestWaveSpeeds:
    def test_nu_zero(self):
        c_p, c_s = wave_speeds(2.0, 0.0, 1.0)
        assert c_p == np.sqrt(2.0)
        assert c_s == 1.0

    def test_reference_triple(self):
        c_p, c_s = wave_speeds(1e7, 0.3, 1000.0)
        assert c_p == pytest.approx(116.0239, rel=1e-5)
        assert c_s == pytest.approx(62.0174, rel=1e-5)

    def test_incompressible_limit(self):
        nu = 0.499999
        c_p, c_s = wave_speeds(1.0, nu, 1.0)
        assert np.isfinite(c_p)
        # ratio diverges as sqrt(2(1-nu)/(1-2nu)); ~707 at this nu
        assert c_p / c_s == pytest.approx(np.sqrt(2 * (1 - nu) / (1 - 2 * nu)),
                                          rel=1e-12)
        assert c_p > 500 * c_s
        with pytest.raises(DomainError):
            wave_speeds(1.0, 0.5, 1.0)

    def test_matches_lame_oracle(self):
        rng = np.random.default_rng(5)
        e = 10 ** rng.uniform(2, 11, 1000)
        nu = rng.uniform(-0.9, 0.49, 1000)
        rho = 10 ** rng.uniform(0, 4, 1000)
        c_p, c_s = wave_speeds(e, nu, rho)
        mu, lam = lame_oracle(e, nu)
        assert np.allclose(c_p, np.sqrt((lam + 2 * mu) / rho), rtol=1e-12)
        assert np.allclose(c_s, np.sqrt(mu / rho), rtol=1e-12)

    def test_ratio_identity(self):
        c_p, c_s = wave_speeds(3.7e6, 0.22, 850.0)
        assert c_p / c_s == pytest.approx(np.sqrt(2 * 0.78 / 0.56), rel=1e-12)


class TestValidateField:
    def _valid(self, n=10):
        rng = np.random.default_rng(0)
        return MaterialField(positions=rng.normal(size=(n, 3)),
                             class_id=np.zeros(n, dtype=np.int32),
                             young_modulus=np.full(n, 1e5),
                             poisson_ratio=np.full(n, 0.3),
                             density=np.full(n, 1000.0))

    def test_valid_field_empty_report(self):
        assert validate_field(self._valid()).ok

    def test_bad_poisson_flagged_with_index(self):
        f = self._valid()
        nu = f.poisson_ratio.copy()
        nu[4] = 0.6
        report = validate_field(f.with_(poisson_ratio=nu))
        assert not report.ok
        assert any(v.field_name == "poisson_ratio" and v.index == 4
                   for v in report.violations)

    def test_length_mismatch_flagged(self):
        f = self._valid()
        report = validate_field(f.with_(young_modulus=f.young_modulus[:-1]))
        assert any(v.field_name == "young_modulus" and "length" in v.message
                   for v in report.violations)

    def test_report_bounded_by_rules_not_points(self):
        # every point breaks every per-point rule; the report still names
        # each rule once, with the count and the first bad index
        n = 10 ** 5
        f = MaterialField(positions=np.full((n, 3), np.nan),
                          class_id=np.full(n, 9), young_modulus=np.zeros(n),
                          poisson_ratio=np.full(n, 0.6),
                          density=np.full(n, -1.0))
        report = validate_field(f)
        names = [v.field_name for v in report.violations]
        assert sorted(names) == sorted(set(names)) == [
            "class_id", "density", "poisson_ratio", "positions",
            "young_modulus"]
        assert all((v.index, v.count) == (0, n) for v in report.violations)
        assert len(str(report).encode()) < 2048

    @pytest.mark.parametrize("positions, text", [
        (np.zeros((4, 2)), "positions: expected (N, 3), got (4, 2)"),
        (np.zeros((0, 3)), "positions: field must contain at least one point"),
        (np.zeros((4, 3)), "field valid"),
    ], ids=["not_n_by_3", "empty", "valid"])
    def test_report_text(self, positions, text):
        n = positions.shape[0]
        f = MaterialField(positions=positions, class_id=np.zeros(n),
                          young_modulus=np.full(n, 1e5),
                          poisson_ratio=np.full(n, 0.3),
                          density=np.full(n, 1000.0))
        assert str(validate_field(f)) == text

    def test_class_enum_count(self):
        assert MATERIAL_CLASS_COUNT == 6
        assert [m.value for m in MaterialClass] == list(range(6))


@pytest.mark.parametrize("call, error, match", [
    (lambda: ParamNormalization(mean=(6.0, 0.25)).as_arrays(), ShapeError,
     "3 channels"),
    (lambda: ParamNormalization(std=(2.0, 0.0, 0.5)).as_arrays(), DomainError,
     "std must be positive"),
    (lambda: wave_speeds(-1.0, 0.3, 1e3), DomainError, "Young's modulus"),
    (lambda: wave_speeds(1e5, 0.3, 0.0), DomainError, "density"),
    (lambda: wave_speeds(1e5, 0.3, np.array([1e3, -1.0])), DomainError,
     "density"),
], ids=["channels", "std", "negative_modulus", "zero_density",
        "negative_density"])
def test_validators_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
