import numpy as np
import pytest

from physedit.errors import DomainError
from physedit.materials import (MATERIAL_CLASS_COUNT, MaterialClass,
                                MaterialField, MaterialModel, derive_moduli,
                                validate_field, wave_speeds)


def lame_oracle(e, nu):
    # independent closed forms used throughout as the reference
    mu = e / (2 * (1 + nu))
    lam = e * nu / ((1 + nu) * (1 - 2 * nu))
    return mu, lam


class TestDeriveModuli:
    def test_nu_zero_collapse(self):
        d = derive_moduli(1.0, 0.0)
        assert d.mu == 0.5
        assert d.kappa == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert d.lame_lambda == 0.0

    def test_steel_values(self):
        d = derive_moduli(2.1e11, 0.3)
        # direct evaluation of the two closed forms
        assert d.mu == pytest.approx(2.1e11 / 2.6, rel=1e-12)
        assert d.kappa == pytest.approx(2.1e11 / (3 * 0.4), rel=1e-12)

    def test_incompressible_singularity(self):
        with pytest.raises(DomainError):
            derive_moduli(1.0, 0.5)
        with pytest.raises(DomainError):
            derive_moduli(-1.0, 0.2)
        with pytest.raises(DomainError):
            derive_moduli(1.0, -1.0)

    def test_bulk_identity(self):
        rng = np.random.default_rng(3)
        e = 10 ** rng.uniform(2, 11, 200)
        nu = rng.uniform(-0.9, 0.49, 200)
        d = derive_moduli(e, nu)
        # K = lambda + 2 mu / 3
        assert np.allclose(d.kappa, d.lame_lambda + 2 * d.mu / 3, rtol=1e-12)

    def test_roundtrip_recovers_inputs(self):
        rng = np.random.default_rng(11)
        e = 10 ** rng.uniform(2, 11, 500)
        nu = rng.uniform(-0.9, 0.49, 500)
        d = derive_moduli(e, nu)
        e_back = 9 * d.kappa * d.mu / (3 * d.kappa + d.mu)
        nu_back = (3 * d.kappa - 2 * d.mu) / (2 * (3 * d.kappa + d.mu))
        assert np.allclose(e_back, e, rtol=1e-10)
        assert np.allclose(nu_back, nu, rtol=1e-10, atol=1e-12)


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

    def test_material_model_positivity(self):
        MaterialModel().validate()
        with pytest.raises(DomainError):
            MaterialModel(yield_stress=0.0).validate()

    def test_class_enum_count(self):
        assert MATERIAL_CLASS_COUNT == 6
        assert [m.value for m in MaterialClass] == list(range(6))
