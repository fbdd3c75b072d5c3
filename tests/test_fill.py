import numpy as np
import pytest

from physedit.errors import (DegenerateGeometry, DomainError, LeakDetected,
                             ShapeError)
from physedit.fieldio import read_field, write_field
from physedit.fill import FillConfig, fill_field, fill_interior, inherit_properties
from physedit.materials import MaterialClass, validate_field
from physedit.scenes import cube_shell_positions, sphere_shell_positions, uniform_field
from oracles import brute_force_nearest


def cube_field(size=1.0, n=21, **mat):
    mat = {"material": MaterialClass.ELASTIC, "e": 1e5, "nu": 0.3,
           "rho": 1000.0, **mat}
    shell = cube_shell_positions(size, n)
    return uniform_field(shell, mat["material"], mat["e"], mat["nu"], mat["rho"])


class TestFillInterior:
    def test_unit_cube_analytic_count(self):
        # analytic lattice count: 9^3 points strictly inside at h = 0.1
        interior = fill_interior(cube_field(), FillConfig(particle_spacing=0.1))
        assert abs(interior.shape[0] - 729) <= 0.1 * 729
        assert interior.shape[0] == 729  # exact for an axis-aligned dense shell

    def test_no_interior_point_near_surface(self):
        f = cube_field()
        cfg = FillConfig(particle_spacing=0.1)
        interior = fill_interior(f, cfg)
        d2 = np.min(np.sum((interior[:, None, :] - f.positions[None]) ** 2,
                           axis=2), axis=1)
        assert np.all(np.sqrt(d2) >= 0.05)

    def test_flat_sheet_degenerate(self):
        xs, ys = np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12))
        sheet = np.stack([xs.ravel(), ys.ravel(), np.zeros(144)], axis=1)
        f = uniform_field(sheet, MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
        with pytest.raises(DegenerateGeometry):
            fill_interior(f, FillConfig(particle_spacing=0.1))

    def test_sphere_volume_count(self):
        # (4 pi / 3) / h^3 ~ 33,510 at h = 0.05 for a unit sphere
        shell = sphere_shell_positions(1.0, 4500)
        f = uniform_field(shell, MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
        interior = fill_interior(f, FillConfig(particle_spacing=0.05))
        expected = (4.0 * np.pi / 3.0) / 0.05 ** 3
        assert abs(interior.shape[0] - expected) <= 0.05 * expected

    def test_open_surface_leak(self):
        # the 12 edges of a cube, 0.02 m apart: the derived voxels are
        # fine, yet the edges bound no face
        t = np.linspace(0.0, 2.4, 121)
        edges = []
        for axis in range(3):
            for a, b in ((0, 0), (0, 2.4), (2.4, 0), (2.4, 2.4)):
                edge = np.zeros((121, 3))
                edge[:, axis] = t
                edge[:, [k for k in range(3) if k != axis]] = a, b
                edges.append(edge)
        f = uniform_field(np.concatenate(edges), MaterialClass.ELASTIC,
                          1e5, 0.3, 1000.0)
        with pytest.raises(LeakDetected, match="the surface is open"):
            fill_interior(f, FillConfig(particle_spacing=0.05))

    def test_grid_aligned_translation_invariance(self):
        f = cube_field()
        cfg = FillConfig(particle_spacing=0.1)
        base = fill_interior(f, cfg)
        for n_steps in (1, 3, -2):
            t = np.array([n_steps * 0.1, 0.0, n_steps * 0.1])
            moved = fill_interior(f.with_(positions=f.positions + t), cfg)
            assert moved.shape == base.shape
            a = base[np.lexsort(base.T)]
            b = moved[np.lexsort(moved.T)] - t
            assert np.allclose(a, b, atol=1e-9)

    def test_halving_spacing_monotonicity(self):
        f = cube_field()
        coarse = fill_interior(f, FillConfig(particle_spacing=0.1))
        fine = fill_interior(f, FillConfig(particle_spacing=0.05))
        ratio = fine.shape[0] / coarse.shape[0]
        assert 6.0 <= ratio <= 10.0

    def test_two_spheres_fill_each_like_one(self):
        # the shell is not star-shaped around its bounding-box centre, which
        # lies between the spheres; each sphere must still fill as if alone
        shell = sphere_shell_positions(0.3, 1000)
        two = np.concatenate([shell, shell + [1.2, 0.0, 0.0]])
        cfg = FillConfig(particle_spacing=0.05)
        one = fill_interior(uniform_field(shell, MaterialClass.ELASTIC,
                                          1e5, 0.3, 1000.0), cfg)
        both = fill_interior(uniform_field(two, MaterialClass.ELASTIC,
                                           1e5, 0.3, 1000.0), cfg)
        left = both[:, 0] < 0.6
        assert left.sum() == (~left).sum() == one.shape[0]
        assert np.all(np.linalg.norm(both[left], axis=1) <= 0.3)
        assert np.all(np.linalg.norm(both[~left] - [1.2, 0.0, 0.0],
                                     axis=1) <= 0.3)

    @pytest.mark.parametrize("positions, spacing, message", [
        (np.eye(3), 0.1, "need at least 4"),
        (np.concatenate([np.zeros((1, 3)), np.eye(3)]), 0.1,
         "no interior voxel"),
        (cube_shell_positions(1.0, 21), 0.9, "no interior lattice point"),
    ], ids=["three-points", "tetrahedron", "spacing-exceeds-gap"])
    def test_degenerate_geometry(self, positions, spacing, message):
        f = uniform_field(positions, MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
        with pytest.raises(DegenerateGeometry, match=message):
            fill_interior(f, FillConfig(particle_spacing=spacing))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FillConfig(particle_spacing=0.0).validate()


class TestInheritProperties:
    def test_single_surface_point_copies_everywhere(self):
        f = uniform_field(np.array([[0.0, 0.0, 0.0]]), MaterialClass.SNOW,
                          3e6, 0.25, 400.0)
        interior = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        out = inherit_properties(interior, f, FillConfig(particle_spacing=0.1))
        assert out.n_points == 3
        assert np.all(out.young_modulus == 3e6)
        assert np.all(out.class_id == int(MaterialClass.SNOW))
        assert np.array_equal(out.interior_flag, [False, True, True])

    def test_two_material_cube_split(self):
        shell = cube_shell_positions(1.0, 21)
        left = shell[:, 0] < 0.5
        f = uniform_field(shell, MaterialClass.ELASTIC, 2e11, 0.3, 7800.0)
        f = f.with_(young_modulus=np.where(left, 2e11, 1e7),
                    density=np.where(left, 7800.0, 1100.0),
                    part_label=np.where(left, 0, 1).astype(np.int32))
        cfg = FillConfig(particle_spacing=0.1)
        interior = fill_interior(f, cfg)
        out = inherit_properties(interior, f, cfg)
        tail = slice(f.n_points, None)
        nearest = brute_force_nearest(f.positions, interior)
        assert np.array_equal(out.young_modulus[tail], f.young_modulus[nearest])
        # off the midplane band the split follows the halves exactly
        deep = np.abs(interior[:, 0] - 0.5) > 0.11
        inherited_left = out.young_modulus[tail][deep] == 2e11
        assert np.array_equal(inherited_left, interior[deep, 0] < 0.5)

    @pytest.mark.parametrize("interior", [np.zeros((4, 2)), np.zeros((0, 3))],
                             ids=["two-columns", "empty"])
    def test_bad_interior_shape(self, interior):
        with pytest.raises(ShapeError):
            inherit_properties(interior, cube_field(),
                               FillConfig(particle_spacing=0.1))

    def test_unlabeled_surface_fills_unlabeled(self, tmp_path):
        f = cube_field().with_(part_label=None)
        out = fill_field(f, FillConfig(particle_spacing=0.1))
        assert out.part_label is None
        assert out.interior_flag.sum() == 729
        write_field(out, tmp_path / "solid.mfield")
        back = read_field(tmp_path / "solid.mfield")
        assert back.part_label is None
        assert np.array_equal(back.positions, out.positions.astype(np.float32))
        assert np.array_equal(back.young_modulus, out.young_modulus)
        assert np.array_equal(back.interior_flag, out.interior_flag)

    def test_knn1_equals_brute_force_on_1000_points(self):
        rng = np.random.default_rng(1)
        surface = uniform_field(rng.uniform(0, 1, size=(300, 3)),
                                MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
        surface = surface.with_(
            young_modulus=10 ** rng.uniform(3, 9, 300),
            part_label=rng.integers(0, 4, 300).astype(np.int32))
        queries = rng.uniform(0, 1, size=(1000, 3))
        out = inherit_properties(queries, surface,
                                 FillConfig(particle_spacing=0.05))
        nearest = brute_force_nearest(surface.positions, queries)
        tail = slice(300, None)
        assert np.array_equal(out.young_modulus[tail],
                              surface.young_modulus[nearest])
        assert np.array_equal(out.part_label[tail],
                              surface.part_label[nearest])

    def test_exact_tie_takes_lowest_index(self):
        # two surface points equidistant from the query
        pos = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        f = uniform_field(pos, MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
        f = f.with_(young_modulus=np.array([111.0, 222.0]))
        out = inherit_properties(np.array([[0.0, 0.0, 0.0]]), f,
                                 FillConfig(particle_spacing=0.1))
        assert out.young_modulus[-1] == 111.0

    def test_tie_beyond_nearest_window_takes_lowest_index(self):
        # the 12 points (+-1, +-1, 0) and their permutations lie exactly
        # sqrt(2) from the origin: more ties than one kNN window holds
        signs = np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)])
        ring = np.concatenate([np.insert(signs, axis, 0.0, axis=1)
                               for axis in range(3)])
        for seed in range(40):
            rng = np.random.default_rng(seed)
            far = rng.uniform(5, 10, size=(2000, 3)) * \
                rng.choice([-1.0, 1.0], size=(2000, 3))
            pos = rng.permutation(np.concatenate([ring, far]))
            f = uniform_field(pos, MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
            f = f.with_(young_modulus=1e3 + np.arange(pos.shape[0]))
            queries = np.concatenate([np.zeros((1, 3)),
                                      rng.uniform(-9, 9, size=(50, 3))])
            out = inherit_properties(queries, f,
                                     FillConfig(particle_spacing=0.1))
            nearest = brute_force_nearest(pos, queries)
            assert np.abs(pos[nearest[0]]).sum() == 2.0
            assert np.array_equal(out.young_modulus[pos.shape[0]:],
                                  f.young_modulus[nearest]), seed

    def test_values_drawn_from_surface_set(self):
        rng = np.random.default_rng(2)
        f = cube_field()
        f = f.with_(young_modulus=10 ** rng.uniform(3, 9, f.n_points))
        cfg = FillConfig(particle_spacing=0.1)
        out = fill_field(f, cfg)
        surface_set = set(f.young_modulus.tolist())
        assert set(out.young_modulus.tolist()) <= surface_set

    def test_output_passes_validation(self):
        out = fill_field(cube_field(), FillConfig(particle_spacing=0.1))
        assert validate_field(out).ok
