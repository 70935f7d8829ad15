"""Orthographic soft-splatting: projection, coverage, compositing."""

import numpy as np
import pytest

from splatkin.core import GaussianSet, Role, quat_normalize, quat_to_matrix
from splatkin.errors import InvalidArgumentError
from splatkin.render import MAX_RESOLUTION, OrthoCamera, _footprints, splat, world_covariances

from _padded_footprints import padded_footprints, project


def _set(positions, opacities, colors=None, log_scale=-1.0, rotations=None):
    n = len(positions)
    if colors is None:
        colors = np.tile([1.0, 1.0, 1.0], (n, 1))
    if rotations is None:
        rotations = np.tile([1.0, 0, 0, 0], (n, 1))
    return GaussianSet(
        positions=np.asarray(positions, dtype=np.float64),
        rotations=np.asarray(rotations, dtype=np.float64),
        log_scales=np.full((n, 3), log_scale),
        opacities=np.asarray(opacities, dtype=np.float64),
        colors=np.asarray(colors, dtype=np.float64),
        role=Role.APPEARANCE,
    )


def _rand_set(n, seed):
    rng = np.random.default_rng(seed)
    return _set(rng.normal(size=(n, 3)) * 0.8, rng.uniform(0.2, 0.9, n),
                colors=rng.random((n, 3)), log_scale=-1.0,
                rotations=quat_normalize(rng.normal(size=(n, 4))))


def _footprint_lists(gset, camera, truncation_radius=3.0):
    """``_footprints`` entries grouped per kernel: (m,2) int (x, y) pixels and (m,)
    contributions for each kernel of ``gset`` (empty for skipped kernels), plus
    the skipped count."""
    cov3 = world_covariances(quat_to_matrix(gset.rotations), gset.log_scales)
    fp = _footprints(gset, cov3, camera, truncation_radius)
    assert np.all(np.diff(fp.row) >= 0)  # kernel-major entries
    y, x = np.divmod(fp.pixel, camera.resolution[0])
    pix = np.stack([x, y], axis=1)
    lists = [(np.zeros((0, 2), dtype=np.int64), np.zeros(0)) for _ in range(len(gset))]
    for row, kernel_index in enumerate(fp.kept):
        sel = fp.row == row
        lists[kernel_index] = (pix[sel], fp.g[sel])
    return lists, fp.skipped


class TestCamera:
    def test_axis_views_look_along_axis(self):
        for axis, fwd in (("+z", [0, 0, 1]), ("-x", [-1, 0, 0]), ("+y", [0, 1, 0])):
            cam = OrthoCamera.axis_view(axis, np.zeros(3), 2.0, 2.0, (8, 8))
            assert np.allclose(cam.rotation[2], fwd)
            assert np.allclose(cam.rotation @ cam.rotation.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(cam.rotation) == pytest.approx(1.0)

    def test_unknown_axis(self):
        with pytest.raises(InvalidArgumentError):
            OrthoCamera.axis_view("+w", np.zeros(3), 1.0, 1.0, (4, 4))

    def test_window_center_maps_to_image_center(self):
        cam = OrthoCamera.axis_view("+z", np.array([1.0, 2.0, 3.0]), 4.0, 4.0, (25, 25))
        g = _set([[1.0, 2.0, 0.0]], [0.5])
        means, _, depths = project(g, cam)
        assert np.allclose(means[0], [12.5, 12.5])  # center of pixel (12, 12)
        assert depths[0] == pytest.approx(-3.0)  # 3 units in front of center

    def test_rejects_improper_rotation(self):
        bad = np.diag([1.0, 1.0, -1.0])  # reflection
        with pytest.raises(InvalidArgumentError):
            OrthoCamera(rotation=bad, center=np.zeros(3), width=1.0, height=1.0,
                        resolution=(4, 4))

    @pytest.mark.parametrize("resolution", [(MAX_RESOLUTION + 1, 8), (8, MAX_RESOLUTION + 1),
                                            (100_000_000, 100_000_000)])
    def test_rejects_side_above_cap(self, resolution):
        # the camera holds no image, so the check itself allocates nothing
        with pytest.raises(InvalidArgumentError, match="side limit"):
            OrthoCamera.axis_view("+z", np.zeros(3), 1.0, 1.0, resolution)

    def test_accepts_side_at_cap(self):
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 1.0, 1.0, (MAX_RESOLUTION, 1))
        assert cam.resolution == (MAX_RESOLUTION, 1)


class TestCoverage:
    def test_center_pixel_equals_opacity(self):
        # odd resolution: the window center IS a pixel center, the Gaussian
        # peak lands exactly there and contributes opacity * exp(0)
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 4.0, 4.0, (25, 25))
        g = _set([[0.0, 0.0, 0.0]], [0.73])
        out = splat(g, cam)
        assert out.alpha[12, 12] == pytest.approx(0.73, rel=1e-12)

    def test_two_kernel_product_form(self):
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 4.0, 4.0, (25, 25))
        g = _set([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]], [0.6, 0.3])
        out = splat(g, cam)
        # [DERIVED] 1 - (1 - 0.6)(1 - 0.3) at the shared peak pixel
        assert out.alpha[12, 12] == pytest.approx(1 - 0.4 * 0.7, rel=1e-12)

    def test_alpha_independent_of_order(self):
        g = _rand_set(12, seed=0)
        cam = OrthoCamera.axis_view("+y", np.zeros(3), 5.0, 5.0, (20, 20))
        perm = np.random.default_rng(1).permutation(12)
        shuffled = g.replace(positions=g.positions[perm], rotations=g.rotations[perm],
                             log_scales=g.log_scales[perm], opacities=g.opacities[perm],
                             colors=g.colors[perm])
        a = splat(g, cam).alpha
        b = splat(shuffled, cam).alpha
        assert np.abs(a - b).max() < 1e-12

    def test_outside_window_renders_empty(self):
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 2.0, 2.0, (10, 10))
        g = _set([[50.0, 50.0, 0.0]], [0.9], log_scale=-2.0)
        out = splat(g, cam)
        assert np.all(out.alpha == 0.0)
        assert np.all(out.rgb == 0.0)

    @pytest.mark.parametrize("x", [-1.5, -1.55])
    def test_kernel_wider_than_image_off_image(self, x):
        # sigma 0.5 m is 32 px on a 64 px, 1 m window: the ellipse reaches column 0
        # from a centre 99 px left of the image
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 1.0, 1.0, (64, 64))
        g = _set([[x, 0.0, 0.0]], [0.9], log_scale=np.log(0.5))
        alpha = splat(g, cam).alpha
        # [DERIVED] pixel (0, 32) centre (0.5, 32.5) against mean (32 + 64x, 32) in px
        dx, dy = 0.5 - (32.0 + 64.0 * x), 0.5
        want = 0.9 * np.exp(-0.5 * (dx * dx + dy * dy) / 32.0**2)
        assert alpha[32, 0] == pytest.approx(want, rel=1e-12)


class TestCompositing:
    def test_front_occludes_back(self):
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 4.0, 4.0, (25, 25))
        # forward is +z: smaller z is closer to this camera
        g = _set([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]], [0.6, 0.5],
                 colors=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = splat(g, cam)
        # [DERIVED] front-to-back: c = g1*c1 + g2*(1-g1)*c2 at the peak
        assert out.rgb[12, 12, 0] == pytest.approx(0.6, rel=1e-12)
        assert out.rgb[12, 12, 1] == pytest.approx(0.5 * 0.4, rel=1e-12)

    def test_color_permutation_invariant_with_distinct_depths(self):
        rng = np.random.default_rng(2)
        pos = rng.normal(size=(10, 3))
        pos[:, 2] = np.linspace(-1.0, 1.0, 10)  # unique depths
        g = _set(pos, rng.uniform(0.2, 0.8, 10), colors=rng.random((10, 3)))
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 5.0, 5.0, (21, 21))
        perm = rng.permutation(10)
        shuffled = g.replace(positions=g.positions[perm], rotations=g.rotations[perm],
                             log_scales=g.log_scales[perm], opacities=g.opacities[perm],
                             colors=g.colors[perm])
        assert np.abs(splat(g, cam).rgb - splat(shuffled, cam).rgb).max() < 1e-12

    def test_equal_depth_ties_break_by_index(self):
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 4.0, 4.0, (25, 25))
        g = _set([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0],
                 colors=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = splat(g, cam)
        # kernel 0 fully occludes kernel 1 at the shared peak
        assert out.rgb[12, 12].tolist() == [1.0, 0.0, 0.0]


class TestFootprints:
    def test_truncation_limits_extent(self):
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 8.0, 8.0, (64, 64))
        g = _set([[0.0, 0.0, 0.0]], [0.9], log_scale=np.log(0.5))
        [(pix, contrib)], _ = _footprint_lists(g, cam, truncation_radius=2.0)
        assert len(pix) > 0
        # no contribution beyond the truncation ellipse: qform <= rho^2
        # pixel scale: 64 px / 8 m = 8 px/m, sigma = 0.5 m = 4 px
        d = pix + 0.5 - np.array([32.0, 32.0])
        assert (np.sum(d * d, axis=1) <= (2.0 * 4.0) ** 2 + 1e-9).all()
        assert np.all(contrib > 0.0)

    def test_degenerate_kernel_skipped(self):
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 4.0, 4.0, (16, 16))
        g = _set([[0.0, 0.0, 0.0]], [0.8], log_scale=-1.0).replace(
            log_scales=np.array([[-1.0, -30.0, -1.0]]))  # needle: cond blows up
        out = splat(g, cam)
        assert out.skipped == 1
        assert np.all(out.alpha == 0.0)

    def test_zero_opacity_contributes_nothing(self):
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 4.0, 4.0, (16, 16))
        g = _set([[0.0, 0.0, 0.0]], [0.0])
        out = splat(g, cam)
        assert np.all(out.alpha == 0.0)
        [(pix, contrib)], _ = _footprint_lists(g, cam)
        assert len(pix) == 0

    def test_alpha_reconstructable_from_footprints(self):
        g = _rand_set(7, seed=3)
        cam = OrthoCamera.axis_view("+x", np.zeros(3), 5.0, 5.0, (18, 18))
        out = splat(g, cam)
        one_minus = np.ones((18, 18))
        for pix, contrib in _footprint_lists(g, cam)[0]:
            for (x, y), gi in zip(pix, contrib):
                one_minus[y, x] *= 1.0 - gi
        assert np.abs((1.0 - one_minus) - out.alpha).max() < 1e-12


def _splat_reference(gset, camera, truncation_radius=3.0):
    """Kernel-by-kernel splat over padded footprints: the reference for splat."""
    w_px, h_px = camera.resolution
    fp = padded_footprints(gset, camera, truncation_radius)
    one_minus = np.ones((h_px, w_px))
    if fp.kept.size:
        v = fp.valid
        np.multiply.at(one_minus, (fp.pix_y[v], fp.pix_x[v]), 1.0 - fp.g[v])
    rgb = np.zeros((h_px, w_px, 3))
    transmittance = np.ones((h_px, w_px))
    colors = gset.colors[:, :3]
    for row in np.argsort(fp.depths, kind="stable"):
        sel = fp.valid[row]
        xs = fp.pix_x[row, sel]
        ys = fp.pix_y[row, sel]
        gi = fp.g[row, sel]
        t_here = transmittance[ys, xs]
        rgb[ys, xs] += (gi * t_here)[:, None] * colors[fp.kept[row]]
        transmittance[ys, xs] = t_here * (1.0 - gi)
    footprints = [(np.zeros((0, 2), dtype=np.int64), np.zeros(0)) for _ in range(len(gset))]
    for row, kernel_index in enumerate(fp.kept):
        sel = fp.valid[row]
        pix = np.stack([fp.pix_x[row, sel], fp.pix_y[row, sel]], axis=1)
        footprints[kernel_index] = (pix, fp.g[row, sel].copy())
    return np.clip(rgb, 0.0, 1.0), 1.0 - one_minus, footprints, fp.skipped


def _mixed_set(n, seed):
    """Random kernels with shared depths, off-window kernels, a needle and a zero opacity."""
    rng = np.random.default_rng(seed)
    positions = rng.integers(-6, 7, size=(n, 3)) * 0.25  # few distinct depths on every axis
    positions[: n // 8] += [6.0, 0.0, 0.0]  # partly or wholly outside the window
    log_scales = rng.uniform(-2.2, -0.8, size=(n, 3))
    rotations = quat_normalize(rng.normal(size=(n, 4)))
    # needles along x and y: at least one projects to a singular footprint in any axis view
    log_scales[n // 2], log_scales[n // 2 + 1] = [-1.0, -30.0, -30.0], [-30.0, -1.0, -30.0]
    rotations[n // 2: n // 2 + 2] = [1.0, 0.0, 0.0, 0.0]
    opacities = rng.uniform(0.05, 1.0, size=n)
    opacities[n // 3] = 0.0
    return GaussianSet(positions=positions, rotations=rotations,
                       log_scales=log_scales, opacities=opacities, colors=rng.random((n, 4)),
                       role=Role.APPEARANCE)


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("axis,resolution", [("+z", (23, 17)), ("-x", (16, 16)),
                                                 ("+y", (31, 9))])
    def test_bitwise_equal(self, seed, axis, resolution):
        g = _mixed_set(60, seed)
        cam = OrthoCamera.axis_view(axis, np.zeros(3), 5.0, 4.0, resolution)
        out = splat(g, cam, truncation_radius=2.5)
        rgb, alpha, footprints, skipped = _splat_reference(g, cam, truncation_radius=2.5)
        assert out.skipped == skipped >= 1
        assert out.rgb.tobytes() == rgb.tobytes()
        assert out.alpha.tobytes() == alpha.tobytes()
        lists, fp_skipped = _footprint_lists(g, cam, truncation_radius=2.5)
        assert fp_skipped == skipped
        assert len(lists) == len(footprints)
        for (pix, contrib), (ref_pix, ref_contrib) in zip(lists, footprints):
            assert pix.dtype == ref_pix.dtype and pix.shape == ref_pix.shape
            assert pix.tobytes() == ref_pix.tobytes()
            assert contrib.tobytes() == ref_contrib.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("truncation_radius", [1.0, 3.0, 8.0])
    def test_thin_kernels_bitwise_equal(self, seed, truncation_radius):
        # footprints near the conditioning limit, where qform rounds the most
        g = _mixed_set(40, 10 + seed)
        rng = np.random.default_rng(seed)
        log_scales = g.log_scales.copy()
        log_scales[::3, 1:] = log_scales[::3, :1] - rng.uniform(8.0, 14.0, size=(14, 1))
        g = g.replace(log_scales=log_scales)
        cam = OrthoCamera.axis_view("+z", np.zeros(3), 5.0, 4.0, (37, 29))
        out = splat(g, cam, truncation_radius=truncation_radius)
        rgb, alpha, footprints, skipped = _splat_reference(g, cam, truncation_radius)
        assert out.skipped == skipped
        assert out.rgb.tobytes() == rgb.tobytes()
        assert out.alpha.tobytes() == alpha.tobytes()
        lists, _ = _footprint_lists(g, cam, truncation_radius)
        assert len(lists) == len(footprints)
        for (pix, contrib), (ref_pix, ref_contrib) in zip(lists, footprints):
            assert pix.tobytes() == ref_pix.tobytes()
            assert contrib.tobytes() == ref_contrib.tobytes()

    def test_everything_skipped_or_outside(self):
        g = _mixed_set(16, 7)
        cam = OrthoCamera.axis_view("+z", np.full(3, 100.0), 1.0, 1.0, (8, 8))
        out = splat(g, cam)
        assert np.all(out.alpha == 0.0) and np.all(out.rgb == 0.0)
        lists, _ = _footprint_lists(g, cam)
        assert all(len(pix) == 0 and len(c) == 0 for pix, c in lists)
        assert len(lists) == 16
