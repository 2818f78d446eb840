"""Grid container, discrete calculus, and integration."""

import numpy as np
import pytest

from grflab.fields import (DomainError, GridError, Mesh, deriv_array, derivs,
                           integrate_values, metric_det, row_blocks)


def unit_mesh(N=32, d=1):
    return Mesh((N,) * d, (1.0,) * d)


def test_mesh_validation():
    with pytest.raises(GridError):
        Mesh((4,), (1.0,))  # too few points for the stencil
    with pytest.raises(GridError):
        Mesh((16, 16, 16), (1.0, 1.0, 1.0))  # d > 2
    with pytest.raises(GridError):
        Mesh((16,), (-1.0,))
    with pytest.raises(GridError):
        Mesh((16, 16), (1.0,))


def test_mesh_geometry_properties():
    mesh = Mesh((10, 20), (1.0, 4.0))
    assert mesh.d == 2
    assert mesh.spacings == (0.1, 0.2)
    assert mesh.cell_volume == pytest.approx(0.02)
    assert mesh.spacings is mesh.spacings  # computed once, not per read
    same = Mesh([10, 20], [1, 4])
    assert same == mesh and hash(same) == hash(mesh)
    X, Y = mesh.coords()
    assert X.shape == (10, 20)
    assert Y[0, 3] == pytest.approx(0.6)


def test_row_blocks_cover_the_first_axis_in_whole_rows():
    # (sizes, expected block lengths along the first axis)
    for sizes, lengths in [((200,), [128, 72]), ((128,), [128]), ((20, 20), [6, 6, 6, 2]),
                           ((128, 128), [1] * 128), ((8, 300), [1] * 8), ((16, 8), [16])]:
        blocks = row_blocks(Mesh(sizes, (1.0,) * len(sizes)))
        assert [b.stop - b.start for b in blocks] == lengths, sizes
        assert blocks[0].start == 0 and blocks[-1].stop == sizes[0]
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))


def _is_plus_zero(values):
    return np.all(values == 0.0) and not np.any(np.signbit(values))


def test_derivative_constant_is_zero():
    # the antisymmetric stencil cancels a constant to exactly +0.0, sign bit
    # clear, on every axis: run_flow's homogeneous restriction rests on this
    for mesh in (unit_mesh(), Mesh((16, 12), (1.0, 2.0))):
        for c in (3.5, -4.25, 0.0, -0.0):
            f = np.full(mesh.shape, c)
            for axis in range(mesh.d):
                assert _is_plus_zero(deriv_array(f, axis, mesh)), (mesh, c, axis)
            assert _is_plus_zero(derivs(f, mesh)), (mesh, c)
    # a tensor field whose slots hold values of every sign, -0.0 among them
    mesh = Mesh((16, 12), (1.0, 2.0))
    slots = np.arange(18.0).reshape(2, 3, 3) - 4.25
    slots[0, 0, 0] = -0.0
    f = np.broadcast_to(slots, mesh.shape + (2, 3, 3)).copy()
    for axis in range(mesh.d):
        assert _is_plus_zero(deriv_array(f, axis, mesh)), axis
    assert _is_plus_zero(derivs(f, mesh))


def test_derivative_fourth_order_convergence():
    errs = []
    for N in (32, 64):
        mesh = Mesh((N,), (1.0,))
        (x,) = mesh.coords()
        vals = np.sin(2 * np.pi * x)
        d = deriv_array(vals, 0, mesh)
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        errs.append(np.max(np.abs(d - exact)))
    assert errs[1] < errs[0] / 12.0  # 4th order would give 16


def test_derivative_fourth_order_convergence_along_second_axis():
    # axis 1 of a 2-D grid is the strided one
    errs = []
    for N in (32, 64):
        mesh = Mesh((N, N), (1.0, 2.0))
        X, Y = mesh.coords()
        vals = (1.0 + 0.5 * np.cos(2 * np.pi * X)) * np.sin(np.pi * Y)
        d = deriv_array(vals, 1, mesh)
        exact = (1.0 + 0.5 * np.cos(2 * np.pi * X)) * np.pi * np.cos(np.pi * Y)
        errs.append(np.max(np.abs(d - exact)))
    assert errs[1] < errs[0] / 12.0


def test_integrate_unit_box():
    mesh = unit_mesh()
    g = np.ones(mesh.shape + (1, 1))
    assert integrate_values(np.ones(mesh.shape), g, mesh) == pytest.approx(1.0)


def test_integrate_volume_weight():
    # g = 4 on a 1-d unit box doubles the measure
    mesh = unit_mesh()
    g = 4.0 * np.ones(mesh.shape + (1, 1))
    assert integrate_values(np.ones(mesh.shape), g, mesh) == pytest.approx(2.0)


def test_integrate_rejects_bad_metric():
    mesh = unit_mesh()
    g = -np.ones(mesh.shape + (1, 1))
    with pytest.raises(DomainError):
        integrate_values(np.ones(mesh.shape), g, mesh)


def test_metric_det_2d():
    g = np.array([[[2.0, 1.0], [1.0, 3.0]]])
    assert metric_det(g, 2)[0] == pytest.approx(5.0)
