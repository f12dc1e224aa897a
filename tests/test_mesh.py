"""Mesh construction, steps and validation."""

from fractions import Fraction

import numpy as np
import pytest

from radialheat import (LayerSpec, MeshDomainError, MeshSpacingError,
                        MeshStructureError, RadialMesh, build_mesh)

from oracles import mesh_nodes_rows


def two_layer_mesh():
    return build_mesh([LayerSpec(1.0, 2.0, "a", 4), LayerSpec(2.0, 4.0, "b", 4)])


def test_single_layer_uniform_subdivision():
    mesh = build_mesh([LayerSpec(1.0, 2.0, "a", 8)])
    assert mesh.n == 9
    assert mesh.nodes.tolist()[:3] == [1.0, 1.125, 1.25]
    assert mesh.contact_indices == ()
    assert mesh.k == 0


def test_two_layer_nodes_steps_contacts():
    mesh = two_layer_mesh()
    assert mesh.n == 9
    assert mesh.nodes[4] == 2.0
    assert mesh.contact_indices == (4,)
    assert mesh.k == 1
    steps = mesh.steps.tolist()
    assert steps[:4] == [0.25] * 4
    assert steps[4:] == [0.5] * 4


def test_twelve_layers_has_eleven_contacts():
    layers = [LayerSpec(1 + Fraction(j, 12), 1 + Fraction(j + 1, 12), f"m{j}", 4)
              for j in range(12)]
    mesh = build_mesh(layers)
    assert mesh.k == 11
    assert mesh.is_exact
    assert mesh.layer_materials == tuple(f"m{j}" for j in range(12))
    # every interface radius appears exactly once, at a contact index
    for j, i_star in enumerate(mesh.contact_indices, start=1):
        assert mesh.nodes[i_star] == 1 + Fraction(j, 12)


def test_steps_sum_to_domain_width():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cells = [int(c) for c in rng.integers(4, 9, 3)]
        bounds = np.sort(rng.uniform(0.5, 5.0, 4))
        layers = [LayerSpec(float(bounds[j]), float(bounds[j + 1]), f"m{j}", cells[j])
                  for j in range(3)]
        mesh = build_mesh(layers)
        total = sum(mesh.steps.tolist())
        width = bounds[3] - bounds[0]
        assert abs(total - width) <= 1e-12 * width


def test_contact_window_clear_of_other_contacts():
    layers = [LayerSpec(1 + Fraction(j, 5), 1 + Fraction(j + 1, 5), f"m{j}", 4)
              for j in range(5)]
    mesh = build_mesh(layers)
    for i_star in mesh.contact_indices:
        window = set(range(i_star - 2, i_star + 3))
        assert window <= set(range(mesh.n))
        assert window & set(mesh.contact_indices) == {i_star}


def test_rebuild_from_own_nodes_is_identical():
    mesh = two_layer_mesh()
    rebuilt = RadialMesh.from_nodes(mesh.nodes.tolist(), mesh.contact_indices,
                                    mesh.layer_materials)
    assert rebuilt.contact_indices == mesh.contact_indices
    assert rebuilt.steps.tolist() == mesh.steps.tolist()


def test_non_contiguous_layers_rejected():
    with pytest.raises(MeshStructureError):
        build_mesh([LayerSpec(1.0, 2.0, "a", 4), LayerSpec(2.5, 3.0, "b", 4)])


def test_nonpositive_r_min_rejected():
    with pytest.raises(MeshDomainError):
        build_mesh([LayerSpec(0.0, 1.0, "a", 8)])
    with pytest.raises(MeshDomainError):
        build_mesh([LayerSpec(-1.0, 1.0, "a", 8)])


def test_too_few_cells_rejected():
    with pytest.raises(MeshSpacingError):
        build_mesh([LayerSpec(1.0, 2.0, "a", 3), LayerSpec(2.0, 3.0, "b", 4)])


def test_contact_spacing_enforced_from_nodes():
    nodes = [1.0 + 0.1 * j for j in range(11)]
    with pytest.raises(MeshSpacingError):
        RadialMesh.from_nodes(nodes, (4, 6), ("a", "b", "c"))
    with pytest.raises(MeshSpacingError):
        RadialMesh.from_nodes(nodes, (1,), ("a", "b"))


def test_material_change_requires_contact():
    nodes = [1.0 + 0.1 * j for j in range(11)]
    # two layer materials need one contact between them
    with pytest.raises(MeshStructureError, match="expected 1"):
        RadialMesh.from_nodes(nodes, (), ("a", "b"))
    # one material per cell is not one per layer
    with pytest.raises(MeshStructureError, match="expected 2"):
        RadialMesh.from_nodes(nodes, (5,), ("a",) * 5 + ("b",) * 5)
    mesh = RadialMesh.from_nodes(nodes, (5,), ("a", "b"))
    assert mesh.layer_materials == ("a", "b")


def test_exact_mesh_from_fractions():
    mesh = build_mesh([LayerSpec(Fraction(1), Fraction(2), "a", 4),
                       LayerSpec(Fraction(2), Fraction(3), "b", 4)])
    assert mesh.is_exact
    assert mesh.nodes[1] == Fraction(5, 4)
    steps = mesh.steps.tolist()
    assert all(type(h) is Fraction for h in steps)
    assert steps == [Fraction(1, 4)] * 8


@pytest.mark.parametrize("layers", [
    [LayerSpec(1.0 + j, 2.0 + j, f"m{j}", 8) for j in range(3)],
    [LayerSpec(0.1, 0.7, "a", 7), LayerSpec(0.7, 1.3, "b", 9),
     LayerSpec(1.3, 2.9, "c", 13)],
    [LayerSpec(Fraction(1) + Fraction(j, 7), Fraction(1) + Fraction(j + 1, 7),
               f"m{j}", 5 + j) for j in range(4)],
    [LayerSpec(Fraction(1, 3), Fraction(2, 3), "a", 5),
     LayerSpec(Fraction(2, 3), 1.1, "b", 6),
     LayerSpec(1.1, Fraction(17, 10), "c", 7),
     LayerSpec(Fraction(17, 10), 2.3, "d", 4)],
], ids=["uniform", "uneven", "fractions", "mixed"])
def test_build_mesh_matches_node_oracle(layers):
    mesh = build_mesh(layers)
    expected = mesh_nodes_rows(layers)
    assert mesh.nodes.dtype == expected.dtype
    if mesh.is_exact:
        assert mesh.nodes.tolist() == expected.tolist()
        assert all(type(r) is Fraction for r in mesh.nodes.tolist())
    else:
        assert mesh.nodes.tobytes() == expected.tobytes()
    assert mesh.steps.tolist() == (expected[1:] - expected[:-1]).tolist()
    assert mesh.layer_materials == tuple(spec.material_id for spec in layers)


def test_mesh_keeps_its_own_read_only_nodes():
    arr = np.array([1.0 + 0.1 * j for j in range(11)])
    before = arr.tolist()
    mesh = RadialMesh(arr, (5,), ("a", "b"))
    arr[3] = 9.0
    assert mesh.nodes.tolist() == before
    assert mesh.steps.tolist() == np.diff(before).tolist()
    with pytest.raises(ValueError):
        mesh.nodes[1] = 5.0
    with pytest.raises(ValueError):
        mesh.steps[1] = 5.0
