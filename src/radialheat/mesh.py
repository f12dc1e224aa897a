"""Uneven radial meshes for multilayer cylinders.

The mesh places a node on every layer interface.  Interface nodes ("contact
nodes") carry a five-point flux-continuity stencil, the two outermost nodes
carry three-point one-sided Neumann stencils, and every other node carries the
three-point conduction stencil.  All of those stencils read their geometry
off the node array and the steps derived from it once, at construction, so
the nodes are the single source of truth.

Meshes are value objects holding read-only copies of their arrays, so they
are immutable after construction and safe to share between threads.  A
material belongs to a layer: the mesh stores one material id per layer.

Exact meshes: if every radius in the layer specification is an int or a
Fraction (no floats anywhere), the node array is built in exact rational
arithmetic and downstream assembly can run entirely over Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

#: Fewest cells a single layer may contain.  Four cells keep the five-point
#: contact stencils and their eliminator rows clear of each other and of the
#: boundary stencils.
MIN_CELLS_PER_LAYER = 4

#: Smallest allowed index distance between two contact nodes (>= 3 interior
#: nodes strictly between them).
MIN_CONTACT_SEPARATION = 4


class MeshStructureError(ValueError):
    """Layer list is not a contiguous partition of the radial domain."""


class MeshDomainError(ValueError):
    """Domain violates r_min > 0 (the radial operator divides by r)."""


class MeshSpacingError(ValueError):
    """Contact nodes sit too close together for the interface stencils."""


def _is_float(value) -> bool:
    return isinstance(value, (float, np.floating))


def _as_exact(value):
    """Coerce ints to Fraction so later divisions stay exact."""
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    return value


@dataclass(frozen=True)
class LayerSpec:
    """One radial layer: [r_start, r_end] subdivided into `cells` equal cells.

    Consecutive layers of a mesh must share their boundary radius exactly.
    """

    r_start: float | Fraction
    r_end: float | Fraction
    material_id: str
    cells: int

    def __post_init__(self):
        if not isinstance(self.cells, (int, np.integer)) or self.cells < 1:
            raise ValueError(f"cells must be a positive integer, got {self.cells!r}")
        if not self.r_start < self.r_end:
            raise MeshStructureError(
                f"layer {self.material_id!r}: need r_start < r_end, "
                f"got [{self.r_start}, {self.r_end}]"
            )


@dataclass(frozen=True, eq=False)
class RadialMesh:
    """Radial node set with interface bookkeeping.

    nodes            strictly increasing radii r_0..r_{N-1}; dtype float64 or
                     object (Fractions) for exact meshes; a read-only copy
    contact_indices  sorted interior node indices lying on layer interfaces
    layer_materials  material id of each layer, innermost first; length K+1
    steps            steps[j] = nodes[j+1] - nodes[j]; derived from nodes at
                     construction so it can never drift; read-only
    """

    nodes: np.ndarray
    contact_indices: tuple[int, ...]
    layer_materials: tuple[str, ...]
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.array(self.nodes)
        n = nodes.shape[0]
        if n < 3:
            raise MeshStructureError(f"need at least 3 nodes, got {n}")
        if not nodes[0] > 0:
            raise MeshDomainError(f"r_min must be positive, got {nodes[0]}")
        steps = nodes[1:] - nodes[:-1]
        # comparisons on object arrays give object arrays; NaN fails > 0
        if not np.all(np.asarray(steps > 0, dtype=bool)):
            raise MeshStructureError("nodes must be strictly increasing")
        nodes.flags.writeable = False
        steps.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "steps", steps)

        contacts = tuple(int(i) for i in self.contact_indices)
        object.__setattr__(self, "contact_indices", contacts)
        if list(contacts) != sorted(set(contacts)):
            raise MeshStructureError("contact indices must be sorted and unique")
        for i_star in contacts:
            if not 2 <= i_star <= n - 3:
                raise MeshSpacingError(
                    f"contact index {i_star} too close to the boundary "
                    f"(need 2 <= i* <= {n - 3})"
                )
        for a, b in zip(contacts, contacts[1:]):
            if b - a < MIN_CONTACT_SEPARATION:
                raise MeshSpacingError(
                    f"contact indices {a} and {b} closer than "
                    f"{MIN_CONTACT_SEPARATION}: interface stencils overlap"
                )

        mats = tuple(self.layer_materials)
        object.__setattr__(self, "layer_materials", mats)
        if len(mats) != len(contacts) + 1:
            raise MeshStructureError(f"layer_materials has length {len(mats)}, "
                                     f"expected {len(contacts) + 1}, one per layer")

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes N."""
        return self.nodes.shape[0]

    @property
    def k(self) -> int:
        """Number of contact (interface) nodes."""
        return len(self.contact_indices)

    @property
    def r_min(self):
        return self.nodes[0]

    @property
    def is_exact(self) -> bool:
        """True when nodes are stored as exact rationals."""
        return self.nodes.dtype == object

    @classmethod
    def from_nodes(cls, nodes, contact_indices, layer_materials) -> "RadialMesh":
        """Build a mesh directly from a node list (graded meshes allowed);
        layer_materials holds one id per layer, innermost first."""
        seq = list(nodes)
        if any(_is_float(x) for x in seq):
            arr = np.asarray(seq, dtype=np.float64)
        else:
            arr = np.array([_as_exact(x) for x in seq], dtype=object)
        return cls(arr, tuple(contact_indices), tuple(layer_materials))


def build_mesh(layers: Sequence[LayerSpec]) -> RadialMesh:
    """Subdivide each layer uniformly and join the pieces into one mesh.

    A layer's nodes are r_start + j*h for j < cells, with
    h = (r_end - r_start) / cells; the next layer's r_start or the last
    r_end closes it, so every interface is a node, recorded as a contact
    index, and each layer's material_id is its entry of layer_materials.
    Requires contiguous layers, >= MIN_CELLS_PER_LAYER cells per layer and
    at least 7 nodes overall.

    Raises MeshStructureError for non-contiguous layers, MeshDomainError for
    r_min <= 0 and MeshSpacingError when interface stencils would overlap.
    """
    if not layers:
        raise MeshStructureError("need at least one layer")
    for spec in layers:
        if spec.cells < MIN_CELLS_PER_LAYER:
            raise MeshSpacingError(
                f"layer {spec.material_id!r} has {spec.cells} cells; "
                f"need >= {MIN_CELLS_PER_LAYER} to separate the stencils"
            )
    for prev, cur in zip(layers, layers[1:]):
        if prev.r_end != cur.r_start:
            raise MeshStructureError(
                f"layers not contiguous: {prev.material_id!r} ends at "
                f"{prev.r_end}, {cur.material_id!r} starts at {cur.r_start}"
            )
    if not layers[0].r_start > 0:
        raise MeshDomainError(f"r_min must be positive, got {layers[0].r_start}")

    exact = not any(
        _is_float(v) for spec in layers for v in (spec.r_start, spec.r_end)
    )
    n = sum(spec.cells for spec in layers) + 1
    if n < 7:
        raise MeshStructureError(f"need at least 7 nodes, got {n}")

    coerce = _as_exact if exact else (lambda v: v)
    pieces = []
    for spec in layers:
        r0, r1 = coerce(spec.r_start), coerce(spec.r_end)
        h = (r1 - r0) / spec.cells
        # r0 + j * h per node, as IEEE or as Fraction (object) arithmetic
        pieces.append(r0 + np.arange(spec.cells, dtype=object if exact else None) * h)
    pieces.append([coerce(layers[-1].r_end)])
    nodes = np.concatenate(pieces).astype(object if exact else np.float64, copy=False)
    contacts = tuple(accumulate(spec.cells for spec in layers[:-1]))
    return RadialMesh(nodes, contacts, tuple(spec.material_id for spec in layers))
