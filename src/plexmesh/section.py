"""Per-point data layout: dof counts and offsets into a flat value array.

A Section assigns every plex point a dof count; offsets are the exclusive
prefix sum over ascending point id, so data for point p lives at
[offset(p), offset(p) + dof(p)) of any array of length total_size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permutation import Permutation
from .plex import Plex, _csr_rows, _indices, _offsets


class Section:
    """Dof counts and derived offsets over a chart of points.

    Offsets are always recomputed from the counts, never stored independently,
    so they cannot drift out of sync.
    """

    def __init__(self, dofs):
        self.dofs = _indices("dof counts", dofs)
        self.offsets = _offsets(self.dofs)

    @property
    def num_points(self) -> int:
        return self.dofs.size

    @property
    def total_size(self) -> int:
        return int(self.offsets[-1])

    def dof(self, p: int) -> int:
        return int(self.dofs[p])

    def offset(self, p: int) -> int:
        return int(self.offsets[p])

    def point_slice(self, p: int) -> slice:
        return slice(int(self.offsets[p]), int(self.offsets[p + 1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return np.array_equal(self.dofs, other.dofs)

    def __repr__(self) -> str:
        return f"Section(points={self.num_points}, total_size={self.total_size})"


@dataclass
class Field:
    """A named flat array of reals laid out by a Section."""

    name: str
    section: Section
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.section.total_size,):
            raise ValueError(
                f"field '{self.name}': {self.values.size} values for a "
                f"section of total size {self.section.total_size}")

    def at(self, p: int) -> np.ndarray:
        return self.values[self.section.point_slice(p)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.name == other.name and self.section == other.section
                and np.array_equal(self.values, other.values))


def section_from_depth_dofs(plex: Plex, dofs_per_depth) -> Section:
    """Uniform layout per stratum: every point at depth k gets dofs_per_depth[k].

    len(dofs_per_depth) must be plex.dim + 1.
    """
    per_depth = _indices("per-depth dof counts", dofs_per_depth)
    if per_depth.size != plex.dim + 1:
        raise ValueError(
            f"need {plex.dim + 1} per-depth dof counts, got {per_depth.size}")
    return Section(per_depth[plex.depths])


def permute_section(section: Section, perm: Permutation) -> Section:
    """Relocate dof counts to the permuted point ids; offsets recomputed."""
    if len(perm) != section.num_points:
        raise ValueError("permutation size does not match section")
    new_dofs = np.empty_like(section.dofs)
    new_dofs[perm.forward] = section.dofs
    return Section(new_dofs)


def permute_field(fld: Field, perm: Permutation) -> Field:
    """Move per-point value blocks to their permuted positions."""
    section = permute_section(fld.section, perm)  # checks the size first
    # New point n takes the block of old point perm.inverse[n].
    _, values = _csr_rows(fld.section.offsets, fld.values, perm.inverse)
    return Field(fld.name, section, values)
