"""plexmesh: layered-DAG mesh topology, Gmsh I/O, distribution and renumbering."""

from .distribute import (Halo, MigrationReport, RankLocalMesh, StarForest,
                         build_halo, close_partition, gather_to_root, migrate)
from .gmsh_io import (GmshParseError, MeshBundle, RawMesh, bundle_to_raw,
                      raw_to_bundle, read_gmsh, read_gmsh_file, write_gmsh,
                      write_gmsh_file)
from .meshgen import interval_mesh, tet_box, triangle_grid
from .partition import (DualGraph, PartitionMap, PartitionStats,
                        build_dual_graph, cell_centroids, partition_cells,
                        partition_stats)
from .permutation import Permutation
from .plex import Label, Plex, PointId, build_from_cells
from .renumber import apply_permutation, rcm_ordering
from .section import (Field, Section, permute_field, permute_section,
                      section_from_depth_dofs)
from .sparsity import CsrPattern, bandwidth, p1_pattern, profile, spy_export

__version__ = "0.1.0"

__all__ = [
    "Halo", "MigrationReport", "RankLocalMesh", "StarForest",
    "build_halo", "close_partition", "gather_to_root", "migrate",
    "GmshParseError", "MeshBundle", "RawMesh", "bundle_to_raw",
    "raw_to_bundle", "read_gmsh", "read_gmsh_file", "write_gmsh",
    "write_gmsh_file",
    "interval_mesh", "tet_box", "triangle_grid",
    "DualGraph", "PartitionMap", "PartitionStats",
    "build_dual_graph", "cell_centroids", "partition_cells", "partition_stats",
    "Permutation",
    "Label", "Plex", "PointId", "build_from_cells",
    "apply_permutation", "rcm_ordering",
    "Field", "Section", "permute_field", "permute_section",
    "section_from_depth_dofs",
    "CsrPattern", "bandwidth", "p1_pattern", "profile", "spy_export",
    "__version__",
]
