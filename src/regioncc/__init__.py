"""Region crossing changes on link diagrams over closed surfaces."""

from .gf2 import (BitMatrix, BitVector, in_rowspace, nullspace_basis, rank,
                  solve)
from .scheme import (Component, CoverScheme, DiagramFormatError, Edge,
                     EmbeddingScheme, FaceStructure, InvalidDiagramError,
                     Region, Shadow, SurfaceInfo, components, faces,
                     import_pd, orientation_double_cover, parse_diagram,
                     serialize_diagram, surface_info, validate)
from .homology import (HomologyContext, HomologyMatrix, class_of,
                       homology_context, homology_matrix)
from .rcc import (RankReport, admissible, apply_rcc, checkerboard,
                  count_classes, incidence_matrix, ineffective_basis,
                  rcc_equivalent, verify_rank_formula)
from .bicolor import (Bicoloring, admissible_by_bicoloring, bicoloring,
                      phi_class)
from .moves import (R2Spec, poke_sites, random_diagram, reidemeister_two,
                    switch_crossing)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix", "BitVector", "rank", "solve", "nullspace_basis",
    "in_rowspace",
    "Edge", "Shadow", "EmbeddingScheme", "CoverScheme", "FaceStructure",
    "Region", "SurfaceInfo", "Component", "DiagramFormatError",
    "InvalidDiagramError",
    "validate", "orientation_double_cover", "faces", "surface_info",
    "components", "import_pd", "parse_diagram", "serialize_diagram",
    "HomologyContext", "HomologyMatrix", "homology_context", "class_of",
    "homology_matrix",
    "RankReport", "incidence_matrix", "verify_rank_formula",
    "count_classes", "admissible",
    "ineffective_basis", "apply_rcc", "rcc_equivalent", "checkerboard",
    "Bicoloring", "bicoloring", "phi_class", "admissible_by_bicoloring",
    "R2Spec", "reidemeister_two", "poke_sites", "switch_crossing",
    "random_diagram",
    "__version__",
]
