"""The names the package exports."""

import regioncc

EXPORTS = [
    "Bicoloring", "BitMatrix", "BitVector", "Component", "CoverScheme",
    "DiagramFormatError", "Edge", "EmbeddingScheme", "FaceStructure",
    "HomologyContext", "HomologyMatrix", "InvalidDiagramError", "R2Spec",
    "RankReport", "Region", "Shadow", "SurfaceInfo", "__version__",
    "admissible", "admissible_by_bicoloring", "apply_rcc", "bicoloring",
    "checkerboard", "class_of", "components", "count_classes", "faces",
    "homology_context", "homology_matrix", "import_pd", "in_rowspace",
    "incidence_matrix", "ineffective_basis", "nullspace_basis",
    "orientation_double_cover", "parse_diagram", "phi_class", "poke_sites",
    "random_diagram", "rank", "rcc_equivalent", "reidemeister_two",
    "serialize_diagram", "solve", "surface_info", "switch_crossing",
    "validate", "verify_rank_formula",
]


def test_exports_are_frozen():
    assert sorted(regioncc.__all__) == EXPORTS
