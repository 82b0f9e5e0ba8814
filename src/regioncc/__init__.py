"""Region crossing changes on link diagrams over closed surfaces.

The package namespace is lazy (PEP 562): ``import regioncc`` loads no
submodule, and each exported name is imported from its module on first
use, then kept here.  Each command line run then compiles only the
modules it needs.

``_EXPORTS`` is the one list of exported names, by module: each library
module's ``__all__`` is its entry, read from here.  The package is
always imported before its submodules, and ``__getattr__`` reads the
list without importing any of them, so the list lives here.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "gf2": ("BitVector", "BitMatrix"),
    "scheme": ("DiagramFormatError", "InvalidDiagramError", "Edge", "Shadow",
               "EmbeddingScheme", "Region", "FaceStructure",
               "SurfaceInfo", "Component", "validate",
               "orientation_double_cover", "faces", "surface_info",
               "components", "import_pd", "parse_diagram",
               "serialize_diagram"),
    "homology": ("HomologyContext", "HomologyMatrix", "homology_context",
                 "class_of", "homology_matrix"),
    "rcc": ("incidence_matrix", "RankReport", "verify_rank_formula",
            "count_classes", "admissible", "ineffective_basis", "apply_rcc",
            "rcc_equivalent", "checkerboard"),
    "bicolor": ("Bicoloring", "bicoloring", "phi_class",
                "admissible_by_bicoloring"),
    "moves": ("R2Spec", "reidemeister_two", "poke_sites", "switch_crossing",
              "random_diagram"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """An exported name or library submodule, imported on first use."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
