"""The names the package exports, what importing it loads, and its value classes."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regioncc
from conftest import TREFOIL_PD
from regioncc import (BitMatrix, BitVector, Component, Edge, EmbeddingScheme,
                      FaceStructure, Homology, Region, Shadow, import_pd,
                      orientation_double_cover, serialize_diagram)

EXPORTS = [
    "Bicoloring", "BitMatrix", "BitVector", "Component", "DiagramFormatError",
    "Edge", "EmbeddingScheme", "FaceStructure", "Homology",
    "InvalidDiagramError", "R2Spec", "RankReport", "Region",
    "Shadow", "SurfaceInfo", "__version__",
    "admissible", "admissible_by_bicoloring", "apply_rcc", "bicoloring",
    "checkerboard", "class_of", "components", "count_classes", "faces",
    "homology_context", "homology_matrix", "import_pd", "incidence_matrix",
    "ineffective_basis", "orientation_double_cover", "parse_diagram",
    "phi_class", "poke_sites", "random_diagram", "rcc_equivalent",
    "reidemeister_two", "serialize_diagram", "surface_info",
    "switch_crossing", "validate", "verify_rank_formula",
]

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY = ("gf2", "scheme", "homology", "rcc", "bicolor", "moves")


def test_exports_are_frozen():
    assert sorted(regioncc.__all__) == EXPORTS


def test_exports_are_the_modules_exports():
    names = [name for module in LIBRARY
             for name in getattr(regioncc, module).__all__] + ["__version__"]
    assert regioncc.__all__ == names
    for module in LIBRARY:
        for name in getattr(regioncc, module).__all__:
            assert getattr(regioncc, name) is getattr(getattr(regioncc, module), name)


def fresh(code: str):
    """The value a fresh interpreter (no site) prints, read back by eval."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run([sys.executable, "-S", "-c", code],
                           capture_output=True, encoding="utf-8", env=env, check=True)
    return eval(child.stdout)


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running code."""
    return set(fresh(code + "; import sys; print(sorted(sys.modules))"))


def test_cli_import_loads_no_unused_module():
    loaded = loaded_modules("import regioncc.cli")
    assert "regioncc.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "regioncc.rcc",
                         "regioncc.homology", "regioncc.moves",
                         "regioncc.bicolor"}


def command_modules(argv: list[str]) -> set[str]:
    """The regioncc submodules a fresh interpreter loads to run one command."""
    return set(fresh("import contextlib, io, sys\n"
                     "from regioncc.cli import main\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    assert main({argv!r}) == 0\n"
                     "print(sorted(name for name in sys.modules\n"
                     "             if name.startswith('regioncc.')))"))


@pytest.fixture(scope="module")
def trefoil_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    (root / "trefoil.json").write_text(serialize_diagram(import_pd(TREFOIL_PD)),
                                       encoding="utf-8")
    (root / "trefoil_pd.json").write_text(json.dumps(TREFOIL_PD), encoding="utf-8")
    return str(root / "trefoil.json"), str(root / "trefoil_pd.json")


def test_import_pd_loads_only_the_scheme(trefoil_files):
    assert command_modules(["import-pd", trefoil_files[1]]) == {
        "regioncc.cli", "regioncc.gf2", "regioncc.scheme"}


@pytest.mark.parametrize("argv", [["apply", "-r", "0,2"], ["matrix"],
                                  ["switch", "-i", "1"]])
def test_command_without_homology_skips_it(trefoil_files, argv):
    loaded = command_modules([argv[0], trefoil_files[0], *argv[1:]])
    assert "regioncc.homology" not in loaded


def test_checkerboard_loads_no_homology():
    loaded = loaded_modules("from regioncc import checkerboard, import_pd\n"
                            f"assert checkerboard(import_pd({TREFOIL_PD!r}))")
    assert "regioncc.rcc" in loaded and "regioncc.homology" not in loaded


def test_bicolor_import_loads_no_region_route():
    loaded = loaded_modules("import regioncc.bicolor")
    assert "regioncc.bicolor" in loaded and "regioncc.rcc" not in loaded


def test_homology_import_loads_no_bicoloring():
    loaded = loaded_modules("import regioncc.homology")
    assert "regioncc.homology" in loaded and "regioncc.bicolor" not in loaded


def test_class_of_loads_no_bicoloring():
    # The cycle rule lives in homology, so reading a class needs no bi-coloring code.
    loaded = loaded_modules("from regioncc import class_of, import_pd\n"
                            f"d = import_pd({TREFOIL_PD!r})\n"
                            "assert not class_of(d, range(d.edge_count)).bits")
    assert "regioncc.homology" in loaded and "regioncc.bicolor" not in loaded


def test_moves_import_loads_only_the_scheme():
    loaded = loaded_modules("import regioncc.moves")
    assert {name for name in loaded if name.startswith("regioncc.")} == {
        "regioncc.gf2", "regioncc.moves", "regioncc.scheme"}


@pytest.mark.parametrize("argv", [["switch", "trefoil", "-i", "1"],
                                  ["move-r2", "trefoil", "-d", "0,4"],
                                  ["random", "-n", "3", "--seed", "1"]])
def test_move_commands_load_only_moves_and_the_scheme(trefoil_files, argv):
    argv = [trefoil_files[0] if arg == "trefoil" else arg for arg in argv]
    assert command_modules(argv) == {
        "regioncc.cli", "regioncc.gf2", "regioncc.moves", "regioncc.scheme"}


def test_package_import_loads_no_submodule():
    loaded = loaded_modules("import regioncc")
    assert "regioncc" in loaded
    assert not {name for name in loaded if name.startswith("regioncc.")}


def test_star_import_binds_every_export():
    namespace = {}
    exec("from regioncc import *", namespace)
    assert set(regioncc.__all__) <= set(namespace)


@pytest.mark.parametrize("module", LIBRARY)
def test_module_star_import_binds_its_exports(module):
    # A fresh interpreter imports the module first thing, as a user would.
    bound = fresh("namespace = {}\n"
                  f"exec('from regioncc.{module} import *', namespace)\n"
                  "print(sorted(name for name in namespace if name[0] != '_'))")
    assert bound == sorted(regioncc._EXPORTS[module])


def test_dir_lists_every_export_before_use():
    missing = fresh("import regioncc; "
                    "print(sorted(set(regioncc.__all__) - set(dir(regioncc))))")
    assert missing == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        regioncc.nonesuch


EDGES = (Edge((0, 1), 1), Edge((2, 3), 1))
COVER = (2, 3, 0, 1, 6, 7, 4, 5)
SHADOW_REPR = "Shadow(edges=(Edge(darts=(0, 1), sign=1), Edge(darts=(2, 3), sign=1)))"


class TestValueClasses:
    """Equality, hashing, repr and immutability, as the frozen dataclasses had them."""

    @pytest.mark.parametrize("make, other, text", [
        (lambda: BitVector(3, 5), lambda: BitVector(4, 5),
         "BitVector(length=3, bits=5)"),
        (lambda: BitMatrix(3, [1, 6]), lambda: BitMatrix(3, (1, 7)),
         "BitMatrix(cols=3, row_bits=(1, 6))"),
        (lambda: Shadow(EDGES, True, (0, 0, 1, 1), COVER),
         lambda: Shadow(EDGES[::-1], True, (1, 1, 0, 0), COVER),
         SHADOW_REPR),
        (lambda: EmbeddingScheme((1,), EDGES),
         lambda: EmbeddingScheme((0,), EDGES),
         f"EmbeddingScheme(overs=(1,), shadow={SHADOW_REPR})"),
    ], ids=["BitVector", "BitMatrix", "Shadow", "EmbeddingScheme"])
    def test_equality_hash_and_repr(self, make, other, text):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other() and not a == other()
        assert len({a, b, other()}) == 2
        assert repr(a) == text
        assert a != text and a.__eq__(text) is NotImplemented

    def test_bitvector_default_and_range(self):
        assert BitVector(2) == BitVector(2, 0)
        with pytest.raises(ValueError, match="outside declared length"):
            BitVector(2, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            BitVector(-1)
        for row_bits in ((2,), (0, -1)):
            with pytest.raises(ValueError, match="outside declared width"):
                BitMatrix(1, row_bits)
        with pytest.raises(TypeError):
            BitMatrix(1, (1, None))
        with pytest.raises(ValueError, match="dimensions must be nonnegative"):
            BitMatrix(-1, ())

    def test_exact_ints_only(self):
        # True == 1 and 1.0 == 1, but neither is an int: each field names itself.
        for length, bits, field in ((True, 1, "length"), (2.0, 1, "length"),
                                    (3, True, "bits"), (3, 1.0, "bits")):
            with pytest.raises(TypeError, match=f"vector {field} must be an int"):
                BitVector(length, bits)
        for cols, row_bits, field in ((True, (1,), "cols"), (2.0, (1,), "cols"),
                                      (2, (1.0,), "row_bits"), (2, (1, True), "row_bits")):
            with pytest.raises(TypeError, match=f"matrix {field} must be"):
                BitMatrix(cols, row_bits)

    def test_matrix_keeps_its_rows_as_a_tuple(self):
        rows = [1]
        m = BitMatrix(2, rows)
        rows.append(1 << 9)   # the caller's list is no longer the matrix's
        assert m.row_bits == (1,) and type(m.row_bits) is tuple
        assert m == BitMatrix(2, (1,)) and hash(m) == hash(BitMatrix(2, (1,)))
        assert (m.rows, m.cols) == (1, 2)
        assert BitMatrix._fields == ("cols", "row_bits")
        with pytest.raises(AttributeError):
            m.row_bits.append(1 << 9)

    def test_shadow_equality_ignores_the_derived_fields(self):
        a = Shadow(EDGES, True, (0, 0, 1, 1), COVER)
        b = Shadow(EDGES, False, (), ())
        assert a == b and hash(a) == hash(b)
        assert repr(b) == SHADOW_REPR

    @pytest.mark.parametrize("obj, field", [
        (BitVector(3, 5), "bits"),
        (BitMatrix(3, (1, 6)), "row_bits"),
        (Shadow(EDGES, True, (0, 0, 1, 1), COVER), "orientable"),
        (EmbeddingScheme((1,), EDGES), "overs"),
        (EmbeddingScheme((1,), EDGES), "shadow"),
    ])
    def test_fields_cannot_change(self, obj, field):
        before = getattr(obj, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, field) is before

    def test_shadow_keeps_five_tables(self):
        # The incidence matrix keeps its own elimination: no second table.
        cached = {name for name, value in vars(Shadow).items()
                  if isinstance(value, functools.cached_property)}
        assert cached == {"faces", "components", "homology", "walk_table",
                          "incidence_matrix"}
        assert "incidence_factor" not in vars(Shadow)

    def test_derived_records_keep_only_what_is_read(self):
        assert Region._fields == ("corners", "crossing_count")
        assert Component._fields == ("edges", "crossings")
        assert Homology._fields == ("quotient_pivots", "edge_classes", "matrix")
        assert FaceStructure._fields == ("regions", "face_partner", "plus_face",
                                         "edge_sides")

    def test_face_trace_tables_are_plain(self):
        d = import_pd(TREFOIL_PD)
        cover = orientation_double_cover(d)
        assert type(cover) is tuple and cover is d.shadow.cover
        assert not hasattr(Region, "corner_bits")
        # The dual tree and the index rule are the scheme's;
        # homology only imports them.
        defined = {name for name, value in vars(regioncc.homology).items()
                   if getattr(value, "__module__", None) == "regioncc.homology"}
        assert not defined & {"_index", "_index_list", "_union", "dual_tree"}
        assert {"build_homology", "Homology"} <= defined

    def test_cached_table_survives_on_the_shadow(self):
        d = EmbeddingScheme((1,), EDGES)
        faces = d.shadow.faces
        assert d.shadow.faces is faces
        assert d.with_overs((0,)).shadow.faces is faces
        assert "faces" in vars(d.shadow)
        with pytest.raises(AttributeError):
            d.shadow.faces = None
