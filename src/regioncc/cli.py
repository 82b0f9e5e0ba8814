"""Command line front end.

Questions with a yes/no answer always exit 0; negative verdicts are
reported as "infeasible" lines rather than failures.  Exit code 2
covers usage mistakes, malformed documents, failed writes (help
included) and running out of memory, 3 covers documents that parse but
violate a diagram invariant, and 4 a failed internal invariant check
(a bug, reported in one line).  A reader that closes stdout early, as
`| head` does, ends the command quietly with exit 1.  Given equal
inputs every command writes byte-identical output.

Each command is one row of ``_COMMANDS``; its handler returns an answer
and ``main`` alone writes it and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .gf2 import BitVector, bit_flags
from .scheme import (DiagramFormatError, EmbeddingScheme, InvalidDiagramError,
                     _decode_json, components, faces, import_pd, parse_diagram,
                     serialize_diagram, surface_info)

__all__ = ["main"]


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise DiagramFormatError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise DiagramFormatError(f"cannot read {path}: not UTF-8 ({err.reason})") from None


def _load(path: str) -> EmbeddingScheme:
    return parse_diagram(_read_text(path))


def _int_list(text: str) -> list[int]:
    toks = text.replace(",", " ").split()
    try:
        return [int(tok) for tok in toks]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}")


def _bit_rows(m, args) -> list[list[int]] | None:
    """A BitMatrix's rows as 0/1 lists for a JSON answer; text never reads them."""
    return [list(bit_flags(bits, m.cols)) for bits in m.row_bits] if args.json else None


def _row_texts(m) -> list[str]:
    """Each row of a BitMatrix as its bit text."""
    return [str(BitVector(m.cols, bits)) for bits in m.row_bits]


def _cmd_info(args):
    from .rcc import count_classes, verify_rank_formula
    d = _load(args.file)
    surface = surface_info(d)
    report = verify_rank_formula(d)
    data = {
        "crossings": d.crossing_count,
        "edges": d.edge_count,
        "components": len(components(d)),
        "regions": faces(d).region_count,
        "euler_characteristic": surface.euler_characteristic,
        "orientable": surface.orientable,
        "genus": surface.genus,
        "h1_dim": surface.h1_dim,
        "incidence_rank": report.incidence_rank,
        "homology_rank": report.homology_rank,
        "class_exponent": count_classes(d),
    }
    return data, [f"{key.replace('_', ' ')}: {value}" for key, value in data.items()]


def _cmd_verify(args):
    from .rcc import count_classes, verify_rank_formula
    d = _load(args.file)
    report = verify_rank_formula(d)
    data = {
        "incidence_rank": report.incidence_rank,
        "region_count": report.region_count,
        "component_count": report.component_count,
        "homology_rank": report.homology_rank,
        "predicted_rank": report.predicted_rank,
        "equal": report.holds,
        "class_exponent": count_classes(d),
    }
    return data, [
        f"incidence rank: {report.incidence_rank}",
        f"regions: {report.region_count}",
        f"components: {report.component_count}",
        f"homology rank: {report.homology_rank}",
        f"predicted rank: {report.predicted_rank}",
        f"equal: {report.holds}",
        f"classes: 2^{data['class_exponent']}",
    ]


def _cmd_matrix(args):
    m = _load(args.file).shadow.incidence_matrix
    data = {"rows": _bit_rows(m, args), "rank": m.rank}
    return data, _row_texts(m) + [f"rank: {m.rank}"]


def _cmd_homology(args):
    hom = _load(args.file).shadow.homology
    data = {"rows": _bit_rows(hom.matrix, args), "rank": hom.rank, "h1_dim": hom.h1_dim}
    return data, _row_texts(hom.matrix) + [f"rank: {hom.rank}", f"h1 dim: {hom.h1_dim}"]


def _cmd_admissible(args):
    from .bicolor import admissible_by_bicoloring
    from .rcc import admissible
    d = _load(args.file)
    cert = admissible(d, args.crossings)
    by_colors, _ = admissible_by_bicoloring(d, args.crossings)
    if (cert is not None) != by_colors:
        raise RuntimeError("matrix and bi-coloring methods disagree")
    if cert is None:
        data = {"admissible": False, "regions": None}
        lines = ["infeasible: no region set switches exactly those crossings"]
    else:
        data = {"admissible": True, "regions": list(cert)}
        lines = ["admissible: regions " + (" ".join(map(str, cert)) or "(none)")]
    data["bicoloring_admissible"] = by_colors
    verdict = "admissible" if by_colors else "infeasible"
    return data, lines + [f"bi-coloring cross-check: {verdict} (methods agree)"]


def _cmd_ineffective(args):
    from .rcc import ineffective_basis
    supports = [v.support() for v in ineffective_basis(_load(args.file))]
    lines = [f"basis size: {len(supports)}"]
    lines += ["regions " + " ".join(map(str, regions)) for regions in supports]
    return {"basis": [list(regions) for regions in supports]}, lines


def _cmd_bicolor(args):
    from .bicolor import admissible_by_bicoloring
    from .homology import _class_bits
    from .rcc import admissible
    d = _load(args.file)
    ok, shown = admissible_by_bicoloring(d, args.crossings)
    if not ok and admissible(d, args.crossings) is not None:
        raise RuntimeError("matrix and bi-coloring methods disagree")
    if shown is None:
        data = {"admissible": False, "colors": None, "phi_class": None}
        return data, ["infeasible: no bi-coloring for those crossings"]
    # admissible_by_bicoloring checked the coloring: a cycle, zero for a witness.
    hom = d.shadow.homology
    phi = BitVector(hom.h1_dim, _class_bits(hom.edge_classes, shown.colors))
    data = {"admissible": ok, "colors": list(shown.colors),
            "phi_class": list(bit_flags(phi.bits, phi.length))}
    verdict = "admissible" if ok else "infeasible: every bi-coloring has nonzero class"
    return data, [
        verdict,
        "colors: " + "".join(map(str, shown.colors)),
        "class: " + (str(phi) or "(trivial)"),
    ]


def _cmd_apply(args):
    from .rcc import apply_rcc
    return apply_rcc(_load(args.file), args.regions)


def _cmd_equivalent(args):
    from .rcc import rcc_equivalent
    d1 = _load(args.file)
    d2 = _load(args.other)
    try:
        cert = rcc_equivalent(d1, d2)
    except ValueError:
        return ({"equivalent": False, "same_shadow": False, "regions": None},
                ["infeasible: diagrams have different shadows"])
    if cert is None:
        return ({"equivalent": False, "same_shadow": True, "regions": None},
                ["infeasible: diagrams lie in different classes"])
    return ({"equivalent": True, "same_shadow": True, "regions": list(cert)},
            ["equivalent: regions " + (" ".join(map(str, cert)) or "(none)")])


def _cmd_move_r2(args):
    from .moves import R2Spec, reidemeister_two
    d = _load(args.file)
    if len(args.darts) != 2:
        raise ValueError("--darts needs exactly two values")
    return reidemeister_two(d, R2Spec(args.darts[0], args.darts[1], args.over))


def _cmd_switch(args):
    from .moves import switch_crossing
    return switch_crossing(_load(args.file), args.crossing)


def _cmd_random(args):
    from .moves import random_diagram
    return random_diagram(args.crossings, args.neg_prob, args.seed)


def _cmd_import_pd(args):
    doc = _decode_json(_read_text(args.file))
    if isinstance(doc, list):
        return import_pd(doc)
    if isinstance(doc, dict) and set(doc) == {"pd"}:
        return import_pd(doc["pd"])
    raise DiagramFormatError(
        "pd document must be a list of crossings or {\"pd\": [...]}")


def _arg(*flags, **spec):
    return flags, spec


_FILE = _arg("file")
_JSON = _arg("--json", action="store_true",
             help="emit a JSON object instead of text lines")
_OUTPUT = _arg("-o", "--output", default=None,
               help="write the resulting diagram here ('-' = stdout)")

# name: (handler, help, arguments).  A query handler returns its answer
# as JSON data and as text lines; a writer returns a diagram.
_COMMANDS = {
    "info": (_cmd_info, "surface and diagram summary",
             [_JSON, _arg("file", help="diagram document ('-' = stdin)")]),
    "verify": (_cmd_verify, "check the incidence rank prediction",
               [_JSON, _FILE]),
    "matrix": (_cmd_matrix, "print the incidence matrix", [_JSON, _FILE]),
    "homology": (_cmd_homology, "print the component-class matrix",
                 [_JSON, _FILE]),
    "admissible": (_cmd_admissible,
                   "can a region set switch exactly these crossings?",
                   [_JSON, _FILE,
                    _arg("-c", "--crossings", type=_int_list, default=[],
                         help="crossing indices, e.g. '0,2,5'")]),
    "ineffective": (_cmd_ineffective,
                    "basis of region sets that switch nothing", [_JSON, _FILE]),
    "bicolor": (_cmd_bicolor, "admissibility via edge bi-colorings",
                [_JSON, _FILE,
                 _arg("-c", "--crossings", type=_int_list, default=[])]),
    "apply": (_cmd_apply, "switch the given regions",
              [_OUTPUT, _FILE,
               _arg("-r", "--regions", type=_int_list, required=True)]),
    "equivalent": (_cmd_equivalent,
                   "are two diagrams related by region switches?",
                   [_JSON, _FILE, _arg("other")]),
    "move-r2": (_cmd_move_r2, "poke one strand across another",
                [_OUTPUT, _FILE,
                 _arg("-d", "--darts", type=_int_list, required=True,
                      help="the two darts naming the poked edge sides, e.g. '0,5'"),
                 _arg("--over", choices=("a", "b"), default="a",
                      help="which strand ends on top")]),
    "switch": (_cmd_switch, "classical crossing switch",
               [_OUTPUT, _FILE, _arg("-i", "--crossing", type=int, required=True)]),
    "random": (_cmd_random, "generate a seeded random diagram",
               [_OUTPUT, _arg("-n", "--crossings", type=int, required=True),
                _arg("--neg-prob", type=float, default=0.0),
                _arg("--seed", type=int, default=None)]),
    "import-pd": (_cmd_import_pd,
                  "convert a planar-diagram code to a diagram document",
                  [_OUTPUT, _FILE]),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose help lets a failed write reach ``main``.

    argparse's own help writer drops an OSError, so ``-h`` into a full
    stdout would exit 0 with nothing written.
    """

    def print_help(self, file=None) -> None:
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _parser(command: str | None) -> argparse.ArgumentParser:
    """The full parser, or for a known command only its own subparser,
    which parses the run and reports its errors; the top-level usage
    line lists every command either way."""
    parser = _Parser(
        prog="regioncc",
        description="Region crossing changes on link diagrams over closed surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(_COMMANDS)
    if command in _COMMANDS:
        sub.metavar = "{" + ",".join(names) + "}"
        names = [command]
    for name in names:
        _, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, spec in arguments:
            p.add_argument(*flags, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser(argv[0] if argv else None).parse_args(argv)
        answer = _COMMANDS[args.command][0](args)
        if not isinstance(answer, EmbeddingScheme):
            data, lines = answer
            print(json.dumps(data, indent=2) if args.json else "\n".join(lines))
        elif args.output and args.output != "-":
            try:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(serialize_diagram(answer) + "\n")
            except OSError as err:
                raise DiagramFormatError(
                    f"cannot write {args.output}: {err.strerror}") from None
        else:
            print(serialize_diagram(answer))
        sys.stdout.flush()
        return 0
    except InvalidDiagramError as err:
        print(f"invalid diagram: {err}", file=sys.stderr)
        return 3
    except (IndexError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, TypeError) as err:   # no user input reaches a TypeError
        print(f"internal error: {err}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except OSError as err:
        # stdout failed: point it at /dev/null so the flush at exit
        # cannot fail again.  A reader that closed early ends the run
        # quietly; any other failure is reported.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(err, BrokenPipeError):
            return 1
        print(f"error: cannot write stdout: {err.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
