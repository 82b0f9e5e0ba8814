"""Command line front end.

Questions with a yes/no answer always exit 0; negative verdicts are
reported as "infeasible" lines rather than failures.  Exit code 2
covers usage mistakes and malformed documents, 3 covers documents that
parse but violate a diagram invariant, and 4 a failed internal
invariant check (a bug, reported in one line).  A reader that closes
stdout early, as `| head` does, ends the command quietly with exit 1.
Given equal inputs every command writes byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# bicolor and moves are imported by the handlers that use them, so the
# other commands never compile them.
from .rcc import (admissible, apply_rcc, count_classes, incidence_matrix,
                  ineffective_basis, rcc_equivalent, verify_rank_formula)
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


def _emit(args: argparse.Namespace, data: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2))
    else:
        for line in lines:
            print(line)


def _write_diagram(args: argparse.Namespace, d: EmbeddingScheme) -> int:
    text = serialize_diagram(d)
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as err:
            raise DiagramFormatError(
                f"cannot write {args.output}: {err.strerror}") from None
    else:
        print(text)
    return 0


def _matrix_lists(m) -> list[list[int]]:
    return [[(bits >> j) & 1 for j in range(m.cols)] for bits in m.row_bits]


def _cmd_info(args) -> int:
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
    lines = [f"{key.replace('_', ' ')}: {value}" for key, value in data.items()]
    _emit(args, data, lines)
    return 0


def _cmd_verify(args) -> int:
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
    lines = [
        f"incidence rank: {report.incidence_rank}",
        f"regions: {report.region_count}",
        f"components: {report.component_count}",
        f"homology rank: {report.homology_rank}",
        f"predicted rank: {report.predicted_rank}",
        f"equal: {report.holds}",
        f"classes: 2^{data['class_exponent']}",
    ]
    _emit(args, data, lines)
    return 0


def _cmd_matrix(args) -> int:
    d = _load(args.file)
    m = incidence_matrix(d)
    data = {"rows": _matrix_lists(m), "rank": d.shadow.incidence_factor.rank}
    lines = [str(m.row(i)) for i in range(m.rows)] + [f"rank: {data['rank']}"]
    _emit(args, data, lines)
    return 0


def _cmd_homology(args) -> int:
    from .homology import homology_matrix

    d = _load(args.file)
    hm = homology_matrix(d)
    data = {"rows": _matrix_lists(hm.matrix), "rank": hm.rank,
            "h1_dim": hm.matrix.cols}
    lines = [str(hm.matrix.row(i)) for i in range(hm.matrix.rows)]
    lines += [f"rank: {hm.rank}", f"h1 dim: {hm.matrix.cols}"]
    _emit(args, data, lines)
    return 0


def _cmd_admissible(args) -> int:
    from .bicolor import admissible_by_bicoloring

    d = _load(args.file)
    try:
        cert = admissible(d, args.crossings)
        by_colors, _ = admissible_by_bicoloring(d, args.crossings)
    except IndexError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
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
    lines.append(f"bi-coloring cross-check: {verdict} (methods agree)")
    _emit(args, data, lines)
    return 0


def _cmd_ineffective(args) -> int:
    d = _load(args.file)
    basis = ineffective_basis(d)
    data = {"basis": [list(v.support()) for v in basis]}
    lines = [f"basis size: {len(basis)}"]
    lines += ["regions " + " ".join(map(str, v.support())) for v in basis]
    _emit(args, data, lines)
    return 0


def _cmd_bicolor(args) -> int:
    from .bicolor import admissible_by_bicoloring, bicoloring, phi_class

    d = _load(args.file)
    try:
        ok, shown = admissible_by_bicoloring(d, args.crossings)
    except IndexError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not ok:
        shown = bicoloring(d, args.crossings)  # nonzero class, or None
        if shown is not None and admissible(d, args.crossings) is not None:
            raise RuntimeError("matrix and bi-coloring methods disagree")
    if shown is None:
        data = {"admissible": False, "colors": None, "phi_class": None}
        lines = ["infeasible: no bi-coloring for those crossings"]
    else:
        # The witness's class is zero by construction, and already checked.
        bits = 0 if ok else phi_class(d, shown).bits
        data = {
            "admissible": ok,
            "colors": list(shown.colors),
            "phi_class": [(bits >> k) & 1
                          for k in range(d.shadow.homology_context.h1_dim)],
        }
        verdict = "admissible" if ok else "infeasible: every bi-coloring has nonzero class"
        lines = [
            verdict,
            "colors: " + "".join(map(str, shown.colors)),
            "class: " + ("".join(str(b) for b in data["phi_class"]) or "(trivial)"),
        ]
    _emit(args, data, lines)
    return 0


def _cmd_apply(args) -> int:
    d = _load(args.file)
    try:
        result = apply_rcc(d, args.regions)
    except IndexError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return _write_diagram(args, result)


def _cmd_equivalent(args) -> int:
    d1 = _load(args.file)
    d2 = _load(args.other)
    try:
        cert = rcc_equivalent(d1, d2)
    except ValueError:
        data = {"equivalent": False, "same_shadow": False, "regions": None}
        lines = ["infeasible: diagrams have different shadows"]
        _emit(args, data, lines)
        return 0
    if cert is None:
        data = {"equivalent": False, "same_shadow": True, "regions": None}
        lines = ["infeasible: diagrams lie in different classes"]
    else:
        data = {"equivalent": True, "same_shadow": True, "regions": list(cert)}
        lines = ["equivalent: regions " + (" ".join(map(str, cert)) or "(none)")]
    _emit(args, data, lines)
    return 0


def _cmd_move_r2(args) -> int:
    from .moves import R2Spec, reidemeister_two

    d = _load(args.file)
    if len(args.darts) != 2:
        print("error: --darts needs exactly two values", file=sys.stderr)
        return 2
    try:
        result = reidemeister_two(d, R2Spec(args.darts[0], args.darts[1], args.over))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return _write_diagram(args, result)


def _cmd_switch(args) -> int:
    from .moves import switch_crossing

    d = _load(args.file)
    try:
        result = switch_crossing(d, args.crossing)
    except IndexError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return _write_diagram(args, result)


def _cmd_random(args) -> int:
    from .moves import random_diagram

    try:
        d = random_diagram(args.crossings, args.neg_prob, args.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return _write_diagram(args, d)


def _cmd_import_pd(args) -> int:
    doc = _decode_json(_read_text(args.file))
    if isinstance(doc, list):
        code = doc
    elif isinstance(doc, dict) and set(doc) == {"pd"}:
        code = doc["pd"]
    else:
        raise DiagramFormatError(
            "pd document must be a list of crossings or {\"pd\": [...]}")
    return _write_diagram(args, import_pd(code))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regioncc",
        description="Region crossing changes on link diagrams over closed surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *, query=False, writes=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if query:
            p.add_argument("--json", action="store_true",
                           help="emit a JSON object instead of text lines")
        if writes:
            p.add_argument("-o", "--output", default=None,
                           help="write the resulting diagram here ('-' = stdout)")
        return p

    p = add("info", _cmd_info, "surface and diagram summary", query=True)
    p.add_argument("file", help="diagram document ('-' = stdin)")

    p = add("verify", _cmd_verify, "check the incidence rank prediction",
            query=True)
    p.add_argument("file")

    p = add("matrix", _cmd_matrix, "print the incidence matrix", query=True)
    p.add_argument("file")

    p = add("homology", _cmd_homology, "print the component-class matrix",
            query=True)
    p.add_argument("file")

    p = add("admissible", _cmd_admissible,
            "can a region set switch exactly these crossings?", query=True)
    p.add_argument("file")
    p.add_argument("-c", "--crossings", type=_int_list, default=[],
                   help="crossing indices, e.g. '0,2,5'")

    p = add("ineffective", _cmd_ineffective,
            "basis of region sets that switch nothing", query=True)
    p.add_argument("file")

    p = add("bicolor", _cmd_bicolor,
            "admissibility via edge bi-colorings", query=True)
    p.add_argument("file")
    p.add_argument("-c", "--crossings", type=_int_list, default=[])

    p = add("apply", _cmd_apply, "switch the given regions", writes=True)
    p.add_argument("file")
    p.add_argument("-r", "--regions", type=_int_list, required=True)

    p = add("equivalent", _cmd_equivalent,
            "are two diagrams related by region switches?", query=True)
    p.add_argument("file")
    p.add_argument("other")

    p = add("move-r2", _cmd_move_r2, "poke one strand across another",
            writes=True)
    p.add_argument("file")
    p.add_argument("-d", "--darts", type=_int_list, required=True,
                   help="the two darts naming the poked edge sides, e.g. '0,5'")
    p.add_argument("--over", choices=("a", "b"), default="a",
                   help="which strand ends on top")

    p = add("switch", _cmd_switch, "classical crossing switch", writes=True)
    p.add_argument("file")
    p.add_argument("-i", "--crossing", type=int, required=True)

    p = add("random", _cmd_random, "generate a seeded random diagram",
            writes=True)
    p.add_argument("-n", "--crossings", type=int, required=True)
    p.add_argument("--neg-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)

    p = add("import-pd", _cmd_import_pd,
            "convert a planar-diagram code to a diagram document", writes=True)
    p.add_argument("file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except DiagramFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InvalidDiagramError as err:
        print(f"invalid diagram: {err}", file=sys.stderr)
        return 3
    except RuntimeError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # Point stdout at /dev/null so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
