"""Command-line surface.

Exit status: 0 success, 1 usage or parse error, 2 semantic error
(axiom violation, ungenerated arrows, unknown arrow, builder rejection).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import realline
from .category import FiniteCategory, validate_axioms
from .documents import build_document, builtin_document, builtin_names, load_category, parse_document
from .errors import CatGeoError, ParseError
from .geometry import (
    Multivector,
    anticommutator,
    anticommutator_table,
    clifford_report,
    format_terms,
    geometric,
    inner,
    is_orthogonal,
    is_parallel,
    outer,
)
from .render import embedding_to_json, export_dot, export_embedding
from .vectors import atomic_basis, compute_norms

USAGE_EXIT = 1
SEMANTIC_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-31/7" as an option, as it knows only negative
        # integers and decimals; negative fraction endpoints are positionals too
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # semantic errors, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load(path: str) -> FiniteCategory:
    return load_category(_read_file(path))


def _terms_dict(scalar, terms, norms: dict[str, int] | None = None) -> dict:
    blades = []
    for first, second, coefficient in terms:
        entry = {"first": str(first), "second": str(second), "coefficient": coefficient}
        if norms is not None:
            entry["area"] = norms[first] * norms[second]
        blades.append(entry)
    if not isinstance(scalar, int):
        scalar = str(scalar)
    return {"scalar": scalar, "blades": blades}


def _multivector_dict(mv: Multivector, norms: dict[str, int] | None = None) -> dict:
    return _terms_dict(mv.scalar, mv.terms(), norms)


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False))


def cmd_validate(args) -> int:
    # build without load_category's own check of explicit tables, so that
    # every document is validated exactly once, here
    category = build_document(parse_document(_read_file(args.file)))
    violations = validate_axioms(category)
    if args.json:
        _emit_json({"violations": [{"kind": v.kind, "detail": v.detail} for v in violations]})
    else:
        for v in violations:
            print(v)
        print("violations: %d" % len(violations))
    return 0 if not violations else SEMANTIC_EXIT


def cmd_basis(args) -> int:
    category = _load(args.file)
    basis = atomic_basis(category)
    if args.json:
        _emit_json({"basis": list(basis)})
    else:
        for member in basis:
            print(member)
    return 0


def cmd_norms(args) -> int:
    category = _load(args.file)
    norms = compute_norms(category, atomic_basis(category))
    if args.json:
        _emit_json({"norms": norms, "zero": 0})
    else:
        for arrow_id, length in norms.items():
            print("%s = %d" % (arrow_id, length))
    return 0


def cmd_product(args) -> int:
    category = _load(args.file)
    norms = compute_norms(category, atomic_basis(category))
    f, g = args.f, args.g
    outer_fg = outer(category, norms, f, g)
    geometric_fg = geometric(category, norms, f, g)
    geometric_gf = geometric(category, norms, g, f)
    anticommutator_fg = anticommutator(category, norms, f, g)
    data = {
        "inner_fg": inner(category, norms, f, g),
        "inner_gf": inner(category, norms, g, f),
        "orthogonal": is_orthogonal(category, norms, f, g),
        "parallel": is_parallel(category, f, g),
        "outer_fg": _multivector_dict(outer_fg, norms),
        "geometric_fg": _multivector_dict(geometric_fg, norms),
        "geometric_gf": _multivector_dict(geometric_gf, norms),
        "anticommutator": _multivector_dict(anticommutator_fg, norms),
    }
    if args.json:
        _emit_json(data)
    else:
        print("inner %s.%s = %s" % (f, g, data["inner_fg"]))
        print("inner %s.%s = %s" % (g, f, data["inner_gf"]))
        print("orthogonal: %s" % str(data["orthogonal"]).lower())
        print("parallel: %s" % str(data["parallel"]).lower())
        print("outer: %r" % outer_fg)
        print("geometric %s%s: %r" % (f, g, geometric_fg))
        print("geometric %s%s: %r" % (g, f, geometric_gf))
        print("anticommutator: %r" % anticommutator_fg)
    return 0


def cmd_table(args) -> int:
    category = _load(args.file)
    norms = compute_norms(category, atomic_basis(category))
    rows = anticommutator_table(category, norms)
    if args.json:
        entries = [
            {"f": f, "g": g, "anticommutator": _terms_dict(scalar, terms, norms)}
            for f, g, scalar, terms in rows
        ]
        _emit_json({"entries": entries})
    else:
        for f, g, scalar, terms in rows:
            print("%s %s: %s" % (f, g, format_terms(scalar, terms)))
    return 0


def cmd_clifford(args) -> int:
    category = _load(args.file)
    basis = atomic_basis(category)
    norms = compute_norms(category, basis)
    report = clifford_report(category, norms, basis)
    if args.json:
        _emit_json(
            {
                "holds": report.holds,
                "unit_square_failures": [{"basis_vector": e, "square": _multivector_dict(mv, norms)} for e, mv in report.unit_square_failures],
                "anticommutation_failures": [{"f": f, "g": g} for f, g in report.anticommutation_failures],
            }
        )
    else:
        print("basis squares to 1: %s" % ("yes" if not report.unit_square_failures else "NO"))
        for e, mv in report.unit_square_failures:
            print("  %s^2 = %r" % (e, mv))
        print("orthogonal pairs anticommute: %s" % ("yes" if not report.anticommutation_failures else "NO"))
        for f, g in report.anticommutation_failures:
            print("  counterexample: %s, %s" % (f, g))
    return 0 if report.holds else SEMANTIC_EXIT


def cmd_embed(args) -> int:
    category = _load(args.file)
    embedding = export_embedding(category)
    if args.json:
        print(embedding_to_json(embedding))
    else:
        for obj in category.objects:
            x, y, z = embedding.points[obj]
            print("point %s: (%.4f, %.4f, %.1f)" % (obj, x, y, z))
        for arrow_id in sorted(embedding.arcs):
            line = embedding.arcs[arrow_id]
            print("arc %s: %d samples, peak |z| = %.4f" % (arrow_id, len(line), max(abs(p[2]) for p in line)))
    return 0


def cmd_dot(args) -> int:
    category = _load(args.file)
    basis = atomic_basis(category)
    norms = compute_norms(category, basis)
    sys.stdout.write(export_dot(category, basis if args.basis_only else None, norms))
    return 0


def cmd_example(args) -> int:
    text = builtin_document(args.name)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _interval_args(values):
    return realline.interval(values[0], values[1]), realline.interval(values[2], values[3])


def cmd_interval(args) -> int:
    if args.interval_command == "norm":
        f = realline.interval(args.args[0], args.args[1])
        result = realline.interval_norm(f)
        if args.json:
            _emit_json({"norm": realline.format_endpoint(result)})
        else:
            print(realline.format_endpoint(result))
        return 0
    if args.interval_command == "add":
        f, g = _interval_args(args.args)
        result = realline.interval_add(f, g)
        if args.json:
            _emit_json({"lo": realline.format_endpoint(result.lo), "hi": realline.format_endpoint(result.hi)})
        else:
            print("%r" % result)
        return 0
    f, g = _interval_args(args.args)
    inner_fg, outer_fg, geom_fg = realline.interval_products(f, g)
    inner_gf, _, geom_gf = realline.interval_products(g, f)
    if args.json:
        _emit_json(
            {
                "inner_fg": realline.format_endpoint(inner_fg),
                "inner_gf": realline.format_endpoint(inner_gf),
                "outer_fg": _multivector_dict(outer_fg),
                "geometric_fg": _multivector_dict(geom_fg),
                "anticommutator": _multivector_dict(geom_fg + geom_gf),
            }
        )
    else:
        print("inner fg = %s" % realline.format_endpoint(inner_fg))
        print("inner gf = %s" % realline.format_endpoint(inner_gf))
        print("outer: %r" % outer_fg)
        print("geometric fg: %r" % geom_fg)
        print("anticommutator: %r" % (geom_fg + geom_gf))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", nargs="?", default="-", help="category document (default: stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    file_command("validate", cmd_validate, "axiom report for a category document")
    file_command("basis", cmd_basis, "atomic basis of the arrow vector space")
    file_command("norms", cmd_norms, "minimal factorization lengths of all arrows")
    file_command("table", cmd_table, "full pairwise anticommutator matrix")
    file_command("clifford", cmd_clifford, "Clifford condition report")
    file_command("embed", cmd_embed, "3-D layout of objects and arrow arcs")

    p = sub.add_parser("dot", help="DOT graph export")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--basis-only", action="store_true", help="restrict edges to the atomic basis")
    p.set_defaults(handler=cmd_dot)

    p = sub.add_parser("product", help="inner/outer/geometric products of two arrows")
    p.add_argument("file")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("example", help="emit a built-in document (%s)" % ", ".join(builtin_names()))
    p.add_argument("name")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=cmd_example)

    p = sub.add_parser("interval", help="real-line backend with exact rational endpoints")
    p.add_argument("interval_command", choices=["norm", "add", "product"])
    p.add_argument("args", nargs="+", help="endpoint literals, decimal or fraction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_interval)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the nine subparsers costs far more than a parse, so one
    # parser serves every main call in a process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "interval":
        expected = 2 if args.interval_command == "norm" else 4
        if len(args.args) != expected:
            print("catgeo: interval %s takes %d endpoint arguments" % (args.interval_command, expected), file=sys.stderr)
            return USAGE_EXIT
    try:
        return args.handler(args)
    except ParseError as exc:
        print("catgeo: parse error: %s" % exc, file=sys.stderr)
        return USAGE_EXIT
    except (CatGeoError, ValueError) as exc:
        print("catgeo: error: %s" % exc, file=sys.stderr)
        return SEMANTIC_EXIT
    except OSError as exc:
        print("catgeo: %s" % exc, file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
