"""Command-line surface.

Exit status: 0 success, 1 usage or parse error, 2 semantic error
(axiom violation, ungenerated arrows, unknown arrow, builder rejection,
an interval result with more digits than sys.get_int_max_str_digits()),
and 0, silently, when the reader closes stdout early (`| head -1`).

--json output is indented by 2 with sorted keys and non-ASCII text kept.
`table --json`, which grows with the square of the arrow count, is
written row by row, one write per arrow f, never as one string.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from json.encoder import encode_basestring
from operator import itemgetter

from . import realline
from .category import FiniteCategory
from .documents import builtin_document, builtin_names, load_category
from .errors import AxiomViolation, CatGeoError, ParseError
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
        # argparse reads "-31/7" or "-1e3" as an option, as it knows only
        # negative integers and decimals; no catgeo option starts with a
        # digit, so a token that starts like a negative number is a
        # positional, and parse_endpoint judges it
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # semantic errors, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _read_file(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not valid UTF-8: %s" % ("stdin" if path == "-" else path, exc)) from None


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


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)


def _emit_json(data) -> None:
    print(_json_text(data))


# The text json.dumps(indent=2, sort_keys=True, ensure_ascii=False) gives
# for one row of `table --json` and for one blade of its anticommutator.
_ROW_JSON = """    {
      "anticommutator": {
        "blades": %s,
        "scalar": %d
      },
      "f": %s,
      "g": %s
    }"""
_BLADE_JSON = """          {
            "area": %d,
            "coefficient": %d,
            "first": %s,
            "second": %s
          }"""
# _ROW_JSON of a zero row (scalar 0, no blades) cut at its two ids: the
# text before the quoted f, between the quoted f and g, and after g
_ZERO_ROW_HEAD, _ZERO_ROW_MIDDLE, _ROW_END = (_ROW_JSON % ("[]", 0, "%s", "%s")).split("%s")


def _blades_json(terms, quoted, norms) -> str:
    if not terms:
        return "[]"
    blades = ",\n".join(
        _BLADE_JSON % (norms[first] * norms[second], c, quoted[first], quoted[second]) for first, second, c in terms
    )
    return "[\n%s\n        ]" % blades


def _write_table_json(rows, norms: dict[str, int]) -> None:
    """Write {"entries": [...]} for anticommutator_table rows to stdout.

    `rows` are grouped by f, and `norms` gives the length of every id in
    them.  The text is byte for byte what _emit_json
    gives for the entry dicts (f, g and _terms_dict of the row), but each
    id is quoted once with the stdlib's C quoter and each integer is
    formatted with %d, instead of running the pure-Python indenting
    encoder over a dict per row.  A zero row (scalar 0, no blades), most
    rows of a sparse category, is one concatenation: the row text up to
    the quoted g, built once per f, and the quoted g with the row's end,
    built once per id.  The rows of each f are written together, so the
    document is never one string.
    """
    write = sys.stdout.write
    if not rows:
        write('{\n  "entries": []\n}\n')
        return
    quoted = {v: encode_basestring(v) for v in norms}
    tails = {v: q + _ROW_END for v, q in quoted.items()}
    write('{\n  "entries": [\n')
    separator = ""
    for f, group in itertools.groupby(rows, key=itemgetter(0)):
        quoted_f = quoted[f]
        zero = _ZERO_ROW_HEAD + quoted_f + _ZERO_ROW_MIDDLE
        chunk = ",\n".join(
            [
                zero + tails[g]
                if not (scalar or terms)
                else _ROW_JSON % (_blades_json(terms, quoted, norms), scalar, quoted_f, quoted[g])
                for _, g, scalar, terms in group
            ]
        )
        write(separator + chunk)
        separator = ",\n"
    write("\n  ]\n}\n")


def cmd_validate(args) -> int:
    # loading validates an explicit table, once, and refuses a broken one
    # with every violation; a thin or free category composes by rule, so it
    # satisfies the axioms by construction and is not checked
    violations = []
    try:
        _load(args.file)
    except AxiomViolation as exc:
        violations = exc.violations
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
        _write_table_json(rows, norms)
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
        for arrow_id, line in embedding.arcs.items():
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


def _interval(lo: str, hi: str) -> realline.IntervalArrow:
    """The interval of two endpoint literals, each a value that prints back."""
    ends = []
    for text in (lo, hi):
        value = realline.parse_endpoint(text)
        try:
            realline.format_endpoint(value)
        except ValueError:  # str() refuses an integer beyond sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ParseError("bad endpoint literal %r: more than %d digits" % (text, limit)) from None
        ends.append(value)
    return realline.interval(*ends)


def _interval_text(command, result, as_json) -> str:
    """What `interval <command>` prints for its result: the norm, the sum,
    or the products of both orders."""
    endpoint = realline.format_endpoint
    if command == "norm":
        return _json_text({"norm": endpoint(result)}) if as_json else endpoint(result)
    if command == "add":
        return _json_text({"lo": endpoint(result.lo), "hi": endpoint(result.hi)}) if as_json else repr(result)
    (inner_fg, outer_fg, geom_fg), (inner_gf, _, geom_gf) = result
    anticommutator_fg = geom_fg + geom_gf
    if as_json:
        return _json_text(
            {
                "inner_fg": endpoint(inner_fg),
                "inner_gf": endpoint(inner_gf),
                "outer_fg": _multivector_dict(outer_fg),
                "geometric_fg": _multivector_dict(geom_fg),
                "anticommutator": _multivector_dict(anticommutator_fg),
            }
        )
    return "\n".join(
        (
            "inner fg = %s" % endpoint(inner_fg),
            "inner gf = %s" % endpoint(inner_gf),
            "outer: %r" % outer_fg,
            "geometric fg: %r" % geom_fg,
            "anticommutator: %r" % anticommutator_fg,
        )
    )


def cmd_interval(args) -> int:
    ends = args.args
    expected = 2 if args.interval_command == "norm" else 4
    if len(ends) != expected:
        print("catgeo: interval %s takes %d endpoint arguments" % (args.interval_command, expected), file=sys.stderr)
        return USAGE_EXIT
    if args.interval_command == "norm":
        result = realline.interval_norm(_interval(ends[0], ends[1]))
    else:
        f, g = _interval(ends[0], ends[1]), _interval(ends[2], ends[3])
        if args.interval_command == "add":
            result = realline.interval_add(f, g)
        else:
            result = realline.interval_products(f, g), realline.interval_products(g, f)
    try:
        text = _interval_text(args.interval_command, result, args.json)
    except ValueError:  # str() refuses an integer beyond sys.get_int_max_str_digits()
        raise CatGeoError(
            "result has more than %d digits, the limit sys.get_int_max_str_digits() sets on printing a number"
            % sys.get_int_max_str_digits()
        ) from None
    print(text)
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
    try:
        return args.handler(args)
    except ParseError as exc:
        print("catgeo: parse error: %s" % exc, file=sys.stderr)
        return USAGE_EXIT
    except (CatGeoError, ValueError) as exc:
        print("catgeo: error: %s" % exc, file=sys.stderr)
        return SEMANTIC_EXIT
    except BrokenPipeError:  # fd 1 goes to devnull, so the flush at exit cannot fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print("catgeo: %s" % exc, file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
