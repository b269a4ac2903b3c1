"""DOT export, the 3-D layout of a category, and the law survey's writers.

The layout places objects at distinct points on a circle in the z = 0
plane and renders each non-identity arrow as a sampled arc whose interior
leaves the plane; parallel arrows get distinct heights.  Layouts are always
flat in the sense that object positions depend only on the object count
and ordering, never on the arrow structure.

`_write_table` streams the anticommutator table to stdout in either of
`catgeo table`'s modes, and `_multivector_dict` is the record of one
multivector that `--json` output writes (the table's rows copy its shape).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable
from json.encoder import encode_basestring

from .category import FiniteCategory
from .documents import _json_text
from .geometry import Multivector, _near_rows, format_terms

Point = tuple[float, float, float]

#: interior points of each arc; with its two ends an arc has 11 points
ARC_SAMPLES = 9

#: points: object id -> position in the z = 0 plane;
#: arcs: arrow id -> sampled polyline, endpoints in-plane
Embedding = namedtuple("Embedding", "points arcs")


def export_embedding(category: FiniteCategory) -> Embedding:
    """Circle layout plus per-arrow sine arcs with pairwise distinct heights."""
    n = len(category.objects)
    radius = max(1.0, 0.5 * n)
    points: dict[str, Point] = {}
    for i, obj in enumerate(category.objects):
        angle = 2.0 * math.pi * i / n
        points[obj] = (radius * math.cos(angle), radius * math.sin(angle), 0.0)

    arcs: dict[str, list[Point]] = {}
    for k, arrow_id in enumerate(category.vectors):
        arrow = category.arrows[arrow_id]
        x0, y0, _ = points[arrow.dom]
        x1, y1, _ = points[arrow.cod]
        height = 0.25 * (k + 1) * (1 if k % 2 == 0 else -1)
        polyline: list[Point] = [(x0, y0, 0.0)]
        for j in range(1, ARC_SAMPLES + 1):
            t = j / (ARC_SAMPLES + 1)
            z = height * math.sin(math.pi * t)
            polyline.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0), z))
        polyline.append((x1, y1, 0.0))
        arcs[arrow_id] = polyline
    return Embedding(points, arcs)


def export_dot(
    category: FiniteCategory,
    arrows: Iterable[str] | None = None,
    norms: dict[str, int] | None = None,
) -> str:
    """Plain DOT digraph: nodes are objects, edges the given arrow ids, sorted.

    Edges default to `category.vectors`; passing the atomic basis draws
    the normalized view with identities and composites elided.
    Edge labels carry the arrow id and, when norms are given, its length.
    Object ids and labels are written as DOT quoted strings.
    """
    # inside a DOT quoted string, backslash and double quote are escaped
    node = {obj: obj.replace("\\", "\\\\").replace('"', '\\"') for obj in category.objects}
    lines = ["digraph category {"]
    lines += ['  "%s";' % name for name in node.values()]
    for arrow_id in category.vectors if arrows is None else sorted(arrows):
        arrow = category.arrows[arrow_id]
        label = arrow_id.replace("\\", "\\\\").replace('"', '\\"')
        if norms is not None:
            label = "%s (%d)" % (label, norms[arrow_id])
        lines.append('  "%s" -> "%s" [label="%s"];' % (node[arrow.dom], node[arrow.cod], label))
    lines.append("}")
    return "\n".join(lines) + "\n"


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


# Every piece of `table --json` text is cut from what documents._json_text
# writes for a table of one row with one blade, its values placeholders:
# the head, the row from the newline that starts it, and the tail.  A row
# with no blade is that row with its blades' list emptied.
_BLADE = {"area": "%d", "coefficient": "%d", "first": "%s", "second": "%s"}
_TABLE_JSON = _json_text({"entries": [{"anticommutator": {"blades": [_BLADE], "scalar": "%d"}, "f": "%s", "g": "%s"}]})
_ROW_START = _TABLE_JSON.index("[") + 1  # after the entries' [
_ROW_STOP = _TABLE_JSON.rindex("}", 0, _TABLE_JSON.rindex("]")) + 1  # after the row's }
_BLADE_ROW_JSON = _TABLE_JSON[_ROW_START:_ROW_STOP].replace('"%d"', "%d").replace('"%s"', "%s")
_SCALAR_ROW_JSON = _BLADE_ROW_JSON[: _BLADE_ROW_JSON.index("[") + 1] + _BLADE_ROW_JSON[_BLADE_ROW_JSON.index("]") :]


def _text_row(args) -> str:
    *blade, scalar, f, g = args  # a JSON row's arguments: area, coefficient, first, second, or no blade
    return "%s %s: %s\n" % (f, g, format_terms(scalar, ((blade[2], blade[3], blade[1]),) if blade else ()))


# A `table` mode: the text of a table with no row; the head, tail and row
# separator; how an id is written; the formats of a row without and with a blade.
_JSON_MODE = (_json_text({"entries": []}) + "\n", _TABLE_JSON[:_ROW_START], _TABLE_JSON[_ROW_STOP:] + "\n", ",",
              encode_basestring, _SCALAR_ROW_JSON.__mod__, _BLADE_ROW_JSON.__mod__)
_TEXT_MODE = ("", "", "", "", str, _text_row, _text_row)


def _write_table(category: FiniteCategory, norms: dict[str, int], as_json: bool) -> None:
    """Write the rows of anticommutator_table to stdout, as `table --json` when as_json.

    _JSON_MODE writes what _json_text gives for {"entries": [...]} of the
    entry dicts (f, g and _terms_dict of the row); _TEXT_MODE writes a line
    "f g: " and format_terms of its terms per row.  Ids are written once, so
    no text holding one is formatted again.  A near row of `_near_rows` is
    one call of a row format; the zero row, the format of scalar 0 cut at
    its two ids, is joined once per run of zero rows between them.  The rows
    of each f are one write, so the table is never one string.
    """
    empty, head, tail, separator, quote, scalar_row, blade_row = _JSON_MODE if as_json else _TEXT_MODE
    vectors = category.vectors
    write = sys.stdout.write
    if not vectors:
        write(empty)
        return
    quoted = {v: quote(v) for v in vectors}
    zero_head, zero_middle, zero_end = scalar_row((0, "%s", "%s")).split("%s")
    tails = [quoted[v] + zero_end for v in vectors]
    write(head)
    between = ""
    for f, near in _near_rows(category, norms):
        quoted_f = quoted[f]
        zero = zero_head + quoted_f + zero_middle
        run = (separator + zero).join
        chunk = []
        start = 0
        for j, g, scalar, blade, c in near:
            if start < j:
                chunk.append(zero + run(tails[start:j]))
            if blade is None:
                chunk.append(scalar_row((scalar, quoted_f, quoted[g])))
            else:
                first, second = blade
                area = norms[first] * norms[second]
                chunk.append(blade_row((area, c, quoted[first], quoted[second], scalar, quoted_f, quoted[g])))
            start = j + 1
        if start < len(tails):
            chunk.append(zero + run(tails[start:]))
        write(between + separator.join(chunk))
        between = separator
    write(tail)
