"""DOT export and the 3-D layout of a category.

The layout places objects at distinct points on a circle in the z = 0
plane and renders each non-identity arrow as a sampled arc whose interior
leaves the plane; parallel arrows get distinct heights.  Layouts are always
flat in the sense that object positions depend only on the object count
and ordering, never on the arrow structure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from .category import FiniteCategory

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
