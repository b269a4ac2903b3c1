"""Finite categories: representation, builders, and axiom validation.

A category is stored as objects, arrows (identities included) and a total
composition table over composable ordered pairs.  The table maps the pair
(f, g) with cod(f) = dom(g) to the composite g∘f, i.e. "f first, then g".
Arrow equality is id equality; the table is the sole source of composite
identification.

Each category also keeps one index, built once when it is made:
`out_arrows` maps every object to the tuple of arrows leaving it,
identities included, in arrow order.  The arrows g composable after f are
exactly `out_arrows[f.cod]`, so the passes over a whole category (axiom
validation, the builders, the norm search) enumerate composable pairs and
triples through it instead of scanning every arrow against every arrow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import CatGeoError, CyclicGraph, NontrivialCycle, NotComposable, ParseError, UnknownArrow

IDENTITY_PREFIX = "id:"

#: separator used in the ids of composite path arrows of free categories
PATH_SEP = "∘"  # "∘"

#: most path arrows build_free enumerates; a larger free category is refused,
#: since its composition table grows with the square of the path count
MAX_FREE_PATHS = 20_000


@dataclass(frozen=True)
class Arrow:
    id: str
    dom: str
    cod: str
    is_identity: bool = False


@dataclass(frozen=True)
class Violation:
    kind: str  # one of: totality, closure, dom-cod, associativity, unit
    detail: str

    def __str__(self):
        return "%s: %s" % (self.kind, self.detail)


class FiniteCategory:
    """Immutable finite category with a total composition table."""

    def __init__(
        self,
        objects: Sequence[str],
        arrows: Iterable[Arrow],
        table: Mapping[tuple[str, str], str],
        mode: str,
    ):
        self.objects = tuple(objects)
        self.arrows = {a.id: a for a in arrows}
        self.table = dict(table)
        self.mode = mode
        out: dict[str, list[Arrow]] = {o: [] for o in self.objects}
        for a in self.arrows.values():
            out.setdefault(a.dom, []).append(a)
        self.out_arrows: dict[str, tuple[Arrow, ...]] = {o: tuple(leaving) for o, leaving in out.items()}

    def identity(self, obj: str) -> str:
        return IDENTITY_PREFIX + obj

    def non_identity_arrows(self) -> list[str]:
        """Non-identity arrow ids in the canonical (lexicographic) order."""
        return sorted(a.id for a in self.arrows.values() if not a.is_identity)

    def __repr__(self):
        return "FiniteCategory(mode=%r, objects=%d, arrows=%d)" % (
            self.mode,
            len(self.objects),
            len(self.arrows),
        )


def compose(category: FiniteCategory, f: str, g: str) -> str:
    """Return g∘f, the composite of f followed by g.

    Raises NotComposable when cod(f) != dom(g).
    """
    a, b = category.arrows.get(f), category.arrows.get(g)
    if a is None or b is None:
        raise UnknownArrow("no arrow %r in category" % (f if a is None else g))
    if a.cod != b.dom:
        raise NotComposable("cod(%s) = %s but dom(%s) = %s" % (f, a.cod, g, b.dom))
    return category.table[(f, g)]


def _check_presentation(objects, generators):
    if len(set(objects)) != len(objects):
        raise ParseError("duplicate object ids")
    for obj in objects:
        if not obj or obj.startswith(IDENTITY_PREFIX):
            raise ParseError("bad object id %r" % obj)
    obj_set = set(objects)
    seen = set()
    for gid, dom, cod in generators:
        if not gid or gid.startswith(IDENTITY_PREFIX):
            raise ParseError("bad generator id %r" % gid)
        if gid in seen:
            raise ParseError("duplicate generator id %r" % gid)
        seen.add(gid)
        if dom not in obj_set or cod not in obj_set:
            raise ParseError("generator %r has undeclared endpoint" % gid)


def _identities(objects) -> list[Arrow]:
    return [Arrow(IDENTITY_PREFIX + o, o, o, is_identity=True) for o in objects]


def _fill_identity_entries(table, arrows):
    """Add the unit-law entries for every arrow, identities included."""
    for a in arrows:
        table[(IDENTITY_PREFIX + a.dom, a.id)] = a.id  # a ∘ id_dom(a)
        table[(a.id, IDENTITY_PREFIX + a.cod)] = a.id  # id_cod(a) ∘ a


def build_thin(objects: Sequence[str], generators: Sequence[tuple[str, str, str]]) -> FiniteCategory:
    """Thin category: one arrow a→b per nonempty generator path, a != b.

    Generator arrows keep their given ids; derived arrows are named
    "<dom>-><cod>".  Raises ParseError when two generators share an
    ordered object pair or a derived name is already an arrow id, and
    NontrivialCycle when the reachability relation is not antisymmetric.
    """
    _check_presentation(objects, generators)
    succ: dict[str, set[str]] = {o: set() for o in objects}
    for _, dom, cod in generators:
        succ[dom].add(cod)

    # nonempty-path reachability by DFS from every object
    reach: dict[str, set[str]] = {}
    for start in objects:
        seen: set[str] = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ[node])
        reach[start] = seen

    for a in objects:
        if a in reach[a]:
            raise NontrivialCycle("object %r lies on a directed cycle" % a)
        for b in reach[a]:
            if a in reach[b]:
                raise NontrivialCycle("objects %r and %r reach each other" % (a, b))

    generator_name = {}
    for gid, dom, cod in generators:
        if (dom, cod) in generator_name:
            raise ParseError(
                "generators %r and %r both go %s -> %s; a thin category has one arrow per object pair"
                % (generator_name[(dom, cod)], gid, dom, cod)
            )
        generator_name[(dom, cod)] = gid

    # leaving[a]: (b, id of the arrow a -> b) for b in sorted(reach[a])
    leaving: dict[str, list[tuple[str, str]]] = {}
    arrows = _identities(objects)
    used = set(generator_name.values())
    for a in objects:
        leaving[a] = []
        for b in sorted(reach[a]):
            aid = generator_name.get((a, b))
            if aid is None:
                aid = "%s->%s" % (a, b)
                if aid in used:
                    raise ParseError("derived arrow %s -> %s would be named %r, which is already taken" % (a, b, aid))
                used.add(aid)
            leaving[a].append((b, aid))
            arrows.append(Arrow(aid, a, b))

    # f: a -> b composes with every g: b -> d, and g∘f is the arrow a -> d
    table: dict[tuple[str, str], str] = {}
    for a in objects:
        pair_to_id = dict(leaving[a])
        for b, f in leaving[a]:
            for d, g in leaving[b]:
                table[(f, g)] = pair_to_id[d]
    _fill_identity_entries(table, arrows)
    return FiniteCategory(objects, arrows, table, "thin")


def build_free(objects: Sequence[str], generators: Sequence[tuple[str, str, str]]) -> FiniteCategory:
    """Free category on an acyclic multigraph: arrows are nonempty paths.

    A path through edges g1, g2, ..., gn (in traversal order) gets the id
    "gn∘...∘g2∘g1"; composition is path concatenation.  Raises CyclicGraph
    when the multigraph has a directed cycle, and CatGeoError when it has
    more than MAX_FREE_PATHS nonempty paths.
    """
    _check_presentation(objects, generators)
    for gid, _, _ in generators:
        if PATH_SEP in gid:
            raise ParseError("generator id %r contains the reserved separator" % gid)

    out_edges: dict[str, list[tuple[str, str]]] = {o: [] for o in objects}
    for gid, dom, cod in generators:
        out_edges[dom].append((gid, cod))

    # cycle check: three-colour DFS over the underlying digraph, with an
    # explicit stack of out-edge iterators so that long chains cannot
    # exhaust the interpreter stack; `order` collects finished objects
    state = {o: 0 for o in objects}  # 0 unseen, 1 active, 2 done
    order = []
    for root in objects:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(out_edges[root]))]
        while stack:
            node, edges = stack[-1]
            for _, nxt in edges:
                if state[nxt] == 1:
                    raise CyclicGraph("directed cycle through %r" % nxt)
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(out_edges[nxt])))
                    break
            else:
                state[node] = 2
                order.append(node)
                stack.pop()

    # count the nonempty paths before enumerating them: paths from an
    # object are its out-edges, each extended by the paths from its target
    paths_from = {}
    for node in order:  # every target finishes before its sources
        paths_from[node] = sum(1 + paths_from[nxt] for _, nxt in out_edges[node])
    total = sum(paths_from.values())
    if total > MAX_FREE_PATHS:
        raise CatGeoError(
            "free category would have %d path arrows, more than the limit of %d" % (total, MAX_FREE_PATHS)
        )

    # enumerate all nonempty paths in depth-first pre-order
    paths: list[tuple[tuple[str, ...], str, str]] = []
    for o in objects:
        stack = [((), iter(out_edges[o]))]
        while stack:
            seq, edges = stack[-1]
            step = next(edges, None)
            if step is None:
                stack.pop()
                continue
            gid, nxt = step
            new = seq + (gid,)
            paths.append((new, o, nxt))
            stack.append((new, iter(out_edges[nxt])))

    def path_id(seq):
        return PATH_SEP.join(reversed(seq))

    arrows = _identities(objects)
    seq_to_id = {}
    for seq, dom, cod in paths:
        aid = path_id(seq)
        seq_to_id[seq] = aid
        arrows.append(Arrow(aid, dom, cod))

    starting_at: dict[str, list[tuple[str, ...]]] = {o: [] for o in objects}
    for seq, dom, _ in paths:
        starting_at[dom].append(seq)
    table: dict[tuple[str, str], str] = {}
    for seq_f, _, cod_f in paths:
        for seq_g in starting_at[cod_f]:
            table[(seq_to_id[seq_f], seq_to_id[seq_g])] = seq_to_id[seq_f + seq_g]
    _fill_identity_entries(table, arrows)
    return FiniteCategory(objects, arrows, table, "free")


def build_explicit(
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    compositions: Mapping[tuple[str, str], str],
) -> FiniteCategory:
    """Assemble a category verbatim from a full non-identity composition table.

    `compositions` maps (f, g) to g∘f and must cover exactly the composable
    non-identity pairs; identity entries are filled in by the unit law.
    The result is not validated here; run validate_axioms separately.
    """
    _check_presentation(objects, arrows)
    all_arrows = _identities(objects) + [Arrow(aid, dom, cod) for aid, dom, cod in arrows]
    table = dict(compositions)
    _fill_identity_entries(table, all_arrows)
    category = FiniteCategory(objects, all_arrows, table, "explicit")

    required = {
        (f.id, g.id)
        for f in all_arrows
        if not f.is_identity
        for g in category.out_arrows[f.cod]
        if not g.is_identity
    }
    given = set(compositions)
    if given - required:
        pair = sorted(given - required)[0]
        raise ParseError("composition entry %s is not a composable non-identity pair" % (pair,))
    if required - given:
        pair = sorted(required - given)[0]
        raise ParseError("incomplete composition table: missing entry %s" % (pair,))
    for pair, result in compositions.items():
        if result not in category.arrows:
            raise ParseError("composition %s names unknown arrow %r" % (pair, result))
    return category


def validate_axioms(category: FiniteCategory) -> list[Violation]:
    """Check the category axioms; an empty list means valid.

    Covers: table totality and closure over composable pairs, dom/cod
    consistency of composites, associativity over all composable triples,
    and the unit law for every arrow.  Violations come in three runs:
    pair checks (for each f in arrow order, its entries ordered by g in
    arrow order), then unit, then associativity (ordered by f, g, k).

    When the pair and unit checks find nothing, the triples that cannot
    fail (through an identity, or with a one-arrow hom-set between their
    ends) are skipped; the list is that of the loop over every triple.
    """
    violations: list[Violation] = []
    arrows = category.arrows
    table = category.table
    leaving = category.out_arrows.get

    # closure: entries between known arrows that do not compose, by f
    stray: dict[str, list[tuple[str, Violation]]] = {}
    for key in table:
        f, g = key
        if f in arrows and g in arrows and arrows[f].cod != arrows[g].dom:
            stray.setdefault(f, []).append((g, Violation("closure", "entry (%s, %s) for non-composable pair" % key)))
    position = {aid: i for i, aid in enumerate(arrows)} if stray else {}

    for f in arrows.values():
        run = []  # (g id, violation) for the entries (f, g)
        for g in leaving(f.cod, ()):
            key = (f.id, g.id)
            result = table.get(key)
            r = arrows.get(result)
            if result is None:
                v = Violation("totality", "missing entry (%s, %s)" % key)
            elif r is None:
                v = Violation("dom-cod", "entry (%s, %s) names unknown arrow %r" % (f.id, g.id, result))
            elif r.dom != f.dom or r.cod != g.cod:
                v = Violation(
                    "dom-cod",
                    "(%s, %s) -> %s has type %s->%s, expected %s->%s" % (f.id, g.id, result, r.dom, r.cod, f.dom, g.cod),
                )
            else:
                continue
            run.append((g.id, v))
        if f.id in stray:
            run += stray[f.id]
            run.sort(key=lambda entry: position[entry[0]])
        violations.extend(v for _, v in run)

    for f in arrows.values():
        left = table.get((category.identity(f.dom), f.id))
        if left != f.id:
            violations.append(Violation("unit", "%s ∘ id_%s = %s, expected %s" % (f.id, f.dom, left, f.id)))
        right = table.get((f.id, category.identity(f.cod)))
        if right != f.id:
            violations.append(Violation("unit", "id_%s ∘ %s = %s, expected %s" % (f.cod, f.id, right, f.id)))

    # With no violation so far every composite is a known arrow of the
    # right type and the unit law holds, so a triple through an identity
    # associates, and so does one whose ends have a one-arrow hom-set:
    # (k∘g)∘f and k∘(g∘f) both lie in hom(dom f, cod k).  Neither is checked.
    prune = not violations
    if prune:
        count: dict[tuple[str, str], int] = {}
        for a in arrows.values():
            count[a.dom, a.cod] = count.get((a.dom, a.cod), 0) + 1
        multi: dict[str, set[str]] = {}  # o -> the c with several arrows o -> c
        for (o, c), n in count.items():
            if n > 1:
                multi.setdefault(o, set()).add(c)
        units = {a.id for a in arrows.values() if a.dom == a.cod and a.id == category.identity(a.dom)}
        leaving = {o: [a for a in out if a.id not in units] for o, out in category.out_arrows.items()}.get

    for f in arrows.values():
        if prune:
            ends = multi.get(f.dom)
            if not ends or f.id in units:
                continue
        for g in leaving(f.cod, ()):
            gf = table.get((f.id, g.id))
            if gf not in arrows:
                continue  # already reported as totality/dom-cod
            for k in leaving(g.cod, ()):
                if prune and k.cod not in ends:
                    continue
                kg = table.get((g.id, k.id))
                if kg not in arrows:
                    continue
                lhs = table.get((gf, k.id))
                rhs = table.get((f.id, kg))
                if lhs != rhs:
                    violations.append(
                        Violation(
                            "associativity",
                            "(%s, %s, %s): %s != %s" % (f.id, g.id, k.id, lhs, rhs),
                        )
                    )
    return violations
