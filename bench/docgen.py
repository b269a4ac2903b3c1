"""Seeded category presentations for the benchmark, with their expected structure.

Every generator draws only from the ``random.Random`` it is handed, so one
seed fixes every document byte for byte.  A ``Model`` pairs the JSON
document the program reads with what a correct implementation must report
for it: the arrows with their endpoints, the atomic basis, the norms and
the composite of every composable pair.  Nothing here imports catgeo; the
expectations follow from the documented semantics (order closure of a
generator graph, paths of a multigraph), not from the library's code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import oracles

#: separator of free path ids, as documented: "gn∘...∘g1" for the path g1..gn
PATH_SEP = "∘"


@dataclass
class Model:
    """A document plus the structure a correct program reports for it.

    ``key`` maps each non-identity arrow id to its identity in the family:
    the (dom, cod) pair for thin categories, the edge sequence (traversal
    order) for free ones.  Composites and closed forms are computed on keys.
    """

    label: str
    family: str  # "thin" or "free"
    doc: dict
    objects: list
    arrows: dict  # id -> (dom, cod), non-identity arrows only
    basis: frozenset
    norms: dict  # id -> minimal factorization length
    key: dict
    planted: int = 0  # associativity violations planted into an explicit table
    defect: str = ""  # non-empty for a known-defect reproducer

    def __post_init__(self):
        self.by_key = {k: a for a, k in self.key.items()}

    def text(self) -> str:
        return json.dumps(self.doc, indent=2, sort_keys=True, ensure_ascii=False)

    @property
    def total_arrows(self) -> int:
        """Arrow count including identities, as the program counts it."""
        return len(self.arrows) + len(self.objects)

    def composable(self, f, g) -> bool:
        return self.arrows[f][1] == self.arrows[g][0]

    def composite(self, f, g) -> str:
        """g∘f (f first) for a composable pair."""
        kf, kg = self.key[f], self.key[g]
        if self.family == "thin":
            return self.by_key[(kf[0], kg[1])]
        return self.by_key[kf + kg]


def _names(rng, prefixes, count):
    prefix = rng.choice(prefixes)
    return ["%s%d" % (prefix, k) for k in rng.sample(range(4 * count + 8), count)]


def thin_model(label, objects, generators) -> Model:
    """Order closure of a generator DAG: one arrow per reachable ordered pair."""
    succ = {o: set() for o in objects}
    for _, dom, cod in generators:
        succ[dom].add(cod)
    reach = {}
    for start in objects:
        seen, stack = set(), list(succ[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ[node])
        reach[start] = seen
    # a cover pair is an edge whose head no other successor of its tail reaches
    cover = {o: [b for b in succ[o] if not any(b in reach[c] for c in succ[o] if c != b)] for o in objects}
    names = {}
    for gid, dom, cod in generators:
        names.setdefault((dom, cod), gid)
    arrows, key, norms, basis = {}, {}, {}, set()
    for a in objects:
        depth, frontier = {}, [a]
        level = 0
        while frontier:  # BFS over the cover graph gives the norms
            level += 1
            nxt = []
            for node in frontier:
                for b in cover[node]:
                    if b not in depth:
                        depth[b] = level
                        nxt.append(b)
            frontier = nxt
        for b in reach[a]:
            aid = names.get((a, b), "%s->%s" % (a, b))
            arrows[aid] = (a, b)
            key[aid] = (a, b)
            norms[aid] = depth[b]
            if depth[b] == 1:
                basis.add(aid)
    doc = {
        "mode": "thin",
        "objects": list(objects),
        "arrows": [{"id": g, "dom": d, "cod": c} for g, d, c in generators],
    }
    return Model(label, "thin", doc, list(objects), arrows, frozenset(basis), norms, key)


def free_model(label, objects, generators) -> Model:
    """Free category of an acyclic multigraph: one arrow per nonempty path."""
    out = {o: [] for o in objects}
    for gid, dom, cod in generators:
        out[dom].append((gid, cod))
    arrows, key, norms = {}, {}, {}
    for start in objects:
        stack = [((), start)]
        while stack:
            seq, node = stack.pop()
            for gid, nxt in out[node]:
                path = seq + (gid,)
                aid = PATH_SEP.join(reversed(path))
                arrows[aid] = (start, nxt)
                key[aid] = path
                norms[aid] = len(path)
                stack.append((path, nxt))
    doc = {
        "mode": "free",
        "objects": list(objects),
        "arrows": [{"id": g, "dom": d, "cod": c} for g, d, c in generators],
    }
    basis = frozenset(g for g, _, _ in generators)
    return Model(label, "free", doc, list(objects), arrows, basis, norms, key)


def chain(rng, label, n) -> Model:
    """Dense thin chain: generators o0->o1->...; the closure is a total order."""
    objects = _names(rng, "abc", n)
    gens = _names(rng, "gh", n - 1)
    return thin_model(label, objects, [(gens[i], objects[i], objects[i + 1]) for i in range(n - 1)])


def thin_dag(rng, label, n, target) -> Model:
    """Random thin DAG on n objects with about ``target`` arrows (within 2%).

    Short forward edges are added one at a time, tracking reachability as
    bitmasks, until identities plus closure pairs reach the target; an
    edge that would overshoot it is left out.
    """
    objects = _names(rng, "pqr", n)
    reach = [0] * n
    edges = []
    seen = set()
    span = max(2, n // 6)
    size = n
    for _ in range(50 * n * span):
        if size >= 0.98 * target:
            break
        i = rng.randrange(n - 1)
        j = min(n - 1, i + rng.randint(1, span))
        if (i, j) in seen:
            continue
        seen.add((i, j))
        gain = (1 << j) | reach[j]
        grown = [r | gain if x == i or r >> i & 1 else r for x, r in enumerate(reach)]
        grown_size = n + sum(bin(r).count("1") for r in grown)
        if grown_size > 1.02 * target:
            continue  # an edge that overshoots is skipped, so sizes stay on target
        edges.append((i, j))
        reach, size = grown, grown_size
    gens = _names(rng, "gk", len(edges))
    return thin_model(label, objects, [(gens[k], objects[i], objects[j]) for k, (i, j) in enumerate(edges)])


def _free_size(widths):
    total = 0
    for i in range(len(widths)):
        prod = 1
        for w in widths[i:]:
            prod *= w
            total += prod
    return total + len(widths) + 1


def free_stages(rng, label, stages, target) -> Model:
    """Stage chain s0 -> s1 -> ... with 1-3 parallel edges per stage.

    Draws stage counts from ``stages`` and widths from 1..3, keeping the
    draw whose arrow count lies closest to ``target``.
    """
    best = None
    for _ in range(2000):
        k = rng.randint(*stages)
        widths = [rng.choice((1, 2, 2, 3)) for _ in range(k)]
        size = _free_size(widths)
        if best is None or abs(size - target) < abs(best[0] - target):
            best = (size, widths)
        if abs(size - target) <= 0.03 * target:
            break
    widths = best[1]
    objects = _names(rng, "st", len(widths) + 1)
    names = iter(_names(rng, "eu", sum(widths)))
    gens = [(next(names), objects[i], objects[i + 1]) for i, w in enumerate(widths) for _ in range(w)]
    return free_model(label, objects, gens)


def explicit(rng, model: Model, label) -> Model:
    """The same category written as a full explicit table under opaque ids."""
    old = sorted(model.arrows)
    new = _names(rng, "mx", len(old))
    rename = dict(zip(old, new))
    arrows = {rename[a]: model.arrows[a] for a in old}
    key = {rename[a]: model.key[a] for a in old}
    out = {}
    for a in old:
        out.setdefault(model.arrows[a][0], []).append(a)
    comps = []
    for f in old:
        for g in out.get(model.arrows[f][1], ()):
            comps.append({"f": rename[f], "g": rename[g], "result": rename[model.composite(f, g)]})
    rng.shuffle(comps)
    doc = {
        "mode": "explicit",
        "objects": list(model.objects),
        "arrows": [{"id": rename[a], "dom": model.arrows[a][0], "cod": model.arrows[a][1]} for a in old],
        "compositions": comps,
    }
    return Model(
        label,
        model.family,
        doc,
        list(model.objects),
        arrows,
        frozenset(rename[a] for a in model.basis),
        {rename[a]: n for a, n in model.norms.items()},
        key,
    )


def planted(rng, free: Model, label) -> Model:
    """An explicit table with one composite swapped for a parallel arrow.

    The swapped entry keeps dom/cod right, so the only axiom it can break is
    associativity; the entry is chosen so that some composable triple uses
    it, and the number of failing triples is recorded for the oracle.
    """
    model = explicit(rng, free, label)
    table = {(c["f"], c["g"]): c["result"] for c in model.doc["compositions"]}
    parallel = {}
    for a, ends in model.arrows.items():
        parallel.setdefault(ends, []).append(a)
    candidates = sorted(
        pair
        for pair, result in table.items()
        if len(parallel[model.arrows[result]]) > 1
    )
    rng.shuffle(candidates)
    for f, g in candidates:
        result = table[(f, g)]
        others = sorted(a for a in parallel[model.arrows[result]] if a != result)
        table[(f, g)] = rng.choice(others)
        count = oracles.associativity_violations(model.arrows, table)
        if count:
            model.doc["compositions"] = [{"f": p[0], "g": p[1], "result": r} for p, r in table.items()]
            model.planted = count
            return model
        table[(f, g)] = result
    raise ValueError("no associativity violation can be planted in %s" % label)


def collision() -> Model:
    """ROADMAP item 4 reproducer: a generator named like the derived x->z.

    The presented poset is x < y < z with three arrows and norms 1, 1, 2.
    Arrow ids are ambiguous here, so the oracle checks this one by shape.
    """
    doc = {
        "mode": "thin",
        "objects": ["x", "y", "z"],
        "arrows": [{"id": "x->z", "dom": "x", "cod": "y"}, {"id": "g2", "dom": "y", "cod": "z"}],
    }
    arrows = {"x->z": ("x", "y"), "g2": ("y", "z"), "<x->z>": ("x", "z")}
    norms = {"x->z": 1, "g2": 1, "<x->z>": 2}
    key = {a: ends for a, ends in arrows.items()}
    return Model("collision", "thin", doc, ["x", "y", "z"], arrows, frozenset({"x->z", "g2"}), norms, key,
                 defect="thin id collision")


def builtins() -> dict:
    """Independent copies of the shipped examples po6, path3 and parallel2."""
    po6 = [("e1", "a0", "a1"), ("e2", "a0", "a2"), ("e3", "a1", "a3"),
           ("e4", "a2", "a4"), ("e5", "a3", "a4"), ("e6", "a4", "a5")]
    return {
        "po6": thin_model("po6", ["a0", "a1", "a2", "a3", "a4", "a5"], po6),
        "path3": free_model("path3", ["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z")]),
        "parallel2": free_model("parallel2", ["a", "b"], [("u", "a", "b"), ("v", "a", "b")]),
    }


def counts(models) -> dict:
    """Exact structural work counts summed over a population."""
    totals = dict.fromkeys(
        ("category.arrows", "category.table_entries", "category.composable_pairs",
         "category.composable_triples", "vectors.basis_size", "vectors.norm_max",
         "geometry.orthogonal_pairs"), 0)
    for m in models:
        into, outof = {o: 0 for o in m.objects}, {o: 0 for o in m.objects}
        for dom, cod in m.arrows.values():
            outof[dom] += 1
            into[cod] += 1
        pairs = sum(into[o] * outof[o] for o in m.objects)
        v = len(m.arrows)
        totals["category.arrows"] += m.total_arrows
        totals["category.table_entries"] += pairs + 2 * v + len(m.objects)
        totals["category.composable_pairs"] += pairs
        totals["category.composable_triples"] += sum(into[d] * outof[c] for d, c in m.arrows.values())
        totals["vectors.basis_size"] += len(m.basis)
        totals["vectors.norm_max"] = max([totals["vectors.norm_max"], *m.norms.values()])
        totals["geometry.orthogonal_pairs"] += v * (v - 1) - 2 * pairs
    return totals
