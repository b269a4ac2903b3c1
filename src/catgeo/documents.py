"""JSON category documents: parsing, loading, and built-in examples.

A document is a single JSON object:

    {
      "mode": "thin" | "free" | "explicit",
      "objects": ["a0", "a1", ...],
      "arrows": [{"id": "e1", "dom": "a0", "cod": "a1"}, ...],
      "compositions": [{"f": "e2", "g": "e4", "result": "a0->a4"}, ...]
    }

For thin/free modes the arrows list holds the generators and compositions
must be absent.  For explicit mode the arrows list holds every non-identity
arrow (identities are implied) and the compositions list must cover exactly
the composable non-identity pairs, each entry meaning result = g∘f.  A
result may name the identity "id:<obj>" of a declared object, so that
isomorphisms and groupoids can be written down.
"""

from __future__ import annotations

import json

from .category import (
    IDENTITY_PREFIX,
    FiniteCategory,
    build_explicit,
    build_free,
    build_thin,
    validate_axioms,
)
from .errors import AxiomViolation, ParseError

MODES = ("thin", "free", "explicit")


class CategoryDocument:
    """A parsed document; equal documents have equal fields."""

    __slots__ = ("mode", "objects", "arrows", "compositions")

    def __init__(
        self,
        mode: str,
        objects: list[str],
        arrows: list[tuple[str, str, str]],  # (id, dom, cod)
        compositions: list[tuple[str, str, str]] | None = None,  # (f, g, result); default []
    ):
        self.mode = mode
        self.objects = objects
        self.arrows = arrows
        self.compositions = [] if compositions is None else compositions

    def _key(self):
        return self.mode, self.objects, self.arrows, self.compositions

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return "CategoryDocument(mode=%r, objects=%r, arrows=%r, compositions=%r)" % self._key()


def _require(condition, message, *args):
    """Raise ParseError(message % args) unless condition holds; the message
    is formatted only when it is raised."""
    if not condition:
        raise ParseError(message % args)


def parse_document(text: str) -> CategoryDocument:
    """Structural validation only; semantics are checked by load_category."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    _require(isinstance(data, dict), "document root must be a JSON object")
    mode = data.get("mode")
    _require(mode in MODES, "mode must be one of %s, got %r", ", ".join(MODES), mode)

    objects = data.get("objects")
    _require(isinstance(objects, list) and objects, "objects must be a nonempty list")
    _require(all(isinstance(o, str) and o for o in objects), "object ids must be nonempty strings")
    _require(len(set(objects)) == len(objects), "duplicate object id")
    obj_set = set(objects)

    raw_arrows = data.get("arrows", [])
    _require(isinstance(raw_arrows, list), "arrows must be a list")
    arrows = []
    seen_ids = set()
    for i, rec in enumerate(raw_arrows):
        _require(isinstance(rec, dict), "arrows[%d] must be an object", i)
        for key in ("id", "dom", "cod"):
            _require(isinstance(rec.get(key), str) and rec[key], "arrows[%d].%s must be a nonempty string", i, key)
        _require(rec["id"] not in seen_ids, "duplicate arrow id %r", rec["id"])
        seen_ids.add(rec["id"])
        _require(rec["dom"] in obj_set, "arrows[%d] (%r): dangling dom %r", i, rec["id"], rec["dom"])
        _require(rec["cod"] in obj_set, "arrows[%d] (%r): dangling cod %r", i, rec["id"], rec["cod"])
        arrows.append((rec["id"], rec["dom"], rec["cod"]))

    results = seen_ids | {IDENTITY_PREFIX + o for o in objects}  # a composite may be an identity
    raw_comps = data.get("compositions", [])
    _require(isinstance(raw_comps, list), "compositions must be a list")
    if mode != "explicit":
        _require(not raw_comps, "compositions are only allowed in explicit mode")
    compositions = []
    for i, rec in enumerate(raw_comps):
        _require(isinstance(rec, dict), "compositions[%d] must be an object", i)
        for key in ("f", "g", "result"):
            _require(isinstance(rec.get(key), str) and rec[key], "compositions[%d].%s must be a nonempty string", i, key)
        for key, known in (("f", seen_ids), ("g", seen_ids), ("result", results)):
            _require(rec[key] in known, "compositions[%d]: unknown arrow %r", i, rec[key])
        compositions.append((rec["f"], rec["g"], rec["result"]))

    return CategoryDocument(mode, list(objects), arrows, compositions)


def build_document(document: CategoryDocument) -> FiniteCategory:
    """Build the category a document presents; an explicit table is not validated here."""
    if document.mode == "thin":
        return build_thin(document.objects, document.arrows)
    if document.mode == "free":
        return build_free(document.objects, document.arrows)
    table = {}
    for f, g, result in document.compositions:
        key = (f, g)
        if key in table:
            raise ParseError("duplicate composition entry (%s, %s)" % key)
        table[key] = result
    return build_explicit(document.objects, document.arrows, table)


def load_category(text: str) -> FiniteCategory:
    """Parse a document and build the category it presents.

    An explicit table that breaks an axiom raises AxiomViolation; thin and
    free builds satisfy the axioms by construction.
    """
    document = parse_document(text)
    category = build_document(document)
    if document.mode == "explicit":
        violations = validate_axioms(category)
        if violations:
            raise AxiomViolation(violations)
    return category


def document_to_json(document: CategoryDocument) -> str:
    data = {
        "mode": document.mode,
        "objects": document.objects,
        "arrows": [{"id": a, "dom": d, "cod": c} for a, d, c in document.arrows],
    }
    if document.mode == "explicit":
        data["compositions"] = [{"f": f, "g": g, "result": r} for f, g, r in document.compositions]
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)


# Built-in example documents.  "po6" is the six-object order category whose
# six generators e1..e6 make the worked running example of the library.
_BUILTINS = {
    "po6": CategoryDocument(
        mode="thin",
        objects=["a0", "a1", "a2", "a3", "a4", "a5"],
        arrows=[
            ("e1", "a0", "a1"),
            ("e2", "a0", "a2"),
            ("e3", "a1", "a3"),
            ("e4", "a2", "a4"),
            ("e5", "a3", "a4"),
            ("e6", "a4", "a5"),
        ],
    ),
    "path3": CategoryDocument(
        mode="free",
        objects=["x", "y", "z"],
        arrows=[("p", "x", "y"), ("q", "y", "z")],
    ),
    "parallel2": CategoryDocument(
        mode="free",
        objects=["a", "b"],
        arrows=[("u", "a", "b"), ("v", "a", "b")],
    ),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_document(name: str) -> str:
    """The JSON text of a shipped example document."""
    if name not in _BUILTINS:
        raise ParseError("unknown example %r; available: %s" % (name, ", ".join(builtin_names())))
    return document_to_json(_BUILTINS[name])


def builtin_category(name: str) -> FiniteCategory:
    return load_category(builtin_document(name))
