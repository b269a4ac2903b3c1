import json
import random
import sys

import pytest

from catgeo import (
    AxiomViolation,
    CompositeIsIdentity,
    ParseError,
    atomic_basis,
    builtin_document,
    builtin_names,
    clifford_report,
    compute_norms,
    load_category,
    parse_document,
    validate_axioms,
    vec_add,
)

from helpers import mutate_document, oracle_atomic_basis, oracle_parse_document, oracle_vectors, random_document


def doc(**fields):
    return json.dumps(fields)


class TestParseDocument:
    def test_po6_shape(self):
        parsed = parse_document(builtin_document("po6"))
        assert parsed.mode == "thin"
        assert len(parsed.objects) == 6
        assert len(parsed.arrows) == 6

    def test_duplicate_arrow_id(self):
        text = doc(
            mode="thin",
            objects=["a", "b"],
            arrows=[{"id": "f", "dom": "a", "cod": "b"}, {"id": "f", "dom": "a", "cod": "b"}],
        )
        with pytest.raises(ParseError):
            parse_document(text)

    def test_dangling_object_reference(self):
        text = doc(
            mode="explicit",
            objects=["a"],
            arrows=[{"id": "f", "dom": "a", "cod": "zz"}],
            compositions=[],
        )
        with pytest.raises(ParseError):
            parse_document(text)

    def test_unknown_mode(self):
        with pytest.raises(ParseError):
            parse_document(doc(mode="weird", objects=["a"], arrows=[]))

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_document("{not json")

    def test_integer_too_long_to_read(self):
        # json.loads raises a plain ValueError for such an integer, even
        # in a key catgeo ignores; json.dumps cannot write one, so raw text
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_document('{"mode": "thin", "objects": ["a"], "n": %s}' % digits)

    def test_deep_nesting(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_document("[" * 200000)

    def test_compositions_forbidden_outside_explicit(self):
        text = doc(
            mode="thin",
            objects=["a", "b"],
            arrows=[{"id": "f", "dom": "a", "cod": "b"}],
            compositions=[{"f": "f", "g": "f", "result": "f"}],
        )
        with pytest.raises(ParseError):
            parse_document(text)


AB = {"mode": "explicit", "objects": ["a", "b"]}
F = {"id": "f", "dom": "a", "cod": "b"}

# one malformed document per check in parse_document, with its exact message
MALFORMED = [
    ([1], "document root must be a JSON object"),
    ({"mode": "weird", "objects": ["a"]}, "mode must be one of thin, free, explicit, got 'weird'"),
    ({"mode": "thin", "objects": []}, "objects must be a nonempty list"),
    ({"mode": "thin", "objects": ["a", ""]}, "object ids must be nonempty strings"),
    ({"mode": "thin", "objects": ["a", "a"]}, "duplicate object id"),
    ({**AB, "arrows": {}}, "arrows must be a list"),
    ({**AB, "arrows": [F, "f"]}, "arrows[1] must be an object"),
    ({**AB, "arrows": [{"id": "f", "dom": "a", "cod": 3}]}, "arrows[0].cod must be a nonempty string"),
    ({**AB, "arrows": [F, F]}, "duplicate arrow id 'f'"),
    ({**AB, "arrows": [{"id": "f", "dom": "x", "cod": "b"}]}, "arrows[0] ('f'): dangling dom 'x'"),
    ({**AB, "arrows": [{"id": "f", "dom": "a", "cod": "y"}]}, "arrows[0] ('f'): dangling cod 'y'"),
    ({**AB, "arrows": [F], "compositions": {}}, "compositions must be a list"),
    (
        {"mode": "free", "objects": ["a", "b"], "arrows": [F], "compositions": [{}]},
        "compositions are only allowed in explicit mode",
    ),
    ({**AB, "arrows": [F], "compositions": [None]}, "compositions[0] must be an object"),
    (
        {**AB, "arrows": [F], "compositions": [{"f": "f", "g": "", "result": "f"}]},
        "compositions[0].g must be a nonempty string",
    ),
    (
        {**AB, "arrows": [F], "compositions": [{"f": "f", "g": "f", "result": "id:c"}]},
        "compositions[0]: unknown arrow 'id:c'",
    ),
    # JSON admits an escaped lone surrogate, which no output can encode
    ({"mode": "thin", "objects": ["a", "\ud800"]}, "id '\\ud800' is not Unicode text: it holds a lone surrogate"),
    (
        {"mode": "thin", "objects": ["a", "b"], "arrows": [{"id": "e\udc80", "dom": "a", "cod": "b"}]},
        "id 'e\\udc80' is not Unicode text: it holds a lone surrogate",
    ),
    (
        {**AB, "arrows": [F, {"id": "\udfff", "dom": "a", "cod": "b"}]},
        "id '\\udfff' is not Unicode text: it holds a lone surrogate",
    ),
]


@pytest.mark.parametrize("data, message", MALFORMED, ids=[m for _, m in MALFORMED])
def test_parse_error_messages(data, message):
    with pytest.raises(ParseError) as info:
        parse_document(json.dumps(data))
    assert str(info.value) == message


def test_escaped_surrogate_pair_loads():
    # "\ud83d\ude00" in JSON is one character, U+1F600
    text = doc(mode="free", objects=["a", "b"], arrows=[{"id": "\U0001f600", "dom": "a", "cod": "b"}])
    assert '"\\ud83d\\ude00"' in text
    assert parse_document(text).arrows == [("\U0001f600", "a", "b")]
    assert load_category(text).vectors == ("\U0001f600",)


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return "ParseError: %s" % exc


def test_parse_matches_oracle():
    # the same document, or the same ParseError text, as the parser whose
    # every check was a `_require` call; for each of 400 seeded documents,
    # the document itself, three one-field mutations of it and one with
    # two fields broken, so that the order of the checks shows
    rng = random.Random(21)
    parsed, refused = 0, 0
    for _ in range(400):
        data = random_document(rng)
        mutants = [mutate_document(rng, data) for _ in range(3)]
        for candidate in [data, *mutants, mutate_document(rng, mutants[0])]:
            text = json.dumps(candidate)
            expected = _parsed_or_error(oracle_parse_document, text)
            assert _parsed_or_error(parse_document, text) == expected
            if isinstance(expected, str):
                refused += 1
            else:
                parsed += 1
    assert parsed > 500 and refused > 500


class TestLoadCategory:
    def test_po6_round_trip(self):
        cat = load_category(builtin_document("po6"))
        assert validate_axioms(cat) == []
        assert atomic_basis(cat) == ("e1", "e2", "e3", "e4", "e5", "e6")
        norms = compute_norms(cat, atomic_basis(cat))
        assert norms["a0->a4"] == 2

    def test_explicit_missing_entry(self):
        text = doc(
            mode="explicit",
            objects=["a", "b", "c"],
            arrows=[
                {"id": "f", "dom": "a", "cod": "b"},
                {"id": "g", "dom": "b", "cod": "c"},
                {"id": "h", "dom": "a", "cod": "c"},
            ],
            compositions=[],  # (f, g) -> h is required but missing
        )
        with pytest.raises(ParseError, match="incomplete"):
            load_category(text)

    def test_explicit_valid(self):
        text = doc(
            mode="explicit",
            objects=["a", "b", "c"],
            arrows=[
                {"id": "f", "dom": "a", "cod": "b"},
                {"id": "g", "dom": "b", "cod": "c"},
                {"id": "h", "dom": "a", "cod": "c"},
            ],
            compositions=[{"f": "f", "g": "g", "result": "h"}],
        )
        cat = load_category(text)
        assert validate_axioms(cat) == []

    def test_explicit_axiom_violation(self):
        # seeded dom/cod breakage: g∘f declared to land on f itself
        text = doc(
            mode="explicit",
            objects=["a", "b", "c"],
            arrows=[
                {"id": "f", "dom": "a", "cod": "b"},
                {"id": "g", "dom": "b", "cod": "c"},
                {"id": "h", "dom": "a", "cod": "c"},
            ],
            compositions=[{"f": "f", "g": "g", "result": "f"}],
        )
        with pytest.raises(AxiomViolation):
            load_category(text)


class TestBuiltins:
    def test_names(self):
        assert "po6" in builtin_names()

    def test_every_builtin_loads_cleanly(self):
        for name in builtin_names():
            cat = load_category(builtin_document(name))
            assert validate_axioms(cat) == []

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            builtin_document("nope")


def groupoid(first="id:a", second="id:b"):
    """Two objects and an isomorphism f: a -> b with inverse g."""
    return doc(
        mode="explicit",
        objects=["a", "b"],
        arrows=[{"id": "f", "dom": "a", "cod": "b"}, {"id": "g", "dom": "b", "cod": "a"}],
        compositions=[{"f": "f", "g": "g", "result": first}, {"f": "g", "g": "f", "result": second}],
    )


class TestIdentityComposites:
    def test_groupoid_loads_and_validates(self):
        cat = load_category(groupoid())
        assert validate_axioms(cat) == []
        assert cat.table[("f", "g")] == "id:a"
        assert cat.table[("g", "f")] == "id:b"

    def test_vectors_index(self):
        cat = load_category(groupoid())
        assert type(cat.vectors) is tuple
        assert cat.vectors == oracle_vectors(cat) == ("f", "g")

    def test_sum_of_inverses_is_not_a_vector(self):
        cat = load_category(groupoid())
        with pytest.raises(CompositeIsIdentity):
            vec_add(cat, "f", "g")
        with pytest.raises(CompositeIsIdentity):
            vec_add(cat, "g", "f")

    def test_norms_and_clifford(self):
        cat = load_category(groupoid())
        basis = atomic_basis(cat)
        norms = compute_norms(cat, basis)
        assert basis == oracle_atomic_basis(cat) == ("f", "g")
        assert list(norms.items()) == [("f", 1), ("g", 1)]
        assert clifford_report(cat, norms, basis).holds

    def test_identity_of_undeclared_object_rejected(self):
        with pytest.raises(ParseError, match="id:zz"):
            parse_document(groupoid(first="id:zz"))

    def test_identity_of_the_wrong_object_is_a_violation(self):
        with pytest.raises(AxiomViolation, match="dom-cod"):
            load_category(groupoid(first="id:b"))
