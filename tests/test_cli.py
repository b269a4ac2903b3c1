import ast
import contextlib
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import catgeo
from catgeo import cli
from catgeo import (
    anticommutator_table,
    atomic_basis,
    build_explicit,
    build_free,
    builtin_category,
    compute_norms,
    format_terms,
    validate_axioms,
)
from catgeo.cli import main
from catgeo.documents import CategoryDocument, builtin_document, document_to_json
from catgeo.render import _terms_dict, _write_table

from helpers import closed_form_anticommutator, concrete_categories


@pytest.fixture()
def po6_file(tmp_path):
    path = tmp_path / "po6.json"
    path.write_text(builtin_document("po6"), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestValidate:
    def test_valid_file(self, capsys, po6_file):
        status, out, _ = run(capsys, "validate", po6_file)
        assert status == 0
        assert "violations: 0" in out

    def test_piped_example(self, capsys, po6_file, monkeypatch, tmp_path):
        # "-" reads stdin; emulate the example | validate pipe
        import io, sys

        stdin = io.TextIOWrapper(io.BytesIO(builtin_document("po6").encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        status, out, _ = run(capsys, "validate", "-")
        assert status == 0

    def test_axiom_violation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "mode": "explicit",
                    "objects": ["a", "b", "c"],
                    "arrows": [
                        {"id": "f", "dom": "a", "cod": "b"},
                        {"id": "g", "dom": "b", "cod": "c"},
                        {"id": "h", "dom": "a", "cod": "c"},
                    ],
                    "compositions": [{"f": "f", "g": "g", "result": "f"}],
                }
            ),
            encoding="utf-8",
        )
        status, out, _ = run(capsys, "validate", str(bad))
        assert status == 2
        assert "violations: 0" not in out

    @pytest.mark.parametrize("name, calls", [("po6", 0), ("path3", 0), ("po6 as explicit", 1)])
    def test_each_document_is_validated_at_most_once(self, capsys, monkeypatch, tmp_path, name, calls):
        # thin and free categories hold by construction and are never
        # checked; an explicit table is checked once, as it loads: its
        # associativity pass runs once, whether validate_axioms runs it or
        # the load alone, after a build that found every composite well typed
        import catgeo.category
        import catgeo.documents

        if name == "po6 as explicit":
            po6 = builtin_category("po6")
            arrows = [(a.id, a.dom, a.cod) for a in po6.arrows.values() if not a.is_identity]
            identities = {a.id for a in po6.arrows.values() if a.is_identity}
            compositions = [(f, g, r) for (f, g), r in po6.table.items() if f not in identities and g not in identities]
            text = document_to_json(CategoryDocument("explicit", list(po6.objects), arrows, compositions))
        else:
            text = builtin_document(name)
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        counted = []
        check = catgeo.category._associativity_violations

        def counting(*args, **kwargs):
            counted.append(1)
            return check(*args, **kwargs)

        for module in (catgeo.category, catgeo.documents):
            monkeypatch.setattr(module, "_associativity_violations", counting)
        for command in ("validate", "basis", "norms", "table", "clifford", "dot", "embed"):
            counted.clear()
            status, _, _ = run(capsys, command, str(path))
            assert status == 0
            assert len(counted) == calls, command

    def test_every_violation_is_reported(self, capsys, tmp_path):
        # the cyclic group of order three with a∘b = a: six associativity
        # failures, more than the five AxiomViolation's message names
        table = {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "id:o", ("b", "b"): "a"}
        arrows = [("a", "o", "o"), ("b", "o", "o")]
        path = tmp_path / "c3.json"
        path.write_text(
            document_to_json(CategoryDocument("explicit", ["o"], arrows, [(f, g, r) for (f, g), r in table.items()])),
            encoding="utf-8",
        )
        expected = validate_axioms(build_explicit(["o"], arrows, table))
        assert len(expected) == 6

        status, out, _ = run(capsys, "validate", str(path))
        assert status == 2
        assert out.splitlines() == [str(v) for v in expected] + ["violations: 6"]

        status, out, _ = run(capsys, "validate", str(path), "--json")
        assert status == 2
        assert json.loads(out) == {"violations": [{"kind": v.kind, "detail": v.detail} for v in expected]}

        status, out, err = run(capsys, "basis", str(path))
        assert (status, out) == (2, "")
        assert "(6 instances)" in err


class TestOutputs:
    def test_norms_contains_paper_value(self, capsys, po6_file):
        status, out, _ = run(capsys, "norms", po6_file)
        assert status == 0
        assert "a0->a4 = 2" in out
        assert "a0->a5 = 3" in out

    def test_basis_json(self, capsys, po6_file):
        status, out, _ = run(capsys, "basis", po6_file, "--json")
        assert status == 0
        assert json.loads(out)["basis"] == ["e1", "e2", "e3", "e4", "e5", "e6"]

    def test_product_orthogonal(self, capsys, po6_file):
        status, out, _ = run(capsys, "product", po6_file, "e2", "e5")
        assert status == 0
        assert "inner e2.e5 = 0" in out
        assert "inner e5.e2 = 0" in out
        assert "orthogonal: true" in out

    def test_product_of_an_arrow_with_itself_is_parallel(self, capsys, po6_file):
        status, out, _ = run(capsys, "product", po6_file, "e1", "e1")
        assert status == 0
        assert "parallel: true" in out

    def test_product_json_of_an_isomorphism_pair_is_parallel(self, capsys, tmp_path):
        # f: a -> b and g: b -> a compose both ways, to the identities
        document = {
            "mode": "explicit",
            "objects": ["a", "b"],
            "arrows": [{"id": "f", "dom": "a", "cod": "b"}, {"id": "g", "dom": "b", "cod": "a"}],
            "compositions": [{"f": "f", "g": "g", "result": "id:a"}, {"f": "g", "g": "f", "result": "id:b"}],
        }
        doc = tmp_path / "iso.json"
        doc.write_text(json.dumps(document), encoding="utf-8")
        status, out, _ = run(capsys, "product", str(doc), "f", "g", "--json")
        assert status == 0
        data = json.loads(out)
        assert (data["parallel"], data["orthogonal"]) == (True, False)

    def test_product_unknown_arrow(self, capsys, po6_file):
        status, _, err = run(capsys, "product", po6_file, "e2", "nope")
        assert status == 2
        assert "nope" in err

    def test_product_identity_arrow(self, capsys, po6_file):
        status, out, err = run(capsys, "product", po6_file, "id:a0", "e1")
        assert (status, out) == (2, "")
        assert err.startswith("catgeo: error:") and "id:a0" in err
        assert "Traceback" not in err

    def test_table_runs(self, capsys, po6_file):
        status, out, _ = run(capsys, "table", po6_file, "--json")
        assert status == 0
        assert len(json.loads(out)["entries"]) == 13 * 13

    @pytest.mark.parametrize(
        ("flags", "expected"), [((), ""), (("--json",), '{\n  "entries": []\n}\n')], ids=["text", "json"]
    )
    def test_table_of_one_object(self, capsys, tmp_path, flags, expected):
        doc = tmp_path / "point.json"
        doc.write_text(json.dumps({"mode": "thin", "objects": ["a"], "arrows": []}), encoding="utf-8")
        assert run(capsys, "table", str(doc), *flags) == (0, expected, "")

    def test_table_entries_match_closed_form(self, capsys, po6_file):
        cat = builtin_category("po6")
        norms = compute_norms(cat, atomic_basis(cat))
        _, out, _ = run(capsys, "table", po6_file, "--json")
        for entry in json.loads(out)["entries"]:
            f, g = entry["f"], entry["g"]
            if f == g:
                want = {"scalar": 2 * norms[f] ** 2, "blades": []}
            else:
                mv = closed_form_anticommutator(cat, norms, f, g)
                blades = [
                    {"first": b.first, "second": b.second, "coefficient": c, "area": norms[b.first] * norms[b.second]}
                    for b, c in sorted(mv.blades.items())
                ]
                want = {"scalar": mv.scalar, "blades": blades}
            assert entry["anticommutator"] == want, (f, g)

    def test_clifford(self, capsys, po6_file):
        status, out, _ = run(capsys, "clifford", po6_file, "--json")
        assert status == 0
        assert json.loads(out)["holds"] is True

    def test_clifford_text_lists_the_failures(self, capsys, po6_file, monkeypatch):
        # doctored norms: ||e1|| = 2 gives e1^2 = 4, and ||a2->a5|| = 0 makes
        # f·g = 0 for the one pair that composes with a2->a5 in one order
        # only, e2 then a2->a5, whose gf is a blade
        norms = compute_norms
        monkeypatch.setattr(cli, "compute_norms", lambda cat, basis: dict(norms(cat, basis), e1=2, **{"a2->a5": 0}))
        assert run(capsys, "clifford", po6_file) == (
            2,
            "basis squares to 1: NO\n"
            "  e1^2 = 4\n"
            "orthogonal pairs anticommute: NO\n"
            "  counterexample: a2->a5, e2\n"
            "  counterexample: e2, a2->a5\n",
            "",
        )

    def test_embed_json(self, capsys, po6_file):
        status, out, _ = run(capsys, "embed", po6_file, "--json")
        assert status == 0
        data = json.loads(out)
        assert len(data["points"]) == 6
        assert len(data["arcs"]) == 13

    def test_dot(self, capsys, po6_file):
        status, out, _ = run(capsys, "dot", po6_file, "--basis-only")
        assert status == 0
        assert out.count('" -> "') == 6

    def test_deterministic_json_output(self, capsys, po6_file):
        _, first, _ = run(capsys, "norms", po6_file, "--json")
        _, second, _ = run(capsys, "norms", po6_file, "--json")
        assert first == second


class TestExample:
    def test_stdout(self, capsys):
        status, out, _ = run(capsys, "example", "po6")
        assert status == 0
        assert json.loads(out)["mode"] == "thin"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cat.json"
        status, _, _ = run(capsys, "example", "po6", "--out", str(target))
        assert status == 0
        assert json.loads(target.read_text(encoding="utf-8"))["mode"] == "thin"

    def test_unknown_example(self, capsys):
        status, _, err = run(capsys, "example", "nope")
        assert status == 1


class TestInterval:
    def test_norm(self, capsys):
        status, out, _ = run(capsys, "interval", "norm", "3.14", "3.141")
        assert status == 0
        assert out.strip() == "1/1000"

    def test_add(self, capsys):
        status, out, _ = run(capsys, "interval", "add", "3.14", "3.1405", "3.1405", "3.141")
        assert status == 0
        assert "157/50" in out and "3141/1000" in out

    def test_add_undefined(self, capsys):
        status, _, err = run(capsys, "interval", "add", "0", "1", "2", "3")
        assert status == 2

    def test_product_json(self, capsys):
        status, out, _ = run(capsys, "interval", "product", "0", "1", "1", "3", "--json")
        assert status == 0
        data = json.loads(out)
        assert data["inner_fg"] == "2"
        assert data["inner_gf"] == "0"

    def test_wrong_arity(self, capsys):
        for argv, expected in ((("norm", "1"), 2), (("add", "0", "1", "2"), 4), (("product", "0", "1"), 4)):
            message = "catgeo: interval %s takes %d endpoint arguments\n" % (argv[0], expected)
            assert run(capsys, "interval", *argv) == (1, "", message)

    def test_negative_fraction_literal(self, capsys):
        status, out, err = run(capsys, "interval", "norm", "-31/7", "31/14")
        assert (status, out, err) == (0, "93/14\n", "")

    def test_negative_decimal_literal(self, capsys):
        status, out, _ = run(capsys, "interval", "product", "-0.250", "1/3", "1/3", "2", "--json")
        assert status == 0
        assert json.loads(out)["inner_fg"] == "35/36"

    @pytest.mark.parametrize("ends, norm", [(("-1e3", "0"), "1000"), (("-2.5E-1", "1"), "5/4"), (("-.5", "1"), "3/2")])
    def test_negative_exponent_literal(self, capsys, ends, norm):
        assert run(capsys, "interval", "norm", *ends) == (0, norm + "\n", "")

    def test_token_that_starts_like_a_number_is_an_endpoint(self, capsys):
        status, out, err = run(capsys, "interval", "norm", "-1x", "0")
        assert (status, out) == (1, "")
        assert err.startswith("catgeo: parse error: bad endpoint literal '-1x'")

    def test_unknown_option_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interval", "norm", "-31/7", "31/14", "--bogus"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


# ids mixing what JSON escapes (quotes, backslashes, control characters, a
# lone surrogate) with non-ASCII text; composite ids add the separator ∘
_ID_CHARS = st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\ud800é∘x') | st.characters()
_GENERATOR_IDS = st.text(_ID_CHARS, min_size=1, max_size=4).filter(lambda s: "∘" not in s and not s.startswith("id:"))


def _table_json(category, norms) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table(category, norms, as_json=True)
    return out.getvalue()


def _dumps_entries(category, norms) -> str:
    """What table --json printed through the generic encoder, over the rows of the table."""
    rows = list(anticommutator_table(category, norms))
    entries = [{"f": f, "g": g, "anticommutator": _terms_dict(scalar, terms, norms)} for f, g, scalar, terms in rows]
    return json.dumps({"entries": entries}, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


class TestTableWriter:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_stdlib_encoder(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        objects = ["o%d" % i for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=5) if pairs else st.just([]))
        ids = data.draw(st.lists(_GENERATOR_IDS, min_size=len(edges), max_size=len(edges), unique=True))
        cat = build_free(objects, [(gid, objects[i], objects[j]) for gid, (i, j) in zip(ids, edges)])
        norms = {v: data.draw(st.integers(min_value=0, max_value=10**20)) for v in cat.vectors}
        assert _table_json(cat, norms) == _dumps_entries(cat, norms)

    @settings(max_examples=60, deadline=None)
    @given(concrete_categories(), st.data())
    def test_categories_with_cycles_match_the_stdlib_encoder(self, cat, data):
        # a pair that composes in both orders (an endomorphism and itself or
        # another, an isomorphism and its inverse) has a scalar-only row
        norms = {v: data.draw(st.sampled_from((0, 1, 3, 10**20))) for v in cat.vectors}
        assert _table_json(cat, norms) == _dumps_entries(cat, norms)

    def test_ids_with_format_and_escape_characters(self):
        # a % in an id breaks a row text that is %-formatted again after the
        # id is in it; the hypothesis alphabet rarely draws one
        free = build_free(["x", "y", "z"], [("%s", "x", "y"), ("%%", "y", "z"), ('"', "x", "y"), ("\\", "y", "z"), ("é%", "x", "z")])
        # one object: every pair composes in both orders, so rows are scalar only
        c3 = {("%", "%"): "a%db", ("%", "a%db"): "id:o", ("a%db", "%"): "id:o", ("a%db", "a%db"): "%"}
        loops = build_explicit(["o"], [("%", "o", "o"), ("a%db", "o", "o")], c3)
        # an iso whose ids hold ∘, and an arrow that composes with one of them only
        iso = build_explicit(
            ["x", "y", "z"],
            [("é∘ü", "x", "y"), ("%d∘\\", "y", "x"), ('"%s"', "y", "z"), ('"%s"∘é∘ü', "x", "z")],
            {("é∘ü", "%d∘\\"): "id:x", ("%d∘\\", "é∘ü"): "id:y", ("é∘ü", '"%s"'): '"%s"∘é∘ü', ("%d∘\\", '"%s"∘é∘ü'): '"%s"'},
        )
        assert validate_axioms(iso) == validate_axioms(loops) == []
        kinds = set()
        for cat in (free, loops, iso):
            norms = {v: i + 1 for i, v in enumerate(cat.vectors)}
            kinds |= {"blade" if terms else "scalar" if scalar else "zero" for *_, scalar, terms in anticommutator_table(cat, norms)}
            assert _table_json(cat, norms) == _dumps_entries(cat, norms)
        assert kinds == {"zero", "scalar", "blade"}

    def test_category_with_no_vectors(self):
        cat = build_free(["o"], [])
        assert _table_json(cat, {}) == _dumps_entries(cat, {}) == '{\n  "entries": []\n}\n'

    def test_writes_one_chunk_per_f(self, po6_file, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": lambda self, text: writes.append(text)})())
        assert main(["table", po6_file, "--json"]) == 0
        vectors = builtin_category("po6").vectors
        assert len(writes) == len(vectors) + 2  # opening, one chunk per f, closing
        for chunk, f in zip(writes[1:-1], vectors):
            assert chunk.count('"f": ') == chunk.count('"f": "%s",' % f) == len(vectors)
        assert json.loads("".join(writes))["entries"][14] == {
            "f": "a0->a4",
            "g": "a0->a4",
            "anticommutator": {"scalar": 8, "blades": []},
        }


def _table_text(category, norms) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table(category, norms, as_json=False)
    return out.getvalue()


def _format_rows(category, norms) -> str:
    """What text table printed through format_terms, one line per row of the table."""
    rows = anticommutator_table(category, norms)
    return "".join("%s %s: %s\n" % (f, g, format_terms(scalar, terms)) for f, g, scalar, terms in rows)


class TestTextTableWriter:
    # norm 0 makes the scalar of a pair that composes in one order 0, so its
    # row is a blade with no leading scalar
    NORMS = st.sampled_from((0, 1, 3, 10**20))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_format_terms_on_free_categories(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        objects = ["o%d" % i for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=5) if pairs else st.just([]))
        ids = data.draw(st.lists(_GENERATOR_IDS, min_size=len(edges), max_size=len(edges), unique=True))
        cat = build_free(objects, [(gid, objects[i], objects[j]) for gid, (i, j) in zip(ids, edges)])
        norms = {v: data.draw(self.NORMS) for v in cat.vectors}
        assert _table_text(cat, norms) == _format_rows(cat, norms)

    @settings(max_examples=60, deadline=None)
    @given(concrete_categories(), st.data())
    def test_matches_format_terms_on_categories_with_cycles(self, cat, data):
        norms = {v: data.draw(self.NORMS) for v in cat.vectors}
        assert _table_text(cat, norms) == _format_rows(cat, norms)

    def test_ids_with_format_characters_separators_and_newlines(self):
        # a % would break a row formatted again after its ids are in it, and
        # ": 0", a space or a newline in an id must pass through unchanged
        free = build_free(["x", "y", "z"], [("%s", "x", "y"), ("a: 0", "y", "z"), ("b c", "x", "y"), ("\n%d", "y", "z")])
        c3 = {("%", "%"): "a: 0", ("%", "a: 0"): "id:o", ("a: 0", "%"): "id:o", ("a: 0", "a: 0"): "%"}
        loops = build_explicit(["o"], [("%", "o", "o"), ("a: 0", "o", "o")], c3)
        assert validate_axioms(loops) == []
        for cat in (loops, free):
            norms = {v: i for i, v in enumerate(cat.vectors)}  # the first vector, "\n%d" in free, has norm 0
            text = _table_text(cat, norms)
            assert text == _format_rows(cat, norms)
        # in free: a zero row, a scalar row, a blade row with a scalar and one without
        for row in ("%s b c: 0", "%s %s: 18", "%s a: 0: 12 - (%s∧a: 0)", "%s \n%d: + (\n%d∧%s)"):
            assert "\n%s\n" % row in text

    def test_writes_one_chunk_per_f(self, po6_file, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": lambda self, text: writes.append(text)})())
        assert main(["table", po6_file]) == 0
        vectors = builtin_category("po6").vectors
        chunks = [text for text in writes if text]  # text mode has no head or tail
        assert len(chunks) == len(vectors)
        for chunk, f in zip(chunks, vectors):
            assert [line.split(" ")[0] for line in chunk.splitlines()] == [f] * len(vectors)
        assert "".join(writes).splitlines()[14] == "a0->a4 a0->a4: 8"


class TestErrors:
    def test_thin_id_collision_is_a_parse_error(self, capsys, tmp_path):
        doc = tmp_path / "clash.json"
        doc.write_text(
            json.dumps(
                {
                    "mode": "thin",
                    "objects": ["x", "y", "z"],
                    "arrows": [{"id": "x->z", "dom": "x", "cod": "y"}, {"id": "g2", "dom": "y", "cod": "z"}],
                }
            ),
            encoding="utf-8",
        )
        for command in ("validate", "norms", "clifford"):
            status, out, err = run(capsys, command, str(doc))
            assert (status, out) == (1, "")
            assert err.startswith("catgeo: parse error:")

    def test_two_derived_arrows_with_one_name_are_a_parse_error(self, capsys, tmp_path):
        # p -> q->r and p->q -> r would both be named p->q->r: validate
        # refuses the document while it loads, though it reads no arrow
        doc = tmp_path / "coincide.json"
        generators = [("g1", "p", "m"), ("g2", "m", "q->r"), ("g3", "p->q", "n"), ("g4", "n", "r")]
        doc.write_text(
            json.dumps(
                {
                    "mode": "thin",
                    "objects": ["p", "m", "q->r", "p->q", "n", "r"],
                    "arrows": [{"id": g, "dom": d, "cod": c} for g, d, c in generators],
                }
            ),
            encoding="utf-8",
        )
        status, out, err = run(capsys, "validate", str(doc))
        assert (status, out) == (1, "")
        assert err == "catgeo: parse error: derived arrow p->q -> r would be named 'p->q->r', which is already taken\n"

    def test_oversized_free_chain_exits_2_without_traceback(self, capsys, tmp_path):
        n = 1100
        objects = ["o%d" % i for i in range(n)]
        arrows = [{"id": "g%d" % i, "dom": objects[i], "cod": objects[i + 1]} for i in range(n - 1)]
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps({"mode": "free", "objects": objects, "arrows": arrows}), encoding="utf-8")
        status, out, err = run(capsys, "norms", str(doc))
        assert (status, out) == (2, "")
        assert err.startswith("catgeo: error:") and str(n * (n - 1) // 2) in err
        assert "Traceback" not in err

    def test_oversized_thin_chain_exits_2_without_traceback(self, capsys, tmp_path):
        # a chain of n objects has n(n-1)/2 arrows in its thin category
        objects = ["o%d" % i for i in range(1100)]
        arrows = [{"id": "g%d" % i, "dom": a, "cod": b} for i, (a, b) in enumerate(zip(objects, objects[1:]))]
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps({"mode": "thin", "objects": objects, "arrows": arrows}), encoding="utf-8")
        status, out, err = run(capsys, "norms", str(doc))
        assert (status, out, err) == (2, "", "catgeo: error: thin category would have more than 20000 arrows\n")

    @pytest.mark.parametrize(
        "data, name",
        [
            (
                {
                    "mode": "thin",
                    "objects": ["x", "a", "b"],
                    "arrows": [
                        {"id": "f", "dom": "x", "cod": "a"},
                        {"id": "g", "dom": "a", "cod": "b"},
                        {"id": "h", "dom": "b", "cod": "a"},
                    ],
                },
                "a",
            ),
            (
                {
                    "mode": "free",
                    "objects": ["a", "b"],
                    "arrows": [{"id": "f", "dom": "a", "cod": "b"}, {"id": "g", "dom": "b", "cod": "b"}],
                },
                "b",
            ),
        ],
        ids=["thin 2-cycle", "free self-loop"],
    )
    def test_cyclic_document_exits_2_naming_an_object_on_the_cycle(self, capsys, tmp_path, data, name):
        # the first object in document order only leads to the cycle
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        expected = (2, "", "catgeo: error: directed cycle through '%s'\n" % name)
        for argv in (["norms", str(path)], ["norms", str(path), "--json"], ["validate", str(path)]):
            assert run(capsys, *argv) == expected, argv

    def test_norms_and_basis_at_the_arrow_cap_stay_small(self, tmp_path):
        # a thin chain of 200 objects has 19,900 arrows, just under
        # MAX_FREE_PATHS; a stored table of its 1.35 million composites
        # alone took about 190 MB, the table computed by rule needs none
        n = 200
        objects = ["o%d" % i for i in range(n)]
        arrows = [{"id": "g%d" % i, "dom": a, "cod": b} for i, (a, b) in enumerate(zip(objects, objects[1:]))]
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps({"mode": "thin", "objects": objects, "arrows": arrows}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(catgeo.__file__).parents[1]))
        # a fresh parent process, so that its RUSAGE_CHILDREN peak (in KiB
        # on Linux) is that of the one catgeo run and of no earlier child
        code = (
            "import resource, subprocess, sys; "
            "proc = subprocess.run(sys.argv[1:], capture_output=True, text=True); "
            "sys.stdout.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) + '\\n' + proc.stdout); "
            "sys.stderr.write(proc.stderr); "
            "sys.exit(proc.returncode)"
        )
        outputs = {}
        for command in ("norms", "basis"):
            argv = [sys.executable, "-c", code, sys.executable, "-m", "catgeo.cli", command, "--json", str(doc)]
            proc = subprocess.run(argv, capture_output=True, text=True, encoding="utf-8", env=env)
            assert proc.returncode == 0, proc.stderr
            peak_kib, out = proc.stdout.split("\n", 1)
            assert int(peak_kib) < 40 * 1024, "%s peaked at %s KiB" % (command, peak_kib)
            outputs[command] = json.loads(out)
        norms = outputs["norms"]["norms"]
        assert len(norms) == n * (n - 1) // 2
        assert norms["o0->o%d" % (n - 1)] == n - 1
        assert outputs["basis"]["basis"] == sorted(g["id"] for g in arrows)

    @pytest.mark.parametrize(
        "json_flag, size, digest",
        [
            ([], 12346428, "ce6bd98572cf5a6530480dac2981fd5630434955c114c4de07cb38eff1d1de4d"),
            (["--json"], 84270516, "fbb043e184eaf69a52d8104f6c0a4b9b84672488fa8f3d582623293e921a186c"),
        ],
        ids=["text", "json"],
    )
    def test_table_streams_its_rows_in_small_memory(self, tmp_path, json_flag, size, digest):
        # a thin chain of 40 objects has 780 arrows and 608,400 table rows;
        # held as one list they took about 68 MB, made one f at a time they
        # need a few; the output is hashed as it arrives, never held
        objects = ["o%d" % i for i in range(40)]
        arrows = [{"id": "g%d" % i, "dom": a, "cod": b} for i, (a, b) in enumerate(zip(objects, objects[1:]))]
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps({"mode": "thin", "objects": objects, "arrows": arrows}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(catgeo.__file__).parents[1]))
        # as above, a fresh parent process measures the one catgeo run
        code = (
            "import hashlib, resource, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)\n"
            "digest, size = hashlib.sha256(), 0\n"
            "for chunk in iter(lambda: proc.stdout.read(1 << 16), b''):\n"
            "    digest.update(chunk)\n"
            "    size += len(chunk)\n"
            "status = proc.wait()\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, size, digest.hexdigest())\n"
            "sys.exit(status)\n"
        )
        argv = [sys.executable, "-c", code, sys.executable, "-m", "catgeo.cli", "table", str(doc), *json_flag]
        proc = subprocess.run(argv, capture_output=True, text=True, encoding="utf-8", env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        peak_kib, out_size, out_digest = proc.stdout.split()
        assert (int(out_size), out_digest) == (size, digest)
        assert int(peak_kib) < 40 * 1024, "table peaked at %s KiB" % peak_kib

    def test_ungenerated_arrows_exit_2(self, capsys, tmp_path):
        # the cyclic group of order 3 (a∘a = b, b∘b = a, a∘b = b∘a = id:o)
        # is valid, but every arrow is a composite: the basis is empty and
        # no norm exists
        compositions = [("a", "a", "b"), ("a", "b", "id:o"), ("b", "a", "id:o"), ("b", "b", "a")]
        doc = tmp_path / "c3.json"
        doc.write_text(
            json.dumps(
                {
                    "mode": "explicit",
                    "objects": ["o"],
                    "arrows": [{"id": "a", "dom": "o", "cod": "o"}, {"id": "b", "dom": "o", "cod": "o"}],
                    "compositions": [{"f": f, "g": g, "result": result} for f, g, result in compositions],
                }
            ),
            encoding="utf-8",
        )
        for argv in (["norms"], ["norms", "--json"], ["clifford"], ["table"], ["table", "--json"], ["dot"]):
            status, out, err = run(capsys, *argv, str(doc))
            assert (argv, status, out, err) == (argv, 2, "", "catgeo: error: arrows not generated by the basis: a, b\n")
        assert run(capsys, "basis", str(doc)) == (0, "", "")
        assert run(capsys, "basis", "--json", str(doc)) == (0, '{\n  "basis": []\n}\n', "")
        assert run(capsys, "validate", str(doc)) == (0, "violations: 0\n", "")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_reader_closing_stdout_early_is_not_an_error(self, tmp_path, json_flag):
        # `catgeo table chain.json | head -1`: the table of a 40-object thin
        # chain (780 arrows) is far larger than a pipe buffer, so catgeo is
        # still writing when the reader goes; it stops silently, exit 0
        objects = ["o%d" % i for i in range(40)]
        arrows = [{"id": "g%d" % i, "dom": a, "cod": b} for i, (a, b) in enumerate(zip(objects, objects[1:]))]
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps({"mode": "thin", "objects": objects, "arrows": arrows}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(catgeo.__file__).parents[1]))
        # a text stream opened without an encoding would fail the run
        warnings = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        argv = [sys.executable, *warnings, "-m", "catgeo.cli", "table", str(doc), *json_flag]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (first, proc.wait(), err) == (b"{\n" if json_flag else b"g0 g0: 2\n", 0, b"")

    def test_closed_pipe_sends_fd_1_to_devnull(self, capsys, monkeypatch, po6_file, tmp_path):
        # in process, a stand-in stdout whose fd is a temp file's, so the
        # dup2 of the branch never touches this process's own fd 1
        with open(tmp_path / "stdout", "w", encoding="utf-8") as stand_in_fd:

            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    pass

                def fileno(self):
                    return stand_in_fd.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            status = main(["basis", po6_file])
            now, devnull = os.fstat(stand_in_fd.fileno()), os.stat(os.devnull)
        assert (status, capsys.readouterr().err) == (0, "")
        assert (now.st_dev, now.st_ino, now.st_rdev) == (devnull.st_dev, devnull.st_ino, devnull.st_rdev)

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "norms", "/nonexistent/file.json")
        assert status == 1

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        status, _, err = run(capsys, "validate", str(bad))
        assert status == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[" * 200000, "nested too deeply"),
            (b'{"mode": "thin", "objects": ["\xff"]}', "not valid UTF-8"),
            (b'{"mode": "thin", "objects": ["a"], "n": ' + b"1" * 4301 + b"}", "invalid JSON"),
        ],
        ids=["nested-too-deeply", "not-utf-8", "integer-too-long"],
    )
    def test_malformed_document_is_a_parse_error(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for command in ("validate", "table"):
            status, out, err = run(capsys, command, str(bad))
            assert (status, out) == (1, "")
            assert err.startswith("catgeo: parse error:") and message in err
            assert "Traceback" not in err

    def test_stdin_not_utf8_is_a_parse_error_under_any_locale(self):
        # UTF-8 mode, like the C and POSIX locales, gives sys.stdin the
        # surrogateescape handler, which would let the 0xff byte through
        document = b'{"mode": "thin", "objects": ["a\xff", "b"], "arrows": []}'
        env = dict(os.environ, PYTHONPATH=str(Path(catgeo.__file__).parents[1]), PYTHONUTF8="1")
        argv = [sys.executable, "-m", "catgeo.cli", "validate", "-"]
        proc = subprocess.run(argv, input=document, capture_output=True, env=env, check=False)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"catgeo: parse error: stdin is not valid UTF-8")

    @pytest.mark.parametrize(
        "data, name",
        [
            ({"mode": "thin", "objects": ["\ud800", "b"]}, "'\\ud800'"),
            ({"mode": "free", "objects": ["a", "b"], "arrows": [{"id": "\udc80", "dom": "a", "cod": "b"}]}, "'\\udc80'"),
            ({"mode": "explicit", "objects": ["a"], "arrows": [{"id": "e\udc80", "dom": "a", "cod": "a"}]}, "'e\\udc80'"),
        ],
        ids=["object", "generator", "explicit arrow"],
    )
    def test_lone_surrogate_in_an_id_is_a_parse_error(self, capsys, tmp_path, data, name):
        # loaded, such an id would make embed and dot fail to encode it
        # (exit 2), and basis, norms and table --json write bytes that are
        # not UTF-8
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        expected = (1, "", "catgeo: parse error: id %s is not Unicode text: it holds a lone surrogate\n" % name)
        for command in ("validate", "basis", "norms", "table", "clifford", "embed", "dot", "product"):
            argv = [command, str(path)] + (["a", "b"] if command == "product" else [])
            assert run(capsys, *argv) == expected, command

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"mode": "thin", "objects": ["a", "id:x"]}, "bad object id 'id:x'"),
            (
                {"mode": "free", "objects": ["a", "b"], "arrows": [{"id": "p∘q", "dom": "a", "cod": "b"}]},
                "generator id 'p∘q' contains the reserved separator",
            ),
            (
                {
                    "mode": "explicit",
                    "objects": ["a", "b", "c"],
                    "arrows": [
                        {"id": "f", "dom": "a", "cod": "b"},
                        {"id": "g", "dom": "b", "cod": "c"},
                        {"id": "h", "dom": "a", "cod": "c"},
                    ],
                    "compositions": [{"f": "f", "g": "g", "result": "h"}] * 2,
                },
                "duplicate composition entry (f, g)",
            ),
        ],
        ids=["identity-like object", "separator in a free generator", "duplicate entry"],
    )
    def test_presentation_refused_on_load_exits_1(self, capsys, tmp_path, data, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run(capsys, "validate", str(path)) == (1, "", "catgeo: parse error: %s\n" % message)

    def test_stdin_not_utf8_is_a_parse_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
        status, out, err = run(capsys, "validate", "-")
        assert (status, out) == (1, "")
        assert err.startswith("catgeo: parse error: stdin is not valid UTF-8")

    @pytest.mark.parametrize("endpoint", ["1e999999999", "1e-999999999"])
    def test_huge_exponent_is_a_parse_error(self, capsys, endpoint):
        status, out, err = run(capsys, "interval", "norm", "0", endpoint)
        assert (status, out) == (1, "")
        assert err.startswith("catgeo: parse error:") and "exponent" in err

    def test_literal_too_long_to_print_is_a_parse_error(self, capsys):
        # each exponent is within the limit, but the value has one digit more
        limit = sys.get_int_max_str_digits()
        wide = "%s.%s" % ("1" * (limit // 2 + 1), "1" * (limit // 2 + 1))
        for ends in (("0", "1e%d" % limit), ("0", "1e-%d" % limit), ("0", wide), ("-" + wide, "0")):
            status, out, err = run(capsys, "interval", "norm", *ends)
            assert (status, out) == (1, "")
            assert err.startswith("catgeo: parse error: bad endpoint literal") and "more than %d digits" % limit in err
        status, out, _ = run(capsys, "interval", "norm", "0", "1e%d" % (limit - 1))
        assert (status, len(out)) == (0, limit + 1)

    # the literals assume the default limit of 4300 digits
    @pytest.mark.parametrize(
        "argv",
        [
            ("product", "0", "1e2200", "1e2200", "2e2200"),
            ("product", "0", "1e2200", "1e2200", "2e2200", "--json"),
            # inner fg = 5.041e4299 prints, fg + gf = 2 × that does not
            ("product", "0", "7.1e2149", "0", "7.1e2149"),
            ("product", "0", "7.1e2149", "0", "7.1e2149", "--json"),
            # both ends have 4300 digits, their distance 4301
            ("norm", "-" + "9" * 4300, "9e4299"),
            ("norm", "-" + "9" * 4300, "9e4299", "--json"),
        ],
    )
    def test_result_too_long_to_print_is_an_error(self, capsys, argv):
        status, out, err = run(capsys, "interval", *argv)
        assert (status, out) == (2, "")
        assert err == (
            "catgeo: error: result has more than %d digits, "
            "the limit sys.get_int_max_str_digits() sets on printing a number\n" % sys.get_int_max_str_digits()
        )


def test_cli_imports_no_dataclasses_typing_or_inspect():
    # README promises the CLI loads nothing it does not use; src goes first
    # on sys.path, so this checkout's catgeo is the one imported
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import catgeo.cli; "
        "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(catgeo.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, encoding="utf-8", check=True
    )
    assert (proc.stdout, proc.stderr) == ("[]\n", "")


def test_src_modules_use_every_name_they_import():
    # a deletion can leave its imports behind, unused; __init__ imports to
    # re-export, and a __future__ import binds no name
    unused = []
    for path in sorted(Path(catgeo.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}  # an attribute's base is a Name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append("%s:%d: %s" % (path.name, node.lineno, name))
    assert unused == []


def test_src_reads_every_private_name_it_defines():
    # a private function, class or constant that only the tests read is dead
    # code the tests keep alive; a function calling itself does not count
    paths = Path(catgeo.__file__).parent.glob("*.py")
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}

    def reads(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from (alias.name for alias in node.names)

    read = Counter(name for tree in trees.values() for name in reads(tree))
    defined, unread = [], []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, own = [node.name], Counter(reads(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
                own = Counter()
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append(name)
                    if read[name] <= own[name]:
                        unread.append("%s:%d: %s" % (module, node.lineno, name))
    assert defined  # the walk finds them
    assert unread == []


def test_cli_chooses_json_or_text_in_one_writer():
    # every record subcommand prints through _write; table, whose rows
    # render streams, is the one other reader of --json
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    dumps, reads = [], []
    for top in tree.body:
        where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_json_text":
                dumps.append(where)
            elif isinstance(node, ast.Attribute) and node.attr == "json" and isinstance(node.value, ast.Name):
                reads.append("%s:%s" % (where, node.value.id))
    assert dumps == ["_write"]
    assert reads == ["_write:args", "cmd_table:args"]


_SUBCOMMANDS = ("validate", "basis", "norms", "table", "clifford", "embed", "dot", "product", "example", "interval")


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in _SUBCOMMANDS])
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    assert out.startswith(" ".join(["usage: catgeo", *argv[:-1], "[-h]"]))


def test_runs_as_main_module(capsys, monkeypatch, po6_file):
    # `python -m catgeo.cli`; runpy warns as the test run imported it already
    monkeypatch.setattr(sys, "argv", ["catgeo", "basis", po6_file])
    with pytest.warns(RuntimeWarning, match="'catgeo.cli' found in sys.modules"), pytest.raises(SystemExit) as info:
        runpy.run_module("catgeo.cli", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out == "e1\ne2\ne3\ne4\ne5\ne6\n"


class TestRepeatedMain:
    def test_one_process_matches_fresh_processes(self, capsys, monkeypatch, po6_file):
        # main keeps one parser per process; later calls must not see
        # anything an earlier call left behind
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to this width
        commands = [["norms", "--bogus"], ["interval", "norm", "-31/7", "31/14"], ["norms", po6_file, "--json"]]
        env = dict(os.environ, PYTHONPATH=str(Path(catgeo.__file__).parents[1]))
        fresh = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "catgeo.cli", *argv],
                capture_output=True,
                text=True,
                encoding="utf-8",
                env=env,
                check=False,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert fresh[0][0] == 1 and "unrecognized arguments: --bogus" in fresh[0][2]
        for _ in range(2):
            for argv, expected in zip(commands, fresh):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
                captured = capsys.readouterr()
                assert (status, captured.out, captured.err) == expected


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    # every command README shows under "CLI" exits 0, in its order (the
    # first writes the po6.json the others read)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("catgeo ")]
    assert len(lines) >= 14
    monkeypatch.chdir(tmp_path)
    for line in lines:
        status, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert (line, status, err) == (line, 0, "")
