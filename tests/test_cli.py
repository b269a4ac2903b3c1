import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import catgeo
from catgeo import (
    anticommutator_table,
    atomic_basis,
    build_explicit,
    build_free,
    builtin_category,
    compute_norms,
    validate_axioms,
)
from catgeo.cli import _terms_dict, _write_table_json, main
from catgeo.documents import CategoryDocument, builtin_document, document_to_json

from helpers import closed_form_anticommutator


@pytest.fixture()
def po6_file(tmp_path):
    path = tmp_path / "po6.json"
    path.write_text(builtin_document("po6"))
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

        monkeypatch.setattr(sys, "stdin", io.StringIO(builtin_document("po6")))
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
            )
        )
        status, out, _ = run(capsys, "validate", str(bad))
        assert status == 2
        assert "violations: 0" not in out

    @pytest.mark.parametrize("name, calls", [("po6", 0), ("path3", 0), ("po6 as explicit", 1)])
    def test_each_document_is_validated_at_most_once(self, capsys, monkeypatch, tmp_path, name, calls):
        # thin and free categories hold by construction and are never
        # checked; an explicit table is checked once, as it loads
        import catgeo.cli
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
        path.write_text(text)
        counted = []
        for module in (catgeo.cli, catgeo.documents):
            if hasattr(module, "validate_axioms"):
                check = module.validate_axioms
                monkeypatch.setattr(module, "validate_axioms", lambda cat, check=check: counted.append(1) or check(cat))
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
            document_to_json(CategoryDocument("explicit", ["o"], arrows, [(f, g, r) for (f, g), r in table.items()]))
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

    def test_table_json_of_one_object(self, capsys, tmp_path):
        doc = tmp_path / "point.json"
        doc.write_text(json.dumps({"mode": "thin", "objects": ["a"], "arrows": []}))
        assert run(capsys, "table", str(doc), "--json") == (0, '{\n  "entries": []\n}\n', "")

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
        assert json.loads(target.read_text())["mode"] == "thin"

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


def _table_json(rows, norms) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table_json(rows, norms)
    return out.getvalue()


def _dumps_entries(rows, norms) -> str:
    """What table --json printed through the generic encoder."""
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
        vectors = cat.vectors
        norms = {v: data.draw(st.integers(min_value=0, max_value=10**20)) for v in vectors}
        rows = anticommutator_table(cat, norms)
        assert _table_json(rows, norms) == _dumps_entries(rows, norms)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_rows_match_the_stdlib_encoder(self, data):
        # rows the table never makes (several blades, any integers) keep the format too
        ids = data.draw(st.lists(st.text(_ID_CHARS, max_size=3), min_size=1, max_size=4, unique=True))
        ints = st.integers(min_value=-(10**30), max_value=10**30)
        norms = {v: data.draw(ints) for v in ids}
        rows = data.draw(
            st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids), ints,
                               st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids), ints), max_size=3)))
        )
        rows.sort(key=lambda row: row[0])  # the writer groups the rows of each f
        assert _table_json(rows, norms) == _dumps_entries(rows, norms)

    def test_ids_with_format_and_escape_characters(self):
        # a % in an id breaks a row text that is %-formatted again after the
        # id is in it; the hypothesis alphabet rarely draws one
        ids = ["%", "%s", "%%", "a%db", '"', "\\", "é∘ü"]
        norms = {v: i + 1 for i, v in enumerate(ids)}
        rows = []
        for i, f in enumerate(ids):
            for j, g in enumerate(ids):
                kind = (i + j) % 4
                if kind == 0:
                    rows.append((f, g, 0, ()))
                elif kind == 1:
                    rows.append((f, g, 0, []))  # a zero row whose terms is an empty list
                elif kind == 2:
                    rows.append((f, g, norms[f] * norms[g], ()))
                else:
                    rows.append((f, g, 0, ((min(f, g), max(f, g), 1 if f < g else -1),)))
        assert _table_json(rows, norms) == _dumps_entries(rows, norms)
        assert _table_json(iter(rows), norms) == _dumps_entries(rows, norms)
        cat = build_free(["x", "y", "z"], [("%s", "x", "y"), ("%%", "y", "z"), ('"', "x", "y"), ("\\", "y", "z"), ("é%", "x", "z")])
        norms = compute_norms(cat, atomic_basis(cat))
        rows = anticommutator_table(cat, norms)
        assert any(not scalar and not terms for _, _, scalar, terms in rows)
        assert any(scalar for _, _, scalar, _ in rows) and any(terms for *_, terms in rows)
        assert _table_json(rows, norms) == _dumps_entries(rows, norms)

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
            )
        )
        for command in ("validate", "norms", "clifford"):
            status, out, err = run(capsys, command, str(doc))
            assert (status, out) == (1, "")
            assert err.startswith("catgeo: parse error:")

    def test_oversized_free_chain_exits_2_without_traceback(self, capsys, tmp_path):
        n = 1100
        objects = ["o%d" % i for i in range(n)]
        arrows = [{"id": "g%d" % i, "dom": objects[i], "cod": objects[i + 1]} for i in range(n - 1)]
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps({"mode": "free", "objects": objects, "arrows": arrows}))
        status, out, err = run(capsys, "norms", str(doc))
        assert (status, out) == (2, "")
        assert err.startswith("catgeo: error:") and str(n * (n - 1) // 2) in err
        assert "Traceback" not in err

    def test_oversized_thin_chain_exits_2_without_traceback(self, capsys, tmp_path):
        # a chain of n objects has n(n-1)/2 arrows in its thin category
        objects = ["o%d" % i for i in range(1100)]
        arrows = [{"id": "g%d" % i, "dom": a, "cod": b} for i, (a, b) in enumerate(zip(objects, objects[1:]))]
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps({"mode": "thin", "objects": objects, "arrows": arrows}))
        status, out, err = run(capsys, "norms", str(doc))
        assert (status, out, err) == (2, "", "catgeo: error: thin category would have more than 20000 arrows\n")

    def test_norms_and_basis_at_the_arrow_cap_stay_small(self, tmp_path):
        # a thin chain of 200 objects has 19,900 arrows, just under
        # MAX_FREE_PATHS; a stored table of its 1.35 million composites
        # alone took about 190 MB, the table computed by rule needs none
        n = 200
        objects = ["o%d" % i for i in range(n)]
        arrows = [{"id": "g%d" % i, "dom": a, "cod": b} for i, (a, b) in enumerate(zip(objects, objects[1:]))]
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps({"mode": "thin", "objects": objects, "arrows": arrows}))
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
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            peak_kib, out = proc.stdout.split("\n", 1)
            assert int(peak_kib) < 40 * 1024, "%s peaked at %s KiB" % (command, peak_kib)
            outputs[command] = json.loads(out)
        norms = outputs["norms"]["norms"]
        assert len(norms) == n * (n - 1) // 2
        assert norms["o0->o%d" % (n - 1)] == n - 1
        assert outputs["basis"]["basis"] == sorted(g["id"] for g in arrows)

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
            )
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
        doc.write_text(json.dumps({"mode": "thin", "objects": objects, "arrows": arrows}))
        env = dict(os.environ, PYTHONPATH=str(Path(catgeo.__file__).parents[1]))
        argv = [sys.executable, "-m", "catgeo.cli", "table", str(doc), *json_flag]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (first, proc.wait(), err) == (b"{\n" if json_flag else b"g0 g0: 2\n", 0, b"")

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "norms", "/nonexistent/file.json")
        assert status == 1

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        status, _, err = run(capsys, "validate", str(bad))
        assert status == 1

    @pytest.mark.parametrize(
        "content, message",
        [(b"[" * 200000, "nested too deeply"), (b'{"mode": "thin", "objects": ["\xff"]}', "not valid UTF-8")],
    )
    def test_malformed_document_is_a_parse_error(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for command in ("validate", "table"):
            status, out, err = run(capsys, command, str(bad))
            assert (status, out) == (1, "")
            assert err.startswith("catgeo: parse error:") and message in err
            assert "Traceback" not in err

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


def test_import_loads_neither_dataclasses_nor_typing():
    # every cold start pays for what the CLI imports; -S keeps site hooks,
    # which may import typing themselves, out of the measurement
    env = dict(os.environ, PYTHONPATH=str(Path(catgeo.__file__).parents[1]))
    code = "import catgeo.cli, sys; print(sorted({'dataclasses', 'typing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"


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
                [sys.executable, "-m", "catgeo.cli", *argv], capture_output=True, text=True, env=env, check=False
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
