import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catgeo
from catgeo import builtin_category, compute_norms, atomic_basis
from catgeo.cli import main
from catgeo.documents import builtin_document

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
        status, _, _ = run(capsys, "interval", "norm", "1")
        assert status == 1

    def test_negative_fraction_literal(self, capsys):
        status, out, err = run(capsys, "interval", "norm", "-31/7", "31/14")
        assert (status, out, err) == (0, "93/14\n", "")

    def test_negative_decimal_literal(self, capsys):
        status, out, _ = run(capsys, "interval", "product", "-0.250", "1/3", "1/3", "2", "--json")
        assert status == 0
        assert json.loads(out)["inner_fg"] == "35/36"

    def test_unknown_option_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interval", "norm", "-31/7", "31/14", "--bogus"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


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

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "norms", "/nonexistent/file.json")
        assert status == 1

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        status, _, err = run(capsys, "validate", str(bad))
        assert status == 1


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
