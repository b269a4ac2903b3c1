"""Self-tests for the benchmark: oracles reject wrong answers, seeds fix inputs.

Run from the root of the repository:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
from pathlib import Path

import pytest

import docgen
import oracles
import run
import workloads

LIB = run.load_library()


@pytest.fixture
def tmp_path():
    """A scratch directory inside the checkout's ignored .bench_build/."""
    path = run.BUILD / ("selftest-%d" % os.getpid())
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def _workload(name, seed, base):
    workdir = base / ("%s-%d" % (name, seed))
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, str(workdir), LIB)
    workload.setup()
    workload.prepare()
    return workload


def _files(workdir):
    return {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_documents(name, tmp_path):
    first = _workload(name, 7, tmp_path / "a")
    second = _workload(name, 7, tmp_path / "b")
    other = _workload(name, 8, tmp_path / "c")
    assert _files(first.workdir) == _files(second.workdir)
    assert repr(first.schedule).replace(first.workdir, "") == repr(second.schedule).replace(second.workdir, "")
    if name == "cli_cold":  # the shipped examples are fixed; the arguments vary
        assert first.invocations != other.invocations
    else:
        assert _files(first.workdir) != _files(other.workdir)


def _chain(n=5):
    return docgen.chain(random.Random(1), "chain", n)


def _free():
    return docgen.free_model("free", ["a", "b", "c"], [("u", "a", "b"), ("v", "a", "b"), ("w", "b", "c")])


def test_norm_oracle_rejects_off_by_one():
    model = _chain()
    good = json.dumps({"norms": model.norms, "zero": 0})
    assert oracles.check_norms(model, 0, good, "") is None
    wrong = dict(model.norms)
    longest = max(wrong, key=wrong.get)
    wrong[longest] += 1
    assert oracles.check_norms(model, 0, json.dumps({"norms": wrong, "zero": 0}), "") is not None


def test_dot_oracle_rejects_wrong_norm_label():
    model = _free()
    lines = ["digraph category {"] + ['  "%s";' % o for o in model.objects]
    edges = ['  "%s" -> "%s" [label="%s (%d)"];' % (d, c, a, model.norms[a]) for a, (d, c) in sorted(model.arrows.items())]
    good = "\n".join(lines + edges + ["}"]) + "\n"
    assert oracles.check_dot(model, 0, good, "") is None
    assert oracles.check_dot(model, 0, good.replace("(2)", "(1)"), "") is not None


def _table(model):
    vectors = sorted(model.arrows)
    entries = [{"f": f, "g": g, "anticommutator": oracles.mv_json(oracles.anticommutator(model, f, g), model.norms)}
               for f in vectors for g in vectors]
    return {"entries": entries}


def test_table_oracle_rejects_flipped_blade_sign():
    model = _free()
    table = _table(model)
    assert oracles.check_table(model, 0, json.dumps(table), "") is None
    entry = next(e for e in table["entries"] if e["anticommutator"]["blades"])
    entry["anticommutator"]["blades"][0]["coefficient"] *= -1
    assert oracles.check_table(model, 0, json.dumps(table), "") is not None


def test_product_oracle_rejects_flipped_blade_sign():
    model = _free()
    want = oracles.products(model, "u", "w")
    data = {k: oracles.mv_json(v, model.norms) if isinstance(v, tuple) else v for k, v in want.items()}
    assert oracles.check_product(model, "u", "w", 0, json.dumps(data), "") is None
    data["anticommutator"]["blades"][0]["coefficient"] *= -1
    assert oracles.check_product(model, "u", "w", 0, json.dumps(data), "") is not None


def test_closed_forms_agree_with_the_library_on_small_categories():
    for model in (_chain(6), _free(), docgen.builtins()["po6"]):
        category = LIB.documents.load_category(model.text())
        norms = LIB.vectors.compute_norms(category, LIB.vectors.atomic_basis(category))
        for f in model.arrows:
            for g in model.arrows:
                got = LIB.geometry.anticommutator(category, norms, f, g)
                assert workloads._plain(got) == oracles.anticommutator(model, f, g)
                try:
                    want = oracles.distance(model, f, g)
                except oracles.NoDifference:
                    with pytest.raises(LIB.errors.NoDifference):
                        LIB.vectors.distance(category, norms, f, g)
                else:
                    assert LIB.vectors.distance(category, norms, f, g) == want


def test_queries_rejects_a_wrong_distance(tmp_path):
    workload = _workload("queries", 3, tmp_path)
    api = run.make_api(LIB)
    op = next(op for op in workload.schedule if op[0] == "distance" and op[2] != op[3])
    assert workload.run(op, api)[1] == "ok"
    real = api.distance
    api.distance = lambda *args: real(*args) + 1
    assert workload.run(op, api)[1] != "ok"


def test_interval_oracle_matches_exact_arithmetic():
    assert oracles.check_interval("norm", ["1/2", "0.75"], 0, '{"norm": "1/4"}', "") is None
    assert oracles.check_interval("norm", ["1/2", "0.75"], 0, '{"norm": "1/3"}', "") is not None
    assert oracles.check_interval("add", ["0", "1", "2", "3"], 2, "", "catgeo: error: no\n") is None
    assert oracles.check_interval("add", ["0", "1", "2", "3"], 0, '{"lo": "0", "hi": "3"}', "") is not None
    assert oracles.check_interval("norm", ["1", "x"], 1, "", "catgeo: parse error: x\n") is None


def test_planted_violation_count_matches_the_library():
    from catgeo.category import build_explicit, validate_axioms

    rng = random.Random(5)
    model = docgen.planted(rng, docgen.free_stages(rng, "p", (4, 5), 40), "p")
    doc = model.doc
    table = {(c["f"], c["g"]): c["result"] for c in doc["compositions"]}
    category = build_explicit(doc["objects"], [(a["id"], a["dom"], a["cod"]) for a in doc["arrows"]], table)
    violations = validate_axioms(category)
    assert model.planted > 0
    assert len(violations) == model.planted
    assert {v.kind for v in violations} == {"associativity"}


def test_collision_oracle_accepts_a_fix_and_rejects_a_dropped_arrow():
    ok = [(0, "violations: 0\n", ""), (0, "", ""),
          (0, json.dumps({"norms": {"a": 1, "b": 1, "c": 2}, "zero": 0}), ""),
          (0, 'digraph category {\n  "x";\n  "y";\n  "z";\n'
              '  "x" -> "y" [label="a (1)"];\n  "x" -> "z" [label="c (2)"];\n  "y" -> "z" [label="b (1)"];\n}\n', "")]
    assert oracles.check_collision(ok) == "ok"
    assert oracles.check_collision([(1, "", "catgeo: parse error: generator clash\n")] * 4) == "ok"
    wrong = list(ok)
    wrong[2] = (0, json.dumps({"norms": {"a": 1, "b": 1}, "zero": 0}), "")
    assert oracles.check_collision(wrong) not in ("ok", "known")


def test_workloads_run_clean_on_a_short_schedule(tmp_path):
    api = run.make_api(LIB)
    verdicts = {}
    for name, count in (("structure", 50), ("products", 9), ("queries", 400)):
        workload = _workload(name, 11, tmp_path)
        verdicts[name] = {workload.run(op, api)[1] for op in workload.schedule[:count]}
    assert verdicts["structure"] <= {"ok", "known"}
    assert verdicts["products"] == {"ok"}
    assert verdicts["queries"] == {"ok"}


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
