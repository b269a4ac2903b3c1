"""Byte-for-byte CLI output against stored goldens.

`goldens/cli_products.json` pins the product commands (`clifford`,
`table`, `product`, `interval product`) as the implementation before the
shared pair kernel printed them (commit 5503b75).  It holds the built-ins
po6, path3 and parallel2, a seeded thin DAG and a seeded free multigraph
of about 40 arrows each.

`goldens/cli_structure.json` pins `validate` (text and `--json`),
`basis --json`, `norms` (text and `--json`) and `dot` (with and without
`--basis-only`) as the all-pairs implementation before the out-arrow
index printed them (commit 545917a).  Its documents are the same five
plus the two 40-arrow categories written as explicit tables, and two
explicit tables with planted violations: one composite swapped for a
parallel arrow (associativity) and two composites redirected to arrows
of the wrong type (dom/cod).

`goldens/cli_misc.json` pins the rest of the CLI on the built-ins po6,
path3 and parallel2, as the implementation before norms and bases became
plain data printed it (commit 1a31a32): `basis` (text), `embed` (text
and `--json`), `example`, `product` with an unknown or an identity
arrow id (exit 2, no stdout), and `interval norm` and `interval add`
(text and `--json`, negative fractions and exit-2 cases included).

`goldens/cli_records.json` pins the record subcommands that no other
file pins on the documents of `cli_structure.json`, as the
implementation before every record printed through one writer printed
them (commit 31cc369): `basis` (text), `embed` (text and `--json`) on
its six documents that are not built-ins, and `clifford` and `table`
(text and `--json`) on its four explicit tables.  The two with planted
violations exit 2 with nothing on stdout.

Each case stores the argv, exit status and stdout; outputs over 4 KB are
stored as a SHA-256 digest and a byte count.
"""

import hashlib
import json
from pathlib import Path

import pytest

from catgeo.cli import main


def _goldens(name):
    return json.loads((Path(__file__).parent / "goldens" / name).read_text(encoding="utf-8"))


PRODUCTS = _goldens("cli_products.json")
STRUCTURE = _goldens("cli_structure.json")
MISC = _goldens("cli_misc.json")
RECORDS = _goldens("cli_records.json")


def _case_id(case):
    return " ".join(case["document"] if arg == "DOC" else arg for arg in case["argv"])


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    # documents with one name in several files have the same text
    root = tmp_path_factory.mktemp("goldens")
    paths = {}
    for name, text in {**PRODUCTS["documents"], **STRUCTURE["documents"], **MISC["documents"], **RECORDS["documents"]}.items():
        paths[name] = root / (name + ".json")
        paths[name].write_text(text, encoding="utf-8")
    return paths


def _check(case, documents, capsys):
    argv = [str(documents[case["document"]]) if arg == "DOC" else arg for arg in case["argv"]]
    status = main(argv)
    out = capsys.readouterr().out
    assert status == case["status"]
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        data = out.encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (case["stdout_bytes"], case["stdout_sha256"])


@pytest.mark.parametrize("case", PRODUCTS["cases"], ids=_case_id)
def test_output_is_byte_identical(case, documents, capsys):
    _check(case, documents, capsys)


@pytest.mark.parametrize("case", STRUCTURE["cases"], ids=_case_id)
def test_structure_output_is_byte_identical(case, documents, capsys):
    _check(case, documents, capsys)


@pytest.mark.parametrize("case", MISC["cases"], ids=_case_id)
def test_misc_output_is_byte_identical(case, documents, capsys):
    _check(case, documents, capsys)


@pytest.mark.parametrize("case", RECORDS["cases"], ids=_case_id)
def test_record_output_is_byte_identical(case, documents, capsys):
    _check(case, documents, capsys)


def test_shared_documents_agree():
    shared = PRODUCTS["documents"].keys() & STRUCTURE["documents"].keys()
    assert shared == {"po6", "path3", "parallel2", "thin40", "free40"}
    assert all(PRODUCTS["documents"][name] == STRUCTURE["documents"][name] for name in shared)
    assert MISC["documents"].keys() == {"po6", "path3", "parallel2"}
    assert all(MISC["documents"][name] == PRODUCTS["documents"][name] for name in MISC["documents"])
    assert RECORDS["documents"] == STRUCTURE["documents"]
