"""Byte-for-byte CLI output of the product commands against stored goldens.

`goldens/cli_products.json` holds the documents (the built-ins po6, path3
and parallel2, a seeded thin DAG and a seeded free multigraph of about 40
arrows each) and, per case, the argv, exit status and stdout that the
implementation before the shared pair kernel printed (commit 5503b75).
Outputs over 4 KB are stored as a SHA-256 digest and a byte count.
"""

import hashlib
import json
from pathlib import Path

import pytest

from catgeo.cli import main

GOLDENS = json.loads((Path(__file__).parent / "goldens" / "cli_products.json").read_text(encoding="utf-8"))


def _case_id(case):
    return " ".join(case["document"] if arg == "DOC" else arg for arg in case["argv"])


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("goldens")
    paths = {}
    for name, text in GOLDENS["documents"].items():
        paths[name] = root / (name + ".json")
        paths[name].write_text(text, encoding="utf-8")
    return paths


@pytest.mark.parametrize("case", GOLDENS["cases"], ids=_case_id)
def test_output_is_byte_identical(case, documents, capsys):
    argv = [str(documents[case["document"]]) if arg == "DOC" else arg for arg in case["argv"]]
    status = main(argv)
    out = capsys.readouterr().out
    assert status == case["status"]
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        data = out.encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (case["stdout_bytes"], case["stdout_sha256"])
