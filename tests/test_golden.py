"""Byte-for-byte guard on command output.

Each digest below is the sha256 of a file written by the command line from
a fixed input and seed.  A refactor that changes no behaviour leaves every
digest as it is.  Commands run inside `tmp_path` with relative paths,
because a verify report embeds the input path string.
"""

import hashlib

import pytest

from eulerlab import cli

VERIFY_DIGESTS = {
    "cube:4": "bd50ff75a0d2a1da8bd1365487b119f831dc9b058097abdb55e2779fa387a6bf",
    "crosspolytope:4": "89dc659d03424de12355cce55eab38ed35e595df655b26c73c83b9486808a1d5",
    "random:3,8,10": "0786d1e7c321c906a72b877731d9ead3dd3a01304f8efc99373905417b2663db",
}
SVG_DIGEST = "3b3bfdbf9a1f414e4ca24aedcca5ad14f2e635bea03bfe6b7dfdc9ed7d43c454"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    yield tmp_path
    capsys.readouterr()


@pytest.mark.parametrize("spec", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes(spec, workdir):
    assert cli.main(["generate", spec, "--seed", "0", "-o", "p.json"]) == 0
    argv = ["verify", "p.json", "--proof", "both", "--seed", "0", "-o", "report.json"]
    assert cli.main(argv) == 0
    assert sha256(workdir / "report.json") == VERIFY_DIGESTS[spec]


def test_schlegel_svg_bytes(workdir):
    assert cli.main(["generate", "cube:4", "--seed", "0", "-o", "p.json"]) == 0
    assert cli.main(["schlegel-svg", "p.json", "-o", "cube4.svg"]) == 0
    assert sha256(workdir / "cube4.svg") == SVG_DIGEST
