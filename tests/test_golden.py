"""Byte-for-byte guard on command output.

Each digest below is the sha256 of a file written by the command line from
a fixed input and seed.  A refactor that changes no behaviour leaves every
digest as it is.  Commands run inside `tmp_path` with relative paths,
because a verify report embeds the input path string.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from eulerlab import cli

VERIFY_DIGESTS = {
    "cube:4": "bd50ff75a0d2a1da8bd1365487b119f831dc9b058097abdb55e2779fa387a6bf",
    "crosspolytope:4": "89dc659d03424de12355cce55eab38ed35e595df655b26c73c83b9486808a1d5",
    "crosspolytope:5": "7855fdcc0fe7336285310982e9be57ca25442d3c303fde225e76de51d8617e4a",
    "random:3,8,10": "0786d1e7c321c906a72b877731d9ead3dd3a01304f8efc99373905417b2663db",
    "random:4,12,10": "21a8521891f60edf2302f56db711cd7076ee89cc788f13bc5e446ace8ab7d577",
}
# The Schlegel proof alone at seeds 1-3: each seed samples another
# direction, so the complex's face order and every cell's shadow are read
# along another line.
SCHLEGEL_DIGESTS = {
    ("cube:5", 1): "70df60a3c7a07a6dd18f28a2b8d68b2a001cc66c62383ba124995a276b9fb47d",
    ("cube:5", 2): "1e064e3d01babd73263de0f7cc5d4fbf1526996127e4608c10ecea4aa1e4b078",
    ("cube:5", 3): "61baaa5546d30b06b24f0facb7464c4082b5cfa8c43a24fc312edf11e655687a",
    ("random:4,12,10", 1): "e4bdd86da20abe2cd4f44141bb9b7f98b1cb63cee285e5be0abe3a9257578fa8",
    ("random:4,12,10", 2): "bc5c54062e8d14cb0641ef39e9d663d330e3d2e83e74601f049b64b0a9ad804f",
    ("random:4,12,10", 3): "e02b2e7c0eca472a372cd74553400afff15092f8b2831d22a4b62f53767f008d",
}
SVG_DIGESTS = {
    # Wireframes (d = 4) draw edges and vertices in the complex's face order.
    ("cube:4", 0): "3b3bfdbf9a1f414e4ca24aedcca5ad14f2e635bea03bfe6b7dfdc9ed7d43c454",
    ("random:4,12,10", 3): "3b211b5e82d07343d415d6fc15124bac8bd4e82f930b3154c78c539f5b39139e",
    # Planar diagrams (d = 3) draw each cell's vertices in the cell's own order.
    ("cube:3", 0): "c31947aebc71173a4c490422a73f32584b899a9ee6aa2b520d69af39d8b45662",
    ("random:3,8,10", 1): "15afd9d5db437eb4866ca5a0f90449b306f601dbfd12eacb3c094d082479949d",
}


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


@pytest.mark.parametrize("spec,seed", sorted(SCHLEGEL_DIGESTS))
def test_schlegel_report_bytes(spec, seed, workdir):
    assert cli.main(["generate", spec, "--seed", "0", "-o", "p.json"]) == 0
    argv = ["verify", "p.json", "--proof", "schlegel", "--seed", str(seed), "-o", "report.json"]
    assert cli.main(argv) == 0
    assert sha256(workdir / "report.json") == SCHLEGEL_DIGESTS[spec, seed]


def test_schlegel_svg_bytes(workdir):
    for (spec, facet), digest in SVG_DIGESTS.items():
        assert cli.main(["generate", spec, "--seed", "0", "-o", "p.json"]) == 0
        assert cli.main(["schlegel-svg", "p.json", "--facet", str(facet), "-o", "d.svg"]) == 0
        assert sha256(workdir / "d.svg") == digest, spec


# cube:3 with every degenerate kind of extra point the hull must drop: the
# centre (interior), the edge midpoints (on two facets), the face centres
# (on one facet) and a repeated vertex.
HALF = "1/2"
CUBE3_EXTRAS = [[a, b, c] for a in "01" for b in "01" for c in "01"] + [
    [HALF, HALF, HALF],
    *([x, y, HALF] for x in "01" for y in "01"),
    *([x, HALF, y] for x in "01" for y in "01"),
    *([HALF, x, y] for x in "01" for y in "01"),
    *([HALF, HALF, x] for x in "01"),
    *([HALF, x, HALF] for x in "01"),
    *([x, HALF, HALF] for x in "01"),
    ["1", "1", "1"],
]
CHECK_DIGEST = "0a95a8bdb7801eb186c24b1618ab7d39171cbb4f1e90ef200c917c94d6f9aba3"
DEGENERATE_VERIFY_DIGEST = "c2b03b9a9f13a2eca635dacacc49fb1c65b4c194f5a80a192136c1777ce19f4c"
GENERATE_DIGEST = "b14c2116908996e4c07e4240a9ab32df0181df27714adae99d6a4b8942ec5fe8"


@pytest.fixture
def cube3_extras(workdir):
    doc = {"dimension": 3, "vertices": CUBE3_EXTRAS, "name": "cube3-extras"}
    (workdir / "p.json").write_text(json.dumps(doc))
    return workdir


def test_degenerate_check_report_bytes(cube3_extras):
    assert cli.main(["check", "p.json", "-o", "report.json"]) == 0
    assert sha256(cube3_extras / "report.json") == CHECK_DIGEST


def test_degenerate_verify_report_bytes(cube3_extras):
    argv = ["verify", "p.json", "--proof", "both", "--seed", "0", "-o", "report.json"]
    assert cli.main(argv) == 0
    assert sha256(cube3_extras / "report.json") == DEGENERATE_VERIFY_DIGEST


# crosspolytope:4 scaled by 10^40 and shifted by 1/7 in every coordinate:
# huge numerators and a denominator in every vertex.
HUGE_VERTICES = [
    [str(Fraction(s * 10**40 if j == i else 0) + Fraction(1, 7)) for j in range(4)]
    for i in range(4)
    for s in (1, -1)
]
HUGE_VERIFY_DIGEST = "2ad1503f76c6ba173d988e72ce3e3d29f0d4b611ce63ee6b542c0f7da884341d"


def test_huge_shifted_verify_report_bytes(workdir):
    doc = {"dimension": 4, "vertices": HUGE_VERTICES, "name": "crosspolytope4-huge"}
    (workdir / "p.json").write_text(json.dumps(doc))
    argv = ["verify", "p.json", "--proof", "both", "--seed", "0", "-o", "report.json"]
    assert cli.main(argv) == 0
    assert sha256(workdir / "report.json") == HUGE_VERIFY_DIGEST


def test_generate_bytes(workdir):
    assert cli.main(["generate", "random:5,14,10", "--seed", "1", "-o", "p.json"]) == 0
    assert sha256(workdir / "p.json") == GENERATE_DIGEST
