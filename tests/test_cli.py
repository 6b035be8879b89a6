"""End-to-end tests for the command line."""

import argparse
import gc
import json
import random
import shutil
import subprocess
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import cli, euler, jsonio
from eulerlab.errors import GeneralPositionError
from eulerlab.polytope import generate


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cube3(tmp_path, capsys):
    path = tmp_path / "cube3.json"
    code = cli.main(["generate", "cube:3", "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestGenerate:
    def test_writes_document(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        code, out, err = run(["generate", "cube:4", "--seed", "3", "-o", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["dimension"] == 4
        assert len(doc["vertices"]) == 16
        assert doc["name"] == "cube:4"

    def test_stdout_default(self, capsys):
        code, out, err = run(["generate", "simplex:2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 3

    def test_random_deterministic_per_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["generate", "random:3,8,10", "--seed", "4", "-o", str(a)], capsys)
        run(["generate", "random:3,8,10", "--seed", "4", "-o", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("spec", ["frustum:3", "cube", "cube:0", "random:3,8"])
    def test_bad_spec_exits_2(self, spec, capsys):
        code, out, err = run(["generate", spec], capsys)
        assert code == 2
        assert "error:" in err


class TestCheck:
    def test_cube3_passes(self, cube3, capsys):
        code, out, err = run(["check", cube3], capsys)
        assert code == 0
        assert "f-vector: (8, 12, 6, 1)" in out
        assert "alternating sum: 1" in out
        assert out.strip().endswith("PASS")

    def test_report_written(self, cube3, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, err = run(["check", cube3, "-o", str(report_path)], capsys)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["command"] == "check"
        assert report["f_vector"] == [8, 12, 6, 1]
        assert report["euler_sum"] == 1
        assert report["pass"] is True
        assert report["timestamp"] is None

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 3, "vertices": [["0", "0"')
        code, out, err = run(["check", str(path)], capsys)
        assert code == 2
        assert "invalid JSON" in err

    def test_degenerate_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "vertices": [["0", "0"], ["0", "0"], ["0", "0"]],
                }
            )
        )
        code, out, err = run(["check", str(path)], capsys)
        assert code == 2
        assert "degenerate input" in err

    def test_collinear_document_is_reframed_not_rejected(self, tmp_path, capsys):
        # A lower-dimensional hull is legitimate: it is checked in its own
        # affine hull (here a segment, f-vector (2, 1)).
        path = tmp_path / "collinear.json"
        path.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "vertices": [["0", "0"], ["1", "1"], ["2", "2"]],
                }
            )
        )
        code, out, err = run(["check", str(path)], capsys)
        assert code == 0
        assert "f-vector: (2, 1)" in out

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(["check", "/nonexistent/thing.json"], capsys)
        assert code == 2

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(["check", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"error: invalid JSON in {path}: ")

    def test_malformed_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": [["1.5"]]}))
        code, out, err = run(["check", str(path)], capsys)
        assert code == 2
        assert err == "error: not a rational literal: '1.5'\n"

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["verify", "--proof", "folded"], ["schlegel-svg", "-o", "cube3.svg"]],
    )
    def test_document_is_validated_once(
        self, argv, cube3, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def counting(doc):
            calls.append(doc)
            return validate(doc)

        validate = jsonio.validate_document
        monkeypatch.setattr(jsonio, "validate_document", counting)
        monkeypatch.chdir(tmp_path)
        code, out, err = run([argv[0], cube3, *argv[1:]], capsys)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["verify", "--proof", "folded"], ["schlegel-svg", "-o", "cube3.svg"]],
    )
    def test_each_coordinate_is_parsed_once(
        self, argv, cube3, tmp_path, capsys, monkeypatch
    ):
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse(text)

        parse = jsonio.parse_rational
        monkeypatch.setattr(jsonio, "parse_rational", counting)
        monkeypatch.chdir(tmp_path)
        code, out, err = run([argv[0], cube3, *argv[1:]], capsys)
        assert code == 0
        assert len(parsed) == 8 * 3

    def test_identity_failure_exits_1(self, cube3, capsys, monkeypatch):
        monkeypatch.setattr(cli, "euler_alternating_sum", lambda fv: 0)
        code, out, err = run(["check", cube3], capsys)
        assert code == 1
        assert out.strip().endswith("FAIL")

    @pytest.mark.parametrize("spec", ["cube:4", "crosspolytope:5", "cloud:4,30,20"])
    def test_one_fraction_per_coordinate(self, spec, tmp_path, capsys, monkeypatch):
        # Parsing makes each coordinate's Fraction; the hull, the lattice and
        # the report run on ints and build none.
        path = tmp_path / "doc.json"
        if spec.startswith("cloud"):
            rng = random.Random(7)
            pts = [[str(rng.randint(-20, 20)) for _ in range(4)] for _ in range(30)]
            path.write_text(json.dumps({"dimension": 4, "vertices": pts}))
        else:
            assert cli.main(["generate", spec, "-o", str(path)]) == 0
        coordinates = sum(map(len, json.loads(path.read_text())["vertices"]))
        built = []

        def counting_new(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        code, out, err = run(["check", str(path), "-o", str(tmp_path / "report.json")], capsys)
        monkeypatch.undo()
        assert code == 0
        assert coordinates == {"cube:4": 64, "crosspolytope:5": 50, "cloud:4,30,20": 120}[spec]
        assert len(built) == coordinates


BAD_LITERALS = ["1/0", "1.5", "", "+-1", " 3 ", "1/-2", "0x10"]
HUGE = 10**40


@st.composite
def documents(draw):
    """Documents of d = 1..4 with up to 8 points: repeated points drawn from
    a small pool, flat (one coordinate fixed) or collinear sets, entries
    near 10^40 and 10^-40, bad literals and points of the wrong length."""
    d = draw(st.integers(1, 4))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    huge = st.builds(
        lambda sign, k, inverse: sign * (Fraction(1, HUGE + k) if inverse else Fraction(HUGE + k)),
        st.sampled_from([1, -1]),
        st.integers(0, 2),
        st.booleans(),
    )
    entry = st.one_of(small, huge)
    kind = draw(st.sampled_from(["pool", "flat", "collinear"]))
    if kind == "collinear":
        base = draw(st.lists(entry, min_size=d, max_size=d))
        step = draw(st.lists(entry, min_size=d, max_size=d))
        ts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
        points = [[b + t * u for b, u in zip(base, step)] for t in ts]
    else:
        pool = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=8))
        points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        if kind == "flat":
            points = [[pool[0][0], *q[1:]] for q in points]
    text = [[str(c) for c in q] for q in points]
    for _ in range(draw(st.integers(0, 2))):
        q = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["literal", "longer", "shorter"]))
        if edit == "literal" and text[q]:  # an earlier edit may have shortened it
            text[q][draw(st.integers(0, len(text[q]) - 1))] = draw(st.sampled_from(BAD_LITERALS))
        elif edit == "longer":
            text[q] = [*text[q], "0"]
        elif edit == "shorter":
            text[q] = text[q][:-1]
    return {"dimension": d, "vertices": text}


@given(doc=documents())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_documents_end_in_an_exit_code(doc, tmp_path, capsys):
    # Every document ends in exit 0 or 1 with a report, or in exit 2 with
    # one error line; an exception other than those cli.main maps would
    # escape here as a traceback.
    path, report = tmp_path / "doc.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    code, out, err = run(["check", str(path), "-o", str(report)], capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not report.exists()
    else:
        assert json.loads(report.read_text())["pass"] == (code == 0)


FAMILY_DOCUMENTS = ["simplex:3", "cube:3", "crosspolytope:3", "simplex:4", "random:3,7,6"]
MALFORMED_FIELDS = [
    ("dimension", "3"), ("dimension", True), ("dimension", 0), ("dimension", -3),
    ("dimension", 10**30), ("dimension", 3.5), ("vertices", []), ("vertices", {}),
    ("vertices", "0 0 0"), ("vertices", [[0, 0, 0]]), ("vertices", [["0", "0", "0"], "x"]),
    ("name", 5), ("colour", "red"), ("dimension", None), ("vertices", None),
]


@st.composite
def cli_runs(draw):
    """A document, the argv of a verify or schlegel-svg run on it and the
    samplers' budget: a family polytope, one with a malformed field (None
    drops the field), a non-object, or one of `documents()`; --facet values
    below 0, at the facet count and near 10^30; --seed values below 0 and
    near 10^30; a budget of 0 tries, which aborts every sampler, or the
    default."""
    kind = draw(st.sampled_from(["family", "family", "malformed", "generated"]))
    if kind == "generated":
        doc, facets = draw(documents()), 8
    else:
        p = generate(draw(st.sampled_from(FAMILY_DOCUMENTS)), draw(st.integers(0, 3)))
        doc, facets = jsonio.polytope_to_document(p), len(p.facets)
    if kind == "malformed":
        key, value = draw(st.sampled_from(MALFORMED_FIELDS + [(None, None)]))
        if key is None:
            doc = [doc]
        elif value is None:
            del doc[key]
        else:
            doc[key] = value
    big = [10**30, -(10**30)]
    facet = draw(st.one_of(st.none(), st.integers(-2, facets + 1), st.sampled_from([facets, *big])))
    seed = draw(st.one_of(st.integers(-5, 5), st.sampled_from(big)))
    command = draw(st.sampled_from(["verify", "schlegel-svg"]))
    argv = [command, "--seed", str(seed)] if command == "verify" else [command]
    if command == "verify":
        argv += ["--proof", draw(st.sampled_from(["schlegel", "folded", "both"]))]
    if facet is not None:
        argv += ["--facet", str(facet)]
    return doc, argv, draw(st.sampled_from([0, euler.SAMPLE_BUDGET, euler.SAMPLE_BUDGET]))


@given(case=cli_runs())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_and_schlegel_svg_runs_end_in_an_exit_code(case, tmp_path, capsys):
    # Every run ends in exit 0 or 1 with its output written, or in exit 2
    # with one error line and none; a run that fails with exit 1 leaves a
    # report that says why: an aborted sampler or a failed identity.
    doc, (command, *options), budget = case
    path, out_path = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    out_path.unlink(missing_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(euler, "SAMPLE_BUDGET", budget)
        code, out, err = run([command, str(path), *options, "-o", str(out_path)], capsys)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()
    elif command == "schlegel-svg":
        assert code == 0 and out_path.read_text().endswith("</svg>\n")
    else:
        report = json.loads(out_path.read_text())
        assert report["pass"] == (code == 0)
        proofs = [report[key] for key in ("schlegel_proof", "folded_proof") if report[key]]
        why = "aborted" in report or any(proof["failures"] for proof in proofs)
        assert why == (code == 1)


@pytest.mark.parametrize(
    "argv,text",
    [
        (["verify", "--proof", "folded", "--facet", "-1"], "invalid facet pair (-1, 4)"),
        (["verify", "--proof", "schlegel", "--facet", "6"], "facet index 6 out of range"),
        (["verify", "--facet", str(10**30)], f"facet index {10**30} out of range"),
        (["schlegel-svg", "--facet", "-1", "-o", "x.svg"], "facet index -1 out of range"),
    ],
)
def test_bad_facet_exits_2_with_its_text(argv, text, cube3, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run([argv[0], cube3, *argv[1:]], capsys)
    assert (code, err) == (2, f"error: {text}\n")


class TestVerify:
    def test_both_proofs_pass(self, cube3, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, err = run(
            ["verify", cube3, "--proof", "both", "--seed", "2", "-o", str(report_path)],
            capsys,
        )
        assert code == 0
        assert out.strip().endswith("PASS")
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        sch = report["schlegel_proof"]
        assert sch["cell_count"] == 5
        assert set(sch["per_cell_sums"].values()) == {"-1"}
        assert sch["outside_sum"] == "1"
        assert sch["lhs_needed"] == sch["rhs_needed"] == "-4"
        fold = report["folded_proof"]
        assert fold["special_pair_sum"] == "0"
        assert set(fold["per_facet_sums"].values()) == {"-1"}

    def test_single_proof_selection(self, cube3, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code, out, err = run(
            ["verify", cube3, "--proof", "schlegel", "-o", str(report_path)], capsys
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schlegel_proof"] is not None
        assert report["folded_proof"] is None

    def test_facet_choice_respected(self, cube3, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code, out, err = run(
            ["verify", cube3, "--facet", "3", "-o", str(report_path)], capsys
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schlegel_proof"]["facet_index"] == 3
        assert 3 in report["folded_proof"]["facet_pair"]

    def test_byte_identical_reports(self, cube3, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", cube3, "--proof", "both", "--seed", "7"]
        code1, out1, _ = run(argv + ["-o", str(a)], capsys)
        code2, out2, _ = run(argv + ["-o", str(b)], capsys)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert a.read_bytes() == b.read_bytes()

    def test_stamp_adds_timestamp(self, cube3, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        run(["verify", cube3, "--stamp", "-o", str(report_path)], capsys)
        report = json.loads(report_path.read_text())
        assert report["timestamp"] is not None

    def test_segment_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "segment.json"
        path.write_text(json.dumps({"dimension": 1, "vertices": [["0"], ["1"]]}))
        code, out, err = run(["verify", str(path)], capsys)
        assert code == 2
        assert "d >= 3" in err

    def test_identity_failure_exits_1(self, cube3, capsys, monkeypatch):
        real = cli.verify_proof_schlegel

        def broken(p, facet, seed):
            report = real(p, facet, seed)
            report.failures.append("injected: per-cell sum mismatch")
            return report

        monkeypatch.setattr(cli, "verify_proof_schlegel", broken)
        code, out, err = run(["verify", cube3, "--proof", "schlegel"], capsys)
        assert code == 1
        assert "injected: per-cell sum mismatch" in out
        assert out.strip().endswith("FAIL")

    def test_general_position_failure_exits_1(
        self, cube3, capsys, monkeypatch, tmp_path
    ):
        def blow_up(p, seed, facet_pair=None):
            raise GeneralPositionError("general position violated")

        monkeypatch.setattr(cli, "verify_proof_folded", blow_up)
        code, out, err = run(["verify", cube3, "--proof", "folded"], capsys)
        assert code == 1
        assert "general position violated" in err

        # The aborted run still writes its report, with every finished proof.
        out_path = tmp_path / "aborted.json"
        argv = ["verify", cube3, "--proof", "both", "-o", str(out_path)]
        code, out, err = run(argv, capsys)
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["pass"] is False
        assert report["aborted"] == "GeneralPositionError: general position violated"
        assert report["schlegel_proof"]["pass"] is True
        assert report["folded_proof"] is None
        assert list(report)[-1] == "aborted"

    def test_sampling_budget_exhausted_writes_report(
        self, cube3, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(euler, "SAMPLE_BUDGET", 0)
        out_path = tmp_path / "aborted.json"
        argv = ["verify", cube3, "--proof", "schlegel", "--seed", "5", "-o", str(out_path)]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert "no general direction for seed 5 found in 0 tries" in err
        report = json.loads(out_path.read_text())
        assert report["pass"] is False
        assert report["aborted"].startswith("SamplingBudgetError: no general direction")
        assert report["schlegel_proof"] is None


class TestSchlegelSvg:
    def test_cube4_wireframe(self, tmp_path, capsys):
        doc = tmp_path / "c4.json"
        out_path = tmp_path / "c4.svg"
        run(["generate", "cube:4", "-o", str(doc)], capsys)
        code, out, err = run(
            ["schlegel-svg", str(doc), "--facet", "0", "-o", str(out_path)], capsys
        )
        assert code == 0
        svg = out_path.read_text()
        assert svg.count("<circle") == 16
        assert svg.count("<path") == 32

    def test_unsupported_dimension_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "square.json"
        run(["generate", "cube:2", "-o", str(doc)], capsys)
        code, out, err = run(
            ["schlegel-svg", str(doc), "-o", str(tmp_path / "x.svg")], capsys
        )
        assert code == 2
        assert "dimensions 3 and 4" in err

    def test_facet_out_of_range_exits_2(self, cube3, tmp_path, capsys):
        code, out, err = run(
            ["schlegel-svg", cube3, "--facet", "11", "-o", str(tmp_path / "x.svg")],
            capsys,
        )
        assert code == 2

    def test_output_flag_required(self, cube3):
        with pytest.raises(SystemExit) as exc:
            cli.main(["schlegel-svg", cube3])
        assert exc.value.code == 2


class TestSelftest:
    def test_raising_criterion_is_a_failure_exit_1(self, capsys, monkeypatch):
        from eulerlab import acceptance

        def criterion_raises():
            raise GeneralPositionError("general position violated")

        passing = acceptance.CriterionOutcome(2, "passes", True)
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", (criterion_raises, lambda: passing))
        code, out, err = run(["selftest"], capsys)
        assert code == 1
        assert "[ 1] FAIL  criterion_raises" in out
        assert "raised GeneralPositionError: general position violated" in out
        assert "[ 2] PASS  passes" in out
        assert err == ""


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_main_leaves_no_parser_garbage(self, cube3, capsys):
        # In-process callers run main many times; a parser built per call
        # would be cyclic garbage until the next full collection.
        gc.collect()
        flags, before = gc.get_debug(), len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert cli.main(["check", cube3]) == 0
            gc.collect()
            parsers = [x for x in gc.garbage[before:] if isinstance(x, argparse.ArgumentParser)]
        finally:
            gc.set_debug(flags)
            del gc.garbage[before:]
        capsys.readouterr()
        assert parsers == []

    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("eulerlab")
        assert exe, "console script should be installed"
        doc = tmp_path / "p.json"
        result = subprocess.run(
            [exe, "generate", "simplex:3", "-o", str(doc)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        check = subprocess.run(
            [exe, "check", str(doc)], capture_output=True, text=True
        )
        assert check.returncode == 0
        assert "PASS" in check.stdout
