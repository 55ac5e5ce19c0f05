import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cotwist.cli import MAX_DEGREE, main
from cotwist.cyclo import MAX_CONDUCTOR, CycNum, parse_scalar
from cotwist.errors import LimitExceeded
from cotwist.groups import AbGroup, Cocycle, cocycle_from_formula, commutator_radical
from cotwist.presets import CHECKS

SPEC_XBASIS = {
    "conductor": 4,
    "generators": [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 1},
                   {"name": "x3", "degree": 1}],
    "relations": [
        "x1*x2 + x2*x1",
        "x3*x1 + x3*x2 - x1*x3 - x2*x3",
        "x3^2*x1 - x3^2*x2 - x1*x3^2 + x2*x3^2",
        "x3*x1^2 - x3*x2^2 - x1^2*x3 + x2^2*x3",
    ],
    "group": [2, 2],
    "duality": {"builtin": "klein"},
    "cocycle": {"formula": "(-1)^(p*s)"},
    "action": [
        {"generator": "g1", "matrix": [["0", "1", "0"], ["1", "0", "0"],
                                       ["0", "0", "1"]]},
        {"generator": "g2", "matrix": [["1", "0", "0"], ["0", "1", "0"],
                                       ["0", "0", "-1"]]},
    ],
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_XBASIS))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schur_command(capsys):
    code, out, _ = run(capsys, ["schur", "--group", "3,3"])
    assert code == 0
    assert json.loads(out)["schur_order"] == 3


def test_validate_reports_basis(capsys, spec_file):
    code, out, _ = run(capsys, ["validate", "--input", spec_file])
    assert code == 0
    data = json.loads(out)
    assert data["valid"]
    assert data["basis"]["g_degrees"] == ["e", "g2", "g1"]
    assert data["grading"]["named_degrees"] == {"w1": "e", "w2": "g2",
                                                "w3": "g1"}


def test_twist_writes_output_and_matches_target(capsys, tmp_path):
    # the builtin Klein duality and the same table written out give one twist
    twists = []
    for k, duality in enumerate([{"builtin": "klein"},
                                 [["1", "-1"], ["-1", "1"]]]):
        spec_path = tmp_path / f"spec{k}.json"
        spec_path.write_text(json.dumps(dict(SPEC_XBASIS, duality=duality)))
        out_path = tmp_path / f"twisted{k}.json"
        code, _, _ = run(capsys, ["twist", "--input", str(spec_path),
                                  "--output", str(out_path)])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["provenance"].pop("input_sha256")
        twists.append(data)
    assert twists[0] == twists[1]
    pres_path = tmp_path / "twisted_pres.json"
    pres_path.write_text(json.dumps(twists[0]["presentation"]))
    code, out, _ = run(capsys, ["iso-check", "--lhs", str(pres_path),
                                "--rhs", "preset:D(1,1)", "--degree", "6"])
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "SYNTACTIC"
    assert verdict["hilbert_equal"]


def test_gb_and_hilbert_on_presets(capsys):
    code, out, _ = run(capsys, ["gb", "--input", "preset:B(1)",
                                "--degree", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["hilbert"] == [1, 3, 7, 13, 22, 34]
    assert data["bound"] == 5
    code, out, _ = run(capsys, ["hilbert", "--input", "preset:E(1,i)",
                                "--degree", "4"])
    assert code == 0
    assert json.loads(out)["hilbert"] == [1, 3, 7, 13, 22]


def test_iso_check_failure_exit_code(capsys):
    code, out, _ = run(capsys, ["iso-check", "--lhs", "preset:A(1,-1)",
                                "--rhs", "preset:B(1)", "--degree", "6"])
    assert code == 1
    assert json.loads(out)["status"] == "FAILED"


def test_iso_check_with_map_file(capsys, tmp_path):
    # the images by generator name and as a list in generator order
    outputs = []
    for images in ({"w1": "w1", "w2": "-w2", "w3": "w3"}, ["w1", "-w2", "w3"]):
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"images": images}))
        code, out, _ = run(capsys, ["iso-check", "--lhs", "preset:C(1)",
                                    "--rhs", "preset:C(1)",
                                    "--map", str(map_path), "--degree", "6"])
        assert code == 0
        assert json.loads(out)["status"] in ("SYNTACTIC", "VERIFIED")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_map_image_beyond_target_conductor_lifts_both_sides(capsys, tmp_path):
    # the presets live at conductor 4, which cannot host zeta(8): both sides
    # are lifted to conductor 8, where relation 1's image leaves the ideal
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"images": {"w1": "zeta(8)*w1", "w2": "w2",
                                               "w3": "w3"}}))
    code, out, _ = run(capsys, ["iso-check", "--lhs", "preset:C(1)",
                                "--rhs", "preset:C(1)",
                                "--map", str(map_path), "--degree", "4"])
    assert code == 1
    verdict = json.loads(out)
    assert verdict["status"] == "FAILED"
    assert verdict["failure"] == ("image of relation 1 is nonzero in the "
                                  "target: (1 - zeta(8)^2)*w1^2")


def test_kgmu_command(capsys):
    code, out, _ = run(capsys, ["kgmu", "--group", "2,2",
                                "--cocycle", "klein"])
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert data["center_dimension"] == 1
    assert data["is_full_matrix_algebra"] is True
    assert data["structure_constants"]["u[g1]*u[g2]"] == "-u[g1*g2]"
    code, out, _ = run(capsys, ["kgmu", "--group", "2,2",
                                "--cocycle", "trivial"])
    assert json.loads(out)["center_dimension"] == 4


def test_kgmu_formula_cocycle(capsys):
    code, out, _ = run(capsys, ["kgmu", "--group", "2,2",
                                "--cocycle", "(-1)^(p*s)"])
    assert code == 0
    assert json.loads(out)["center_dimension"] == 1


# Each input below is an input error found before the work starts.  Without
# the bounds `kgmu --group 1000,1000` grew until the process was killed and
# `2^(10^9)` computed for more than 20 s.
@pytest.mark.parametrize("argv,message", [
    (["kgmu", "--group", "2,2", "--cocycle", "2^(10^9)"],
     "exponent 1000000000 exceeds the limit 10000"),
    (["kgmu", "--group", "2,2", "--cocycle", "(2^5000)^5000"],
     "bits exceeds the limit 65536"),
    (["kgmu", "--group", "1000,1000"], "group order 1000000 exceeds the limit 64"),
    (["kgmu", "--group", "2,2,2,2,2,2,2", "--cocycle", "(-1)^(a1*b2)"],
     "group order 128 exceeds the limit 64"),
    (["kgmu", "--group", "2", "--cocycle", "9" * 5000],
     "a literal of 5000 digits exceeds the limit 4300"),
], ids=["exponent", "power-bits", "kgmu-order", "kgmu-formula-order",
        "kgmu-literal"])
def test_resource_bounds_are_input_errors(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert message in err


def test_group_order_bound_covers_spec_files(capsys, tmp_path):
    # a resource limit, not a falsification: `validate` too exits 2
    path = tmp_path / "spec.json"
    for factors in ([1000, 1000], [100, 100]):
        path.write_text(json.dumps(dict(SPEC_XBASIS, group=factors,
                                        duality={"builtin": "standard"})))
        order = factors[0] * factors[1]
        for command in ("twist", "invariants", "validate"):
            code, out, err = run(capsys, [command, "--input", str(path)])
            assert code == 2 and out == "", command
            assert f"input error: group order {order} exceeds the limit 64" in err


def assert_falsified_everywhere(capsys, path, violation, reads_cocycle=True):
    """A spec that fails its cocycle, G-grading or action check falsifies its
    own claim: exit 1 on every command that reads it, `validate` printing
    the violation and the others `falsified: <violation>` on stderr.  `kgmu`
    reads only the spec's cocycle block from the same file."""
    code, out, _ = run(capsys, ["validate", "--input", path])
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False
    assert data["violations"] == [violation]
    runs = [["twist", "--input", path], ["invariants", "--input", path]]
    if reads_cocycle:
        runs.append(["kgmu", "--group", "2,2", "--cocycle", path])
    for argv in runs:
        assert run(capsys, argv) == (1, "", f"falsified: {violation}\n"), argv


def test_failing_cocycle_identity_is_a_validate_violation(capsys, tmp_path):
    # mu(g2,g2) = -1 and mu = 1 elsewhere: normalized, but the identity
    # mu(a,b) mu(ab,c) = mu(b,c) mu(a,bc) fails at (g2,g2,g1)
    path = klein_degree_spec(tmp_path, [[1, 0], [0, 1]], cocycle={"table": [
        ["1", "1", "1", "1"], ["1", "-1", "1", "1"],
        ["1", "1", "1", "1"], ["1", "1", "1", "1"]]})
    assert_falsified_everywhere(capsys, path, "cocycle identity fails at (g2,g2,g1)")
    # i^(p*s) is normalized, but as i^2 = -1 it is no bicharacter of C2 x C2
    # and fails the identity
    path = klein_degree_spec(tmp_path, [[1, 0], [0, 1]],
                             cocycle={"formula": "i^(p*s)"})
    assert_falsified_everywhere(capsys, path, "cocycle identity fails at (g1,g2,g2)")
    code, out, err = run(capsys, ["kgmu", "--group", "2,2", "--cocycle", "i^(p*s)"])
    assert (code, out, err) == (1, "", "falsified: cocycle identity fails at (g1,g2,g2)\n")


def test_unnormalized_cocycle_is_a_validate_violation(capsys, tmp_path):
    # a root of unity in every cell, but mu(e,g2) = -1
    path = klein_degree_spec(tmp_path, [[1, 0], [0, 1]], cocycle={"table": [
        ["1", "-1", "1", "1"], ["1", "1", "1", "1"],
        ["1", "1", "1", "1"], ["1", "1", "1", "1"]]})
    assert_falsified_everywhere(capsys, path, "normalization at (e,g2)")


def test_relation_not_g_homogeneous_is_falsified(capsys, tmp_path):
    # x has G-degree g1 and y g2, so x*y and y*y lie in different degrees
    path = klein_degree_spec(tmp_path, [[1, 0], [0, 1]], relations=["x*y + y*y"])
    assert_falsified_everywhere(
        capsys, path, "relation 1 is not G-homogeneous under the declared degrees",
        reads_cocycle=False)


# schur_order never enumerates G x G, so it takes groups past the bound
@pytest.mark.parametrize("group,order", [
    ("1000,1000", 1000), ("2,2,2,2,2,2,2", 2 ** 21), ("8,8", 8)])
def test_schur_takes_any_group_order(capsys, group, order):
    code, out, _ = run(capsys, ["schur", "--group", group])
    assert code == 0 and json.loads(out)["schur_order"] == order


@pytest.mark.parametrize("relation,message", [
    ("(x + y)^17", "a power with up to 2^17 terms exceeds the limit 10000"),
    ("(x^10000)^10000", "a power of degree 10000 exceeds the limit 256"),
    ("(x^200)^200", "a power of degree 40000 exceeds the limit 256"),
    ("(2^6000*x)^10000", "a power of degree 10000 exceeds the limit 256"),
    ("(2^6000*x)^100", "a power of about 600100 bits exceeds the limit 65536"),
], ids=["terms", "degree-inner", "degree-outer", "degree-one-term", "bits"])
def test_polynomial_power_bound_is_input_error(capsys, tmp_path, relation,
                                               message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"generators": ["x", "y"],
                                "relations": [relation]}))
    code, out, err = run(capsys, ["gb", "--degree", "2", "--input", str(path)])
    assert code == 2 and out == ""
    assert message in err


# CPython converts at most 4300 decimal digits to or from an int and raises a
# plain ValueError past that, which once ended these commands as internal
# errors.  The input side refuses such a literal; output prints it.
NINES = "9" * 5000
LONG_RELATION = {"generators": ["x", "y"], "relations": [f"x*y - {NINES}*y*x"]}
LONG_TABLE_SPEC = {"generators": ["x", "y"], "relations": ["x*y - y*x"],
                   "group": [2], "g_degrees": [[0], [1]],
                   "cocycle": {"table": [["1", "1"], ["1", NINES]]}}
LONG_CONDUCTOR_TEXT = ('{"conductor": %s, "generators": ["x"], "relations": []}'
                       % NINES)
POWER_RELATION = {"generators": ["x", "y"],
                  "relations": ["x*y - (2^10000)^6*y*x"]}
LITERAL = "input error: a literal of 5000 digits exceeds the limit 4300"


@pytest.mark.parametrize("argv,text,message", [
    (["hilbert", "--degree", "3"], json.dumps(LONG_RELATION), LITERAL),
    (["validate"], json.dumps(LONG_TABLE_SPEC), LITERAL),
    (["twist"], json.dumps(LONG_TABLE_SPEC), LITERAL),
    (["hilbert"], LONG_CONDUCTOR_TEXT,
     "a number of 5000 digits exceeds the limit 4300"),
], ids=["relation", "validate-table", "twist-table", "file-conductor"])
def test_long_literal_is_input_error(capsys, tmp_path, argv, text, message):
    path = tmp_path / "f.json"
    path.write_text(text)
    code, out, err = run(capsys, argv + ["--input", str(path)])
    assert code == 2 and out == ""
    assert message in err


def test_long_degree_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--input", "preset:B(1)", "--degree", NINES])
    assert exc.value.code == 2
    assert ("argument --degree: 5000 characters exceed the limit 4300"
            in capsys.readouterr().err)


def test_long_coefficient_a_power_builds_is_printed(capsys, tmp_path):
    # 2^60000 passes MAX_POWER_BITS and has 18,062 digits
    path = tmp_path / "f.json"
    path.write_text(json.dumps(POWER_RELATION))
    code, out, _ = run(capsys, ["gb", "--degree", "3", "--input", str(path)])
    assert code == 0
    # `main` has lifted CPython's conversion limit, so the test may print too
    assert json.loads(out)["elements"] == [f"y*x - 1/{2 ** 60000}*x*y"]


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["gb", "--input", str(path)])
    assert code == 2 and out == ""
    assert "input error: cannot read JSON" in err


# A conductor past MAX_CONDUCTOR once ran for minutes (zeta(1031) in a
# relation) or exhausted memory (the other two); each now exits 2 at once.
ZETA_1031 = {"generators": ["x", "y"],
             "relations": ["x*y - zeta(1031)*y*x",
                           "x^2*y - (1 + zeta(1031))*y*x^2"]}
CONDUCTOR_1000003 = {"conductor": 1000003, "generators": ["x", "y"],
                     "relations": ["x*y - y*x"]}


@pytest.mark.parametrize("argv,text,conductor", [
    (["gb", "--degree", "5", "--input", "{file}"], json.dumps(ZETA_1031), 1031),
    (["hilbert", "--input", "{file}"], json.dumps(CONDUCTOR_1000003), 1000003),
    (["kgmu", "--group", "2,2", "--cocycle", "zeta(100000007)^0"], None,
     100000007),
], ids=["relation", "file-conductor", "kgmu-formula"])
def test_conductor_bound_is_input_error(tmp_path, argv, text, conductor):
    path = tmp_path / "f.json"
    if text is not None:
        path.write_text(text)
    start = time.perf_counter()
    proc = run_fresh([str(path) if a == "{file}" else a for a in argv],
                     timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert (f"input error: conductor {conductor} exceeds the limit "
            f"{MAX_CONDUCTOR}") in proc.stderr


def test_conductor_bound_covers_an_lcm(capsys, tmp_path):
    # 256 and 3 each pass alone
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"generators": ["x", "y"], "relations": [
        "x*y - zeta(256)*y*x", "x^2*y - zeta(3)*y*x^2"]}))
    code, out, err = run(capsys, ["hilbert", "--input", str(path)])
    assert code == 2 and out == ""
    assert "input error: conductor 768 exceeds the limit 256" in err


def test_resource_bounds_are_inclusive():
    assert parse_scalar("zeta(8)^10000") == CycNum.one(8)
    assert parse_scalar("2^-10000") == CycNum.rational(2) ** -10000
    assert cocycle_from_formula(AbGroup((8, 8)), "zeta(8)^(a1*b2)").modulus == 8


def test_twisted_group_algebra_checks_group_order():
    group = AbGroup((5, 13))
    with pytest.raises(LimitExceeded, match="group order 65 exceeds the limit 64"):
        commutator_radical(Cocycle(group, 1, ()))


def test_invariants_command(capsys):
    code, out, _ = run(capsys, ["invariants", "--input", "preset:A(1,-1)",
                                "--degree", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert [row["invariants"] for row in data["dims"]] == [1, 3, 7, 13]


def test_theorem55_command(capsys):
    code, out, _ = run(capsys, ["theorem55"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["pairs"]) == 4


def test_output_is_byte_deterministic(capsys, spec_file):
    _, first, _ = run(capsys, ["twist", "--input", spec_file])
    _, second, _ = run(capsys, ["twist", "--input", spec_file])
    assert first == second


@pytest.mark.parametrize("argv", [
    ["gb", "--input", "preset:klein-mu"],
    ["hilbert", "--input", "preset:klein-mu"],
    ["twist", "--input", "preset:klein-mu"],
    ["invariants", "--input", "preset:Z(9)"],
], ids=["gb-klein-mu", "hilbert-klein-mu", "twist-klein-mu", "invariants-unknown"])
def test_unknown_preset_is_input_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "unknown preset" in err


def test_check_verdicts_set_the_exit_code(capsys, monkeypatch):
    for key in CHECKS:
        monkeypatch.setitem(CHECKS, key, lambda bound: {"pass": True})
    monkeypatch.setitem(CHECKS, "twist_suite", lambda bound: {"passed": True})
    assert run(capsys, ["report"])[0] == 0
    assert run(capsys, ["theorem55"])[0] == 0
    monkeypatch.setitem(CHECKS, "twist_suite", lambda bound: {"passed": False})
    code, out, _ = run(capsys, ["report"])
    assert code == 1 and json.loads(out)["passed"] is False
    code, out, _ = run(capsys, ["theorem55"])
    assert code == 1 and json.loads(out) == {"passed": False}


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(bound):
        raise RuntimeError("broken check\nsecond line")

    for key in CHECKS:
        monkeypatch.setitem(CHECKS, key, lambda bound: {"pass": True})
    monkeypatch.setitem(CHECKS, "schur", broken)
    code, out, err = run(capsys, ["report"])
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: broken check second line\n"


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, ["gb", "--input", "no_such_file.json"])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command", ["hilbert", "invariants"])
def test_negative_degree_is_input_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", "preset:B(1)", "--degree", "-1"])
    assert exc.value.code == 2
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["schur", "--group", "abc"],
    ["kgmu", "--group", "2,x"],
], ids=["schur-group", "kgmu-group"])
def test_bad_argument_is_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def klein_degree_spec(tmp_path, g_degrees, **blocks):
    spec = {"generators": ["x", "y"], "relations": ["x*y + y*x"],
            "group": [2, 2], "cocycle": {"builtin": "klein"},
            "g_degrees": g_degrees}
    spec.update(blocks)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("g_degrees", [
    [[1], [0, 1]], [[5, 0], [0, 1]], [[1, 0, 1], [0, 1]], [[-1, 0], [0, 1]],
], ids=["short", "out-of-range", "long", "negative"])
def test_g_degrees_must_be_group_elements(capsys, tmp_path, g_degrees):
    path = klein_degree_spec(tmp_path, g_degrees)
    code, out, err = run(capsys, ["validate", "--input", path])
    assert code == 2 and out == ""
    assert "g_degrees[0] is not an element of the group [2, 2]" in err
    good = klein_degree_spec(tmp_path, [[1, 0], [0, 1]])
    code, out, _ = run(capsys, ["validate", "--input", good])
    assert code == 0
    assert json.loads(out)["grading"]["named_degrees"] == {"x": "g1", "y": "g2"}


@pytest.mark.parametrize("blocks,message", [
    ({"cocycle": {"table": 5}}, "cocycle table must be a list of rows"),
    ({"cocycle": {"table": [1, 2]}}, "cocycle table must be a list of rows"),
    ({"cocycle": 7}, "cocycle block must be an object"),
    ({"cocycle": "table"}, "cocycle block must be an object"),
    ({"duality": 7}, "duality table must be a list of rows"),
    ({"duality": [[1, 1], 5]}, "duality table must be a list of rows"),
], ids=["cocycle-table-number", "cocycle-table-flat", "cocycle-number",
        "cocycle-string", "duality-number", "duality-row-number"])
def test_malformed_group_block_is_input_error(capsys, tmp_path, blocks, message):
    path = klein_degree_spec(tmp_path, [[1, 0], [0, 1]], **blocks)
    code, _, err = run(capsys, ["validate", "--input", path])
    assert code == 2
    assert message in err


# input that no twist can be read from exits 2 on every command, `validate`
# included; it prints no violation (those are the mathematical outcomes)
@pytest.mark.parametrize("blocks,message", [
    ({"group": [1], "g_degrees": [[0], [0]]},
     "group must be a nonempty list of cyclic orders, each at least 2"),
    ({"group": [], "g_degrees": [[], []]},
     "group must be a nonempty list of cyclic orders, each at least 2"),
    ({"group": [3], "g_degrees": [[1], [2]]},
     'the builtin klein cocycle must be used with "group": [2, 2]'),
    ({"group": [3], "duality": {"builtin": "klein"}, "g_degrees": [[1], [2]]},
     'the builtin klein duality must be used with "group": [2, 2]'),
    ({"duality": [["-1"]]}, "duality: duality table must be rank x rank"),
    ({"duality": [["1", "1"], ["1", "1"]]},
     "duality: duality is degenerate: chi trivial at g2"),
    ({"duality": [["i", "1"], ["1", "-1"]]},
     "duality: duality entry (1,1) is not killed by the generator orders"),
    # 2 at (g1, g1), cell [2][2] in element enumeration order
    ({"cocycle": {"table": [["1"] * 4, ["1"] * 4, ["1", "1", "2", "1"],
                            ["1"] * 4]}},
     "cocycle.table[2][2] must be a root of unity, not 2"),
    ({"cocycle": {"formula": "2^(a1*b1)"}},
     "cocycle.formula at (g1,g1) must be a root of unity, not 2"),
    ({"generators": ["x", "x"]}, "generator names must be unique"),
    ({"generators": ["x", "i"]}, "bad generator name 'i'"),
    ({"generators": [{"name": "x", "degree": 0}, "y"]},
     "generator 'x' needs a positive degree"),
    ({"relations": ["x - x"]}, "relation 1 is zero"),
    ({"relations": ["x*y - x"]}, "relation 1 is not homogeneous: x*y - x"),
], ids=["group-one", "group-empty", "klein-cocycle-on-c3",
        "klein-duality-on-c3", "duality-1x1", "duality-degenerate",
        "duality-entry-order", "cocycle-table-not-root",
        "cocycle-formula-not-root", "generators-duplicate", "generator-i",
        "generator-degree-0", "relation-zero", "relation-inhomogeneous"])
@pytest.mark.parametrize("command", ["validate", "twist"])
def test_input_shape_errors_exit_2(capsys, tmp_path, blocks, message, command):
    blocks = dict(blocks)
    path = klein_degree_spec(tmp_path, blocks.pop("g_degrees", [[1, 0], [0, 1]]),
                             **blocks)
    code, out, err = run(capsys, [command, "--input", path])
    assert (code, out) == (2, "")
    assert f"input error: {message}\n" == err


def test_action_matrix_shape_is_input_error(capsys, tmp_path):
    path = tmp_path / "spec.json"
    bad = dict(SPEC_XBASIS, action=[
        {"generator": "g1", "matrix": [["0", "1"], ["1", "0"]]},
        SPEC_XBASIS["action"][1]])
    path.write_text(json.dumps(bad))
    for command in ("validate", "twist"):
        code, out, err = run(capsys, [command, "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "input error: action matrix for g1 must be 3 x 3\n"


# the action of a group on no generators: its eigenbasis is the 0 x 0 matrix
SPEC_NO_GENERATORS = {"generators": [], "relations": [], "group": [2],
                      "action": [{"generator": "g1", "matrix": []}]}


def test_action_on_no_generators_grades_like_declared_degrees(capsys, tmp_path):
    action = tmp_path / "action.json"
    action.write_text(json.dumps(SPEC_NO_GENERATORS))
    declared = tmp_path / "declared.json"
    declared.write_text(json.dumps(
        {"generators": [], "relations": [], "group": [2], "g_degrees": []}))
    for command in ("validate", "twist", "invariants"):
        outputs = []
        for path in (action, declared):
            code, out, err = run(capsys, [command, "--input", str(path)])
            assert (code, err) == (0, ""), (command, err)
            outputs.append(json.loads(out))
        if command == "invariants":     # prints no grading block
            assert outputs[0] == outputs[1]
        else:
            assert outputs[0]["grading"] == outputs[1]["grading"] == {
                "g_degrees": [], "group": [2], "named_degrees": {}}


@pytest.mark.parametrize("argv,data,where", [
    (["gb", "--input"], {"generators": 5, "relations": []}, "generators"),
    (["gb", "--input"], {"generators": [{"degree": 1}], "relations": []},
     "generators[0].name"),
    (["gb", "--input"], {"generators": ["x"], "relations": ["x^2", 5]},
     "relations[1]"),
    (["validate", "--input"],
     {"generators": ["x"], "relations": [], "group": 5, "g_degrees": [[1]]},
     "group"),
    (["kgmu", "--group", "2,2", "--cocycle"], [[1, 1], [1, 1]], "the top level"),
    (["gb", "--input"], {"conductor": 0, "generators": ["x"], "relations": []},
     "conductor"),
    (["validate", "--input"], {"generators": ["x"], "relations": [],
                               "group": [2], "action": 5}, "action"),
    (["iso-check", "--lhs", "preset:C(1)", "--rhs", "preset:C(1)", "--map"],
     {"images": {"w1": "w1", "w3": "w3"}}, "images.w2"),
], ids=["generators-number", "generator-without-name", "relation-number",
        "group-number", "cocycle-file-list", "conductor-zero", "action-number",
        "image-missing"])
def test_malformed_json_is_input_error(capsys, tmp_path, argv, data, where):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 2 and out == ""
    assert f"input error: {where} " in err


def test_bad_relation_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "conductor": 4,
        "generators": [{"name": "x", "degree": 1}],
        "relations": ["x + x^2"],
    }))
    code, _, err = run(capsys, ["gb", "--input", str(path)])
    assert code == 2
    assert "input error" in err


def test_constant_relation_is_input_error(capsys, tmp_path):
    # a nonzero constant generates the whole algebra; the Groebner normal
    # words and `normal_form` used to disagree on it
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"generators": ["x"], "relations": ["1", "x^2"]}))
    code, out, err = run(capsys, ["gb", "--degree", "2", "--input", str(path)])
    assert code == 2 and out == ""
    assert "input error" in err and "relation 1 is a nonzero constant" in err


def test_human_mode_renders_text(capsys):
    code, out, _ = run(capsys, ["schur", "--group", "2,2", "--human"])
    assert code == 0
    assert "schur_order: 2" in out


def test_invalid_action_reported_with_falsification_exit(capsys, tmp_path):
    bad = dict(SPEC_XBASIS)
    bad["action"] = [
        {"generator": "g1", "matrix": [["1", "0", "0"], ["0", "1", "0"],
                                       ["0", "0", "i"]]},
        {"generator": "g2", "matrix": [["1", "0", "0"], ["0", "1", "0"],
                                       ["0", "0", "-1"]]},
    ]
    path = tmp_path / "bad_action.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, ["validate", "--input", str(path)])
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False
    assert any("order dividing 2" in v for v in data["violations"])
    code, out, err = run(capsys, ["twist", "--input", str(path)])
    assert (code, out) == (1, "") and "order dividing 2" in err


def test_scalar_division_by_zero_is_input_error(capsys, tmp_path):
    path = tmp_path / "divzero.json"
    path.write_text(json.dumps({
        "conductor": 4,
        "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}],
        "relations": ["(1/(2 - 2))*x*y"],
    }))
    code, _, err = run(capsys, ["gb", "--input", str(path)])
    assert code == 2
    assert "input error" in err


def test_report_command(capsys):
    code, out, _ = run(capsys, ["report"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["twisted_group_algebra"]["is_full_matrix_algebra"] is True


def test_kgmu_with_explicit_table_file(capsys, tmp_path):
    # the Klein cocycle as a literal table in element enumeration order
    # e, g2, g1, g1*g2 with value (-1)^(p*s)
    elements = [(0, 0), (0, 1), (1, 0), (1, 1)]
    table = [["-1" if (g[0] * h[1]) % 2 else "1" for h in elements]
             for g in elements]
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"cocycle": {"table": table}}))
    code, out, _ = run(capsys, ["kgmu", "--group", "2,2",
                                "--cocycle", str(path)])
    assert code == 0
    assert json.loads(out)["is_full_matrix_algebra"] is True


# ---------------------------------------------------------------------------
# start-up: a command loads only its own layers
# ---------------------------------------------------------------------------

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_fresh(argv, timeout=120):
    """`python -m cotwist.cli argv` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "cotwist.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=timeout)


def loaded_modules(argv):
    """The modules a fresh interpreter has loaded after running the command
    `argv` successfully, with "cotwist." left off the package's layers."""
    script = ("import contextlib, io, sys\n"
              "from cotwist.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[1:])\n"
              "print(code, *sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script, *argv],
                         env=dict(os.environ, PYTHONPATH=SRC), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    code, *modules = out.split()
    assert code == "0"
    return {m.removeprefix("cotwist.") for m in modules}


LAYERS = {"action", "cli", "crossed", "cyclo", "errors", "freealg", "gbasis",
          "groups", "jsonio", "linalg", "presets", "twist"}


@pytest.mark.parametrize("command", ["gb", "hilbert"])
def test_groebner_commands_load_only_their_layers(tmp_path, command):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"generators": ["x", "y"],
                                "relations": ["x*y - 2*y*x"]}))
    loaded = loaded_modules([command, "--degree", "4", "--input", str(path)])
    assert loaded & LAYERS == {"cli", "cyclo", "errors", "freealg", "gbasis",
                               "jsonio"}
    assert not loaded & {"crossed", "presets", "groups", "action", "twist",
                         "linalg"}
    # hashlib maps OpenSSL, a few MB of resident memory; only `twist` uses it
    assert "hashlib" not in loaded


def test_twist_loads_no_crossed_product_or_presets(spec_file):
    loaded = loaded_modules(["twist", "--input", spec_file])
    assert {"twist", "groups", "action"} <= loaded
    assert not loaded & {"crossed", "presets"}
    # the input digest maps no OpenSSL where CPython has its own SHA-256
    if importlib.util.find_spec("_sha256") is not None:
        assert "hashlib" not in loaded


def test_kgmu_loads_only_the_group_layer():
    loaded = loaded_modules(["kgmu", "--group", "6,6",
                             "--cocycle", "zeta(6)^(a1*b2)"])
    # `jsonio` imports `freealg` for the presentation readers
    assert loaded & LAYERS == {"cli", "cyclo", "errors", "freealg", "groups",
                               "jsonio"}


# ---------------------------------------------------------------------------
# --degree is bounded
# ---------------------------------------------------------------------------

def test_huge_degree_is_refused_promptly():
    # a fresh process with a time limit: an unbounded degree would run on
    proc = run_fresh(["hilbert", "--input", "preset:B(1)",
                      "--degree", "1000000"], timeout=60)
    assert proc.returncode == 2
    assert f"argument --degree: must be at most {MAX_DEGREE}, got 1000000" \
        in proc.stderr


def test_enumeration_above_the_work_bound_is_refused(capsys, tmp_path):
    # completion on six generators is instant, and `hilbert` counts the
    # normal words without building them; `invariants` would enumerate more
    # than a million of them through degree 8, so it exits 2 before it starts
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "generators": list("abcdef"),
        "relations": ["a*b - b*a", "c*d - d*c - e*f"],
        "group": [2, 2], "cocycle": {"builtin": "klein"},
        "g_degrees": [[0, 0]] * 6}))
    code, out, _ = run(capsys, ["hilbert", "--degree", "8", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["hilbert"] == [1, 6, 34, 192, 1084, 6120, 34552,
                                          195072, 1101328]
    start = time.perf_counter()
    proc = run_fresh(["invariants", "--degree", "8", "--input", str(path)],
                     timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert time.perf_counter() - start < 1
    assert "1338389 normal words through degree 8" in proc.stderr


DEGREE_COMMANDS = [
    ["gb", "--input", "preset:B(1)"], ["hilbert", "--input", "preset:B(1)"],
    ["iso-check", "--lhs", "preset:B(1)", "--rhs", "preset:C(1)"],
    ["invariants", "--input", "preset:B(1)"], ["theorem55"], ["report"]]


@pytest.mark.parametrize("argv", DEGREE_COMMANDS, ids=lambda argv: argv[0])
def test_every_degree_flag_is_bounded(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--degree", str(MAX_DEGREE + 1)])
    assert exc.value.code == 2
    assert "argument --degree: must be at most" in capsys.readouterr().err


# the field is the lcm of the conductors the inputs name, so no command
# takes a flag that sets it
@pytest.mark.parametrize("argv", DEGREE_COMMANDS + [
    ["validate", "--input", "preset:B(1)"], ["twist", "--input", "preset:B(1)"],
    ["kgmu", "--group", "2,2"], ["schur", "--group", "2,2"]],
    ids=lambda argv: argv[0])
def test_batteries_refuse_the_conductor_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--conductor", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --conductor 8" in capsys.readouterr().err


# `validate` truncates nothing and `twist` writes JSON for other commands to
# read, so neither takes a flag it would ignore
@pytest.mark.parametrize("argv", [
    ["validate", "--input", "preset:B(1)", "--degree", "3"],
    ["twist", "--input", "preset:B(1)", "--degree", "3"],
    ["twist", "--input", "preset:B(1)", "--human"]],
    ids=["validate-degree", "twist-degree", "twist-human"])
def test_commands_refuse_flags_they_would_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (f"unrecognized arguments: {' '.join(argv[3:])}"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# the exit-code contract under random input
# ---------------------------------------------------------------------------

_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                  st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.sampled_from(["a", "name", "table"]),
                                  st.integers(0, 2), max_size=2))
_SCALARS = st.one_of(
    st.sampled_from(["0", "1", "-1", "i", "-i", "2", "1/2", "zeta(3)",
                     "zeta(0)", "x", "", "1/0", "i^2"]),
    st.integers(-2, 2), st.none())
_TOKENS = ["x", "y", "z", "*", "+", "-", "^", "2", "3", "i", "(", ")", "/0",
           "[x,y]", "[x,y]_+", "zeta(4)", "1/2", "x*y", "y*x", " ", "**", ","]
_RELATIONS = st.lists(st.one_of(
    st.sampled_from(["x*y - y*x", "x*y + y*x", "x^2 - y^2", "x*y - i*y*x",
                     "x^2", "1", "x - x", "x + x^2", "x*y*x - y"]),
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=6).map("".join),
    _JUNK), max_size=3)
_GROUPS = st.one_of(st.lists(st.integers(1, 4), min_size=1, max_size=2),
                    st.lists(st.one_of(st.integers(-1, 3),
                                       st.sampled_from(["2", 2.5, None])),
                             max_size=3),
                    _JUNK)
_MATRICES = st.one_of(st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
                      _JUNK)
_SPECS = st.fixed_dictionaries({}, optional={
    "conductor": st.sampled_from([1, 2, 4, 0, -1, "4", 2.5]),
    "generators": st.one_of(
        st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=2,
                 unique=True),
        st.lists(st.one_of(
            st.sampled_from(["x", "y", "i", "zeta", "1a", ""]),
            st.fixed_dictionaries(
                {"name": st.sampled_from(["x", "y", "i", 3])},
                optional={"degree": st.sampled_from([1, 2, 0, -1, "1", 1.5])})),
            max_size=3),
        _JUNK),
    "relations": st.one_of(_RELATIONS, _JUNK),
    "group": _GROUPS,
    "g_degrees": st.one_of(
        st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3), _JUNK),
    "action": st.one_of(
        st.lists(st.fixed_dictionaries({
            "generator": st.sampled_from(["g1", "g2", "g3", 1]),
            "matrix": _MATRICES}), max_size=3),
        _JUNK),
    "duality": st.one_of(
        st.fixed_dictionaries(
            {"builtin": st.sampled_from(["standard", "klein", "nope"])}),
        st.lists(st.lists(_SCALARS, max_size=2), max_size=2), _JUNK),
    "cocycle": st.one_of(
        st.fixed_dictionaries(
            {"builtin": st.sampled_from(["klein", "trivial", "nope"])}),
        st.fixed_dictionaries({"formula": st.sampled_from([
            "(-1)^(p*s)", "zeta(4)^(a1*b2)", "i^(a1*b1)", "x", "1/0",
            "zeta(3)^(a1*b2 - a2*b1)", "2"])}),
        st.fixed_dictionaries({"table": st.one_of(
            st.lists(st.lists(_SCALARS, max_size=4), max_size=4), _JUNK)}),
        _JUNK),
    "images": st.one_of(
        st.fixed_dictionaries({}, optional={
            g: st.sampled_from(["x", "y", "x + y", "i*x", "x^2", "w", 5])
            for g in ("x", "y", "w1")}),
        st.lists(st.sampled_from(["x", "y", "w1"]), max_size=3), _JUNK),
})
_FILES = st.one_of(_SPECS.map(json.dumps), _JUNK.map(json.dumps),
                   st.sampled_from(["", "{", "not json", "[1,"]))
_SOURCES = st.sampled_from(["{file}", "{file}", "preset:A(1,-1)",
                            "preset:B(1)", "preset:nope", "{missing}"])
_GROUP_ARGS = st.sampled_from(["2,2", "2,4", "3", "4,4", "0", "-1,2", "a", ""])


@st.composite
def _argv(draw):
    """An argument list for one subcommand, or a malformed one; "{file}"
    stands for the drawn input file, "{missing}" for a path that does not
    exist and "{out}" for a writable one."""
    command = draw(st.sampled_from([
        "validate", "twist", "gb", "hilbert", "iso-check", "invariants",
        "kgmu", "schur", "theorem55", "report", "malformed"]))
    if command == "malformed":
        return draw(st.sampled_from([[], ["nope"], ["gb"], ["--help"],
                                     ["gb", "--input"], ["schur", "--group"],
                                     ["kgmu", "--group", "2", "--bogus"]]))
    argv = [command]
    if command in ("kgmu", "schur"):
        argv += ["--group", draw(_GROUP_ARGS)]
        if command == "kgmu" and draw(st.booleans()):
            argv += ["--cocycle", draw(st.sampled_from([
                "klein", "trivial", "(-1)^(p*s)", "zeta(4)^(a1*b2)", "x",
                "{file}", "{missing}"]))]
    else:
        if command == "iso-check":
            argv += ["--lhs", draw(_SOURCES), "--rhs", draw(_SOURCES)]
            if draw(st.booleans()):
                argv += ["--map", draw(st.sampled_from(["{file}", "{missing}"]))]
        elif command not in ("theorem55", "report"):
            argv += ["--input", draw(_SOURCES)]
        if command == "twist" and draw(st.booleans()):
            argv += ["--output", "{out}"]
        if command not in ("validate", "twist") and draw(st.booleans()):
            argv += ["--degree", draw(st.sampled_from(
                ["0", "1", "2", "3", "4", "-1", "65", "x"]))]
    if command != "twist" and draw(st.booleans()):
        argv.append("--human")
    return argv


@settings(max_examples=60, deadline=5000, derandomize=True)
@given(_FILES, _argv())
@example(json.dumps(SPEC_NO_GENERATORS), ["validate", "--input", "{file}"])
@example(json.dumps(SPEC_NO_GENERATORS), ["twist", "--input", "{file}"])
@example(json.dumps(SPEC_NO_GENERATORS), ["invariants", "--input", "{file}"])
@example(json.dumps(LONG_RELATION), ["hilbert", "--input", "{file}",
                                     "--degree", "3"])
@example(json.dumps(LONG_TABLE_SPEC), ["validate", "--input", "{file}"])
@example(json.dumps(LONG_TABLE_SPEC), ["twist", "--input", "{file}"])
@example("", ["kgmu", "--group", "2", "--cocycle", NINES])
@example(LONG_CONDUCTOR_TEXT, ["hilbert", "--input", "{file}"])
@example(json.dumps(POWER_RELATION), ["gb", "--input", "{file}", "--degree", "3"])
@example(json.dumps(ZETA_1031), ["gb", "--input", "{file}", "--degree", "5"])
@example(json.dumps(CONDUCTOR_1000003), ["hilbert", "--input", "{file}"])
@example("", ["kgmu", "--group", "2,2", "--cocycle", "zeta(100000007)^0"])
def test_exit_code_contract_under_random_input(content, argv):
    # exit 3 is an internal error and exit 1 a falsification, so no input,
    # however malformed, may crash the command or exit 3
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{file}": os.path.join(tmp, "input.json"),
                 "{missing}": os.path.join(tmp, "missing.json"),
                 "{out}": os.path.join(tmp, "out.json")}
        with open(paths["{file}"], "w", encoding="utf-8") as handle:
            handle.write(content)
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:          # argparse: usage error or --help
                code = exc.code
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, content, message)
    assert "internal error" not in message and "Traceback" not in message
