"""Byte-for-byte snapshots of CLI output.

Output bytes are part of the contract (sorted-key JSON, deglex order, the
normal-form strategy), so a rewrite of a hot path must leave these files
unchanged.  Regenerate a snapshot only in a change that means to alter the
output, from the repository root:

    PYTHONPATH=src python -m cotwist.cli <argv> > tests/golden/<name>.json
"""

import os

import pytest

from cotwist.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SKLYANIN = os.path.join(GOLDEN, "sklyanin.json")
# conductor 2 from the standard duality on C2 x C2 (rational relations and
# cocycle), and conductor 6 from a formula naming zeta(6) on C3 x C3
KLEIN_STANDARD = os.path.join(GOLDEN, "klein-standard.json")
C3C3 = os.path.join(GOLDEN, "c3c3.json")
# every construct of the expression grammar: zeta(8), i, [a,b], [a,b]_+, ]+,
# **, a scalar ^-1, a nested bracket and a rational coefficient
GRAMMAR = os.path.join(GOLDEN, "grammar.json")

TWIST_SOURCES = {"A": "A(1,-1)", "B": "B(1)", "E": "E(1,i)",
                 "G": "G(1,(1+i)/2)"}

CASES = {
    "report": ["report", "--degree", "6"],
    "theorem55": ["theorem55"],
    "invariants-A": ["invariants", "--degree", "4",
                     "--input", "preset:A(1,-1)"],
    "sklyanin-twist": ["twist", "--input", SKLYANIN],
    "sklyanin-gb": ["gb", "--degree", "6", "--input", SKLYANIN],
    "twist-klein-standard": ["twist", "--input", KLEIN_STANDARD],
    "twist-c3c3": ["twist", "--input", C3C3],
    "kgmu-c3c3": ["kgmu", "--group", "3,3", "--cocycle", "zeta(6)^(2*a1*b2)"],
    # the radical of the commutator bicharacter is {e, g2^2}: center of
    # dimension 2, not a matrix algebra
    "kgmu-c2c4": ["kgmu", "--group", "2,4", "--cocycle", "(-1)^(a1*b2)"],
    # a trivial radical on order 36: center of dimension 1, M_6
    "kgmu-c6c6": ["kgmu", "--group", "6,6", "--cocycle", "zeta(6)^(a1*b2)"],
    # degree 7 reaches the multiplicative check's longest products
    "invariants-A7": ["invariants", "--degree", "7",
                      "--input", "preset:A(1,-1)"],
    "twist-grammar": ["twist", "--input", GRAMMAR],
    # action blocks, checked and diagonalized at load: both eigenbases
    # permute the generators into G-degree order
    "validate-grammar": ["validate", "--input", GRAMMAR],
    "validate-sklyanin": ["validate", "--input", SKLYANIN],
    "gb-grammar": ["gb", "--degree", "4", "--input", GRAMMAR],
}
for _key, _name in TWIST_SOURCES.items():
    CASES[f"gb-{_key}"] = ["gb", "--degree", "6", "--input", f"preset:{_name}"]
    CASES[f"hilbert-{_key}"] = ["hilbert", "--degree", "6",
                                "--input", f"preset:{_name}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as handle:
        expected = handle.read()
    assert out.encode("utf-8") == expected
