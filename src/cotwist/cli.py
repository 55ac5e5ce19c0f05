"""Command-line interface.

Exit codes: 0 all checks pass, 1 a verification was falsified (a spec whose
cocycle, G-grading or action fails its check included: `validate` prints the
violation, every other command `falsified: <message>` on stderr), 2 input
error (malformed input, or input past a resource limit), 3 internal error
(any other exception).  Output is JSON with sorted keys (byte-deterministic
given the inputs); --human switches every command but `twist`, whose JSON
the others read, to an indented text rendering.

Each command imports the layers it runs inside its own function, so a
process loads only what its command needs: `gb` and `hilbert` on a file load
`errors`, `cyclo`, `freealg`, `gbasis` and `jsonio`, and no linear algebra,
group, twist or crossed-product code.  Module level holds only the I/O boundary
(`jsonio`, which loads `cyclo` and `freealg`) and the error types; `twist`'s
input digest uses CPython's own SHA-256, so that no command maps OpenSSL.
"""

from __future__ import annotations

import argparse
import sys
from math import lcm
from typing import TYPE_CHECKING, Optional

from .errors import (CotwistError, DegreeBoundExceeded, FalsificationError,
                     LimitExceeded, ParseError, ValidationError)
from .freealg import MAX_LITERAL_DIGITS
from .jsonio import (SpecBundle, basis_to_dict, cocycle_from_dict,
                     cocycle_to_dict, dump_json, gb_to_dict, grading_to_dict,
                     load_json, map_images_from_dict, presentation_from_dict,
                     presentation_to_dict, spec_bundle_from_dict)

if TYPE_CHECKING:
    from .freealg import Presentation

_PRESET_SCHEME = "preset:"


def _load_presentation(arg: str) -> Presentation:
    if arg.startswith(_PRESET_SCHEME):
        from .presets import preset
        return preset(arg[len(_PRESET_SCHEME):]).presentation
    return presentation_from_dict(load_json(arg))


def _load_bundle(arg: str) -> SpecBundle:
    if arg.startswith(_PRESET_SCHEME):
        from .presets import preset
        p = preset(arg[len(_PRESET_SCHEME):])
        return SpecBundle(None, p.spec)
    return spec_bundle_from_dict(load_json(arg))


def _input_digest(arg: str) -> str:
    try:        # CPython's own SHA-256; hashlib's maps OpenSSL, about 4 MB
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    if arg.startswith(_PRESET_SCHEME):
        return sha256(arg.encode("utf-8")).hexdigest()
    with open(arg, "rb") as handle:
        return sha256(handle.read()).hexdigest()


def _emit(data: dict, human: bool) -> None:
    if human:
        _render(data, 0)
    else:
        sys.stdout.write(dump_json(data))


def _emit_record(record: dict, human: bool) -> int:
    """Print a check's record; exit 0 when its `pass` verdict is true."""
    _emit(record, human)
    return 0 if record.get("pass") is True else 1


def _render(node, depth: int, label: str = "") -> None:
    pad = "  " * depth
    if isinstance(node, dict):
        if label:
            print(f"{pad}{label}:")
        for key in sorted(node):
            _render(node[key], depth + (1 if label else 0), key)
    elif isinstance(node, list):
        if label:
            print(f"{pad}{label}:")
        for item in node:
            if isinstance(item, (dict, list)):
                _render(item, depth + 1)
                print()
            else:
                print(f"{pad}  - {item}")
    else:
        print(f"{pad}{label}: {node}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    bundle, violations = None, []
    try:
        bundle = _load_bundle(args.input)
    except FalsificationError as exc:
        violations = [str(exc)]
    out: dict = {"valid": not violations, "violations": violations}
    if bundle is not None:
        spec = bundle.spec
        out["grading"] = grading_to_dict(spec.grading)
        out["presentation"] = presentation_to_dict(spec.presentation)
        if bundle.basis is not None:
            out["basis"] = basis_to_dict(bundle.basis, spec.group)
        out["relation_degrees"] = [
            spec.group.describe(spec.grading.poly_degree(r))
            for r in spec.presentation.relations]
    _emit(out, args.human)
    return 0 if not violations else 1


def _cmd_twist(args) -> int:
    from .cyclo import root_of_unity
    from .twist import twist_presentation
    bundle = _load_bundle(args.input)
    spec = bundle.spec
    twisted = twist_presentation(spec)
    conductor = twisted.presentation.conductor
    exponent = spec.group.exponent()
    out = {
        "presentation": presentation_to_dict(twisted.presentation),
        "grading": grading_to_dict(twisted),
        "provenance": {
            "input_sha256": _input_digest(args.input),
            "cocycle": cocycle_to_dict(spec.cocycle, conductor),
            "basis_matrix": (basis_to_dict(bundle.basis, spec.group)["matrix"]
                             if bundle.basis is not None else None),
            "duality": [[str(root_of_unity(k, exponent, conductor)) for k in row]
                        for row in spec.duality.table],
        },
    }
    text = dump_json(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gb(args) -> int:
    from .gbasis import hilbert_coeffs, truncated_gb
    pres = _load_presentation(args.input)
    gb = truncated_gb(pres, args.degree)
    out = gb_to_dict(gb)
    out["hilbert"] = list(hilbert_coeffs(pres, args.degree))
    _emit(out, args.human)
    return 0


def _cmd_hilbert(args) -> int:
    from .gbasis import hilbert_coeffs
    pres = _load_presentation(args.input)
    out = {"degree": args.degree,
           "hilbert": list(hilbert_coeffs(pres, args.degree))}
    _emit(out, args.human)
    return 0


def _cmd_iso_check(args) -> int:
    from .freealg import GenMap, embed_presentation
    from .gbasis import verify_iso
    lhs = _load_presentation(args.lhs)
    rhs = _load_presentation(args.rhs)
    if args.map:
        images = map_images_from_dict(load_json(args.map), lhs, rhs)
    else:
        if [g.degree for g in lhs.generators] != [g.degree for g in rhs.generators]:
            raise ValidationError(
                "default identity map needs matching generator degrees")
        images = tuple(rhs.gen_poly(j) for j in range(len(rhs.generators)))
    # one field holds both presentations and every scalar the map names
    conductor = lcm(lhs.conductor, rhs.conductor, *(p.conductor for p in images))
    lhs = embed_presentation(lhs, conductor)
    rhs = embed_presentation(rhs, conductor)
    genmap = GenMap(lhs.generators, rhs.generators, conductor,
                    tuple(p.with_conductor(conductor) for p in images))
    return _emit_record(verify_iso(lhs, rhs, genmap, args.degree), args.human)


def _cmd_invariants(args) -> int:
    from .crossed import verify_invariant_ring
    bundle = _load_bundle(args.input)
    return _emit_record(verify_invariant_ring(bundle.spec, args.degree),
                        args.human)


def _cmd_kgmu(args) -> int:
    from .cyclo import root_of_unity
    from .groups import AbGroup, commutator_radical
    group = AbGroup(args.group)
    spec = args.cocycle
    if spec in ("klein", "trivial"):
        data = {"cocycle": {"builtin": spec}}
    elif spec.endswith(".json"):
        data = load_json(spec)
    else:
        data = {"cocycle": {"formula": spec}}
    mu, conductor = cocycle_from_dict(data, group)
    elements = group.elements()
    labels = [f"u[{group.describe(g)}]" for g in elements]
    structure = {}
    for g, lg in zip(elements, labels):
        for h, lh in zip(elements, labels):
            c = root_of_unity(mu.value(g, h), mu.modulus, conductor)
            label = labels[group.index(group.mul(g, h))]
            if c.is_one():
                term = label
            elif (-c).is_one():
                term = f"-{label}"
            else:
                term = f"({c})*{label}"
            structure[f"{lg}*{lh}"] = term
    radical = commutator_radical(mu)
    out = {
        "dimension": group.order,
        "structure_constants": structure,
        "center_dimension": len(radical),
        "trace_form_rank": group.order,
        "is_full_matrix_algebra": len(radical) == 1,
        "cocycle": cocycle_to_dict(mu, conductor),
    }
    _emit(out, args.human)
    return 0


def _cmd_schur(args) -> int:
    from .groups import AbGroup, schur_order
    group = AbGroup(args.group)
    out = {"group": list(group.factors), "schur_order": schur_order(group)}
    _emit(out, args.human)
    return 0


def _cmd_checks(args) -> int:
    """`theorem55` runs one entry of `CHECKS`, `report` all of them."""
    from .presets import CHECKS, full_report
    if args.check is None:
        out = full_report(args.degree)
        _emit(out, args.human)
        return 0 if out["passed"] else 1
    return _emit_record(CHECKS[args.check](args.degree), args.human)


# No Groebner completion this tool can finish comes near this degree (the
# Sklyanin algebra's Hilbert prefix takes under a second at degree 7, seconds
# at 9 and half a minute at 10), so a larger --degree is refused before any
# work rather than run until it is killed.
MAX_DEGREE = 64


def _int(text: str) -> int:
    if len(text) > MAX_LITERAL_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{len(text)} characters exceed the limit {MAX_LITERAL_DIGITS}")
    return int(text)


def _degree(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    if value > MAX_DEGREE:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_DEGREE}, got {value}")
    return value


def _int_list(text: str) -> tuple:
    return tuple(map(_int, text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotwist",
        description="Exact cocycle twists of finitely presented graded "
                    "algebras under finite abelian group actions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree=6):
        if degree is not None:
            p.add_argument("--degree", type=_degree, default=degree,
                           help="truncation degree (default %(default)s)")
        p.add_argument("--human", action="store_true",
                       help="indented text output instead of JSON")

    p = sub.add_parser("validate", help="validate an action and print the "
                                        "homogeneous basis and degree table")
    p.add_argument("--input", required=True)
    common(p, degree=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("twist", help="twist a presentation by its cocycle")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("gb", help="truncated Groebner basis and Hilbert prefix")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("hilbert", help="Hilbert prefix of a presentation")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("iso-check", help="verify a generator map between "
                                         "presentations to a degree bound")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--map", default=None,
                   help="JSON file with generator images (default: identity)")
    common(p)
    p.set_defaults(func=_cmd_iso_check)

    p = sub.add_parser("invariants", help="invariant ring of the crossed "
                                          "product vs the twisted presentation")
    p.add_argument("--input", required=True)
    common(p, degree=4)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("kgmu", help="twisted group algebra structure "
                                    "constants and center")
    p.add_argument("--group", type=_int_list, required=True,
                   help="cyclic factors, e.g. 2,2")
    p.add_argument("--cocycle", default="trivial",
                   help="'klein', 'trivial', a formula, or a JSON file")
    common(p, degree=None)
    p.set_defaults(func=_cmd_kgmu)

    p = sub.add_parser("schur", help="order of the Schur multiplier")
    p.add_argument("--group", type=_int_list, required=True,
                   help="cyclic factors, e.g. 3,3")
    common(p, degree=None)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("theorem55", help="run the built-in twist-equivalence "
                                         "suite on the preset families")
    common(p)
    p.set_defaults(func=_cmd_checks, check="twist_suite")

    p = sub.add_parser("report", help="run the full verification battery")
    common(p)
    p.set_defaults(func=_cmd_checks, check=None)
    return parser


def main(argv: Optional[list] = None) -> int:
    # input literals are bounded by MAX_LITERAL_DIGITS, so CPython's limit
    # (from 3.10.7) would only stop the output of a coefficient a power built
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, DegreeBoundExceeded, LimitExceeded,
            OSError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CotwistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
