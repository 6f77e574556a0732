"""Command-line front end.

Subcommands: check, grouplikes, characters, panov, ore build, example.
Exit codes: 0 all checks passed, 1 some axiom or clause failed, 2 invalid
input or usage.  Reports are line-oriented (`AXIOM <name> PASS|FAIL
[witness=...]`, `CLAUSE ...`, `VERDICT ...`) and stable under rerun.
"""

from __future__ import annotations

import argparse
import sys

from .bialgebra import (algebra_report, check_antipode, check_weak_bialgebra,
                        coalgebra_report)
from .errors import ConditionsFailed, ValidationError, WeakHopfError
from .fields import Field, is_prime
from .fixtures import OreData, twisted_derivation_data, sweedler_data
from .groupoid import GroupPresentation, build_groupoid_algebra, matrix_algebra
from .grouplike import Character, brute_force_weak_grouplikes, enumerate_weak_grouplikes_matrix
from .ore import (extend_antipode, extend_coalgebra, make_ore, refuse_large_degree,
                  verify_extension)
from .panov import HOPF, NECESSARY, SUFFICIENT, groupoid_character
from .report import AxiomReport
from .specfile import SpecBundle, parse_spec, spec_text, write_spec


def _print_report(report):
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _print_chi(wb, chi):
    if chi is None:
        return
    zero = wb.field.zero()
    parts = [f"{wb.labels[i]}={wb.field.format(chi.get(i, zero))}" for i in range(wb.dim)]
    print("CHI " + " ".join(parts))


def cmd_check(args):
    bundle = parse_spec(args.spec, validate=False)
    checks = (algebra_report, coalgebra_report, check_weak_bialgebra)
    checks += (check_antipode,) if bundle.has_antipode else ()
    return _print_report(AxiomReport().merge(*(check(bundle.wb) for check in checks)))


def cmd_grouplikes(args):
    if args.matrix is not None:
        if args.prime is not None and not is_prime(args.prime):
            raise ValidationError(f"--prime must be a prime number, got {args.prime}")
        field = Field.rationals() if args.prime is None else Field.prime(args.prime)
        enum = enumerate_weak_grouplikes_matrix(args.matrix, field)
        alg = enum.algebra
        for g in enum.grouplikes:
            tag = "GROUPLIKE" if g.is_invertible else "WEAK-GROUPLIKE"
            print(f"{tag} {alg.format_element(g.element)}")
        print(f"ZERO-ELEMENT {alg.format_element(enum.zero.element)} (excluded from counts)")
        print(f"COUNT {len(enum.grouplikes)} INVERTIBLE {len(enum.invertible)}")
        return 0
    if args.prime is not None:
        raise ValidationError("--prime applies to --matrix only; --brute scans the spec's field")
    bundle = parse_spec(args.brute)
    found = brute_force_weak_grouplikes(bundle.wb)
    for g in found:
        print(f"WEAK-GROUPLIKE {bundle.wb.format_element(g)}")
    print(f"COUNT {len(found)} (including zero if present)")
    return 0


def cmd_characters(args):
    bundle = parse_spec(args.spec)
    if args.verify not in bundle.functionals:
        raise ValidationError(f"no functional named {args.verify!r} in the spec file")
    wb, character = bundle.wb, Character(bundle.wb, bundle.functionals[args.verify])
    left, right = character.left_failure is None, character.right_failure is None
    print(f"CHARACTER left {'PASS' if left else 'FAIL'}")
    print(f"CHARACTER right {'PASS' if right else 'FAIL'}")
    if character.inverse is not None:
        zero = wb.field.zero()
        print("INVERSE two-sided " + " ".join(
            str(wb.field.format(character.inverse.get(i, zero))) for i in range(wb.dim)))
    else:
        print(f"INVERSE left={'yes' if character.left_inverse is not None else 'no'} "
              f"right={'yes' if character.right_inverse is not None else 'no'}")
    _print_chi(wb, character.chi)
    return 0 if (left and right) else 1


def _named_ore_data(bundle: SpecBundle, args):
    for name in (args.sigma, args.delta):
        if name not in bundle.maps:
            raise ValidationError(f"no map named {name!r} in the spec file")
    if args.g not in bundle.elements:
        raise ValidationError(f"no element named {args.g!r} in the spec file")
    return bundle.maps[args.sigma], bundle.maps[args.delta], bundle.elements[args.g]


def cmd_panov(args):
    bundle = parse_spec(args.spec)
    sigma, delta, g = _named_ore_data(bundle, args)
    if args.hopf and not bundle.has_antipode:
        raise ValidationError("spec file has no antipode; --hopf needs a weak Hopf algebra")
    wb = bundle.wb
    clauses = make_ore(wb, sigma, delta, g).clauses  # the Ore data `ore build` accepts, or exit 2
    sections = [("necessary", NECESSARY), ("sufficient", SUFFICIENT)]
    if args.hopf:
        sections.append(("antipode", HOPF))
    ok = True
    for title, names in sections:
        print(f"# {title} conditions")
        verdict = clauses.verdict(names)
        for line in verdict.lines():
            print(line)
        if names is NECESSARY:
            _print_chi(wb, verdict.chi)
        ok = ok and verdict.passed
    return 0 if ok else 1


def cmd_ore(args):
    bundle = parse_spec(args.spec)
    refuse_large_degree(bundle.wb, args.verify_degree)
    sigma, delta, g = _named_ore_data(bundle, args)
    H = make_ore(bundle.wb, sigma, delta, g)
    try:
        if bundle.has_antipode:
            H = extend_antipode(H)
        else:
            H = extend_coalgebra(H)
    except ConditionsFailed as exc:
        for line in exc.verdict.lines():
            print(line)
        return 1
    report = verify_extension(H, args.verify_degree)
    print(f"BUILT {H!r}")
    return _print_report(report)


def _parse_group(text) -> GroupPresentation:
    text = text.strip()
    if text in ("1", "trivial"):
        return GroupPresentation.trivial()
    if text.upper().startswith("Z") and text[1:].isdigit():
        return GroupPresentation.cyclic(int(text[1:]))
    if text.upper().startswith("S") and text[1:].isdigit():
        return GroupPresentation.symmetric(int(text[1:]))
    raise ValidationError(f"unknown group {text!r} (use trivial, Z<m> or S<n>)")


def _int_param(text, what):
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{what} must be an integer, got {text!r}") from None


def _scalar_list(field, text):
    return [field.parse(part.strip()) for part in text.split(",")]


def _ore_bundle(data: OreData, name, **functionals) -> SpecBundle:
    """The spec of Ore data: g, chi and any extra functionals, sigma and delta."""
    return SpecBundle(field=data.R.field, wb=data.R,
                      elements={"g": data.g},
                      functionals={"chi": data.chi, **functionals},
                      maps={"sigma": data.sigma, "delta": data.delta},
                      name=name)


def _matrix_bundle(n) -> SpecBundle:
    ga = matrix_algebra(n)
    field = ga.field
    q = [field(i + 1) for i in range(n)]
    functionals = {}
    if n > 1:
        functionals["chi"] = groupoid_character(ga, [field.one()], q).chi
    return SpecBundle(field=field, wb=ga, functionals=functionals, name=f"m{n}q")


# The positional parameters each example kind takes: (fewest, most, usage).
EXAMPLE_PARAMS = {"sweedler": (0, 0, "example sweedler"),
                  "matrix": (0, 1, "example matrix [<n>]"),
                  "groupoid": (2, 2, "example groupoid <group> <n>"),
                  "section5": (0, 0, "example section5 [--group G] [--n N] [--rho R] [--q Q]")}


def cmd_example(args):
    fewest, most, usage = EXAMPLE_PARAMS[args.kind]
    if not fewest <= len(args.params) <= most:
        raise ValidationError(f"usage: {usage}")
    if args.kind == "sweedler":
        bundle = _ore_bundle(sweedler_data(), "sweedler-data")
    elif args.kind == "matrix":
        n = _int_param(args.params[0], "matrix size") if args.params else 2
        bundle = _matrix_bundle(n)
    elif args.kind == "groupoid":
        group = _parse_group(args.params[0])
        n = _int_param(args.params[1], "groupoid size")
        ga = build_groupoid_algebra(group, n)
        bundle = SpecBundle(field=ga.field, wb=ga, name=f"m{n}k{group.name}")
    else:  # section5; argparse refuses any other kind
        group = _parse_group(args.group)
        field = Field.rationals()
        rho = _scalar_list(field, args.rho)
        q = _scalar_list(field, args.q)
        data = twisted_derivation_data(group, args.n, rho, q)
        alpha = {} if data.alpha is None else {"alpha": data.alpha}
        bundle = _ore_bundle(data, f"section5-{group.name}-n{args.n}", **alpha)
    if args.output:
        write_spec(bundle, args.output)
        print(f"WROTE {args.output}")
    else:
        print(spec_text(bundle))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weakhopf",
        description="Exact checks for weak Hopf algebras and their Ore extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run all axiom checks on a spec file")
    p.add_argument("spec")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("grouplikes", help="enumerate or scan for weak group-likes")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--matrix", type=int, metavar="N",
                      help="closed-form enumeration for the matrix algebra M_N")
    mode.add_argument("--brute", metavar="SPEC",
                      help="exhaustive scan of a spec over a prime field")
    p.add_argument("--prime", type=int,
                   help="base field for --matrix (default rationals); refused with --brute")
    p.set_defaults(func=cmd_grouplikes)

    p = sub.add_parser("characters", help="verify a named functional as a weak character")
    p.add_argument("spec")
    p.add_argument("--verify", required=True, metavar="NAME")
    p.set_defaults(func=cmd_characters)

    p = sub.add_parser("panov", help="decide the Ore extension conditions")
    p.add_argument("spec")
    p.add_argument("--sigma", default="sigma", metavar="NAME")
    p.add_argument("--delta", default="delta", metavar="NAME")
    p.add_argument("--g", default="g", metavar="NAME")
    p.add_argument("--hopf", action="store_true", help="also decide the antipode conditions")
    p.set_defaults(func=cmd_panov)

    p = sub.add_parser("ore", help="build and verify an Ore extension")
    p.add_argument("ore_command", choices=["build"])
    p.add_argument("spec")
    p.add_argument("--sigma", default="sigma", metavar="NAME")
    p.add_argument("--delta", default="delta", metavar="NAME")
    p.add_argument("--g", default="g", metavar="NAME")
    p.add_argument("--verify-degree", type=int, default=3, metavar="D")
    p.set_defaults(func=cmd_ore)

    p = sub.add_parser("example", help="emit a bundled example as a spec file")
    p.add_argument("kind", choices=["sweedler", "matrix", "groupoid", "section5"])
    p.add_argument("params", nargs="*",
                   help="matrix: <n>; groupoid: <group> <n>")
    p.add_argument("--group", default="Z2", help="group for section5 (trivial, Z<m>, S<n>)")
    p.add_argument("--n", type=int, default=1, help="matrix size for section5")
    p.add_argument("--rho", default="1,-1", help="comma-separated group character values")
    p.add_argument("--q", default="1", help="comma-separated nonzero scales")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except WeakHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
