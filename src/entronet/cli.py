"""Command-line front end.

Exit codes: 0 success/verified, 1 verification failed, 2 parse error,
3 validation error, 4 usage error (an input past a size bound, the
factoring budget or the double range included).  Results go to stdout,
diagnostics to stderr; `--json` switches results to one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import affine as af
from . import dsl, render, rewrite
from .groupnet.cohomology import (
    SYSTEM_SIZE_BOUND,
    SizeBoundExceeded,
    central_extension,
    check_system_size,
    h_solver,
)
from .groupnet.catalog import binomial_cocycle, carry, pmi_cocycle, witt, ProbSpace
from .groupnet.diagrams import (
    GDiagramError,
    eval_alpha_c,
    eval_alpha_cf,
    eval_alpha_f,
    eval_alpha_u,
    validate_gdiagram,
)
from .groupnet.groups import GModule, Group, GroupValidationError
from .jspace import render_float
from .scalars import DoubleRangeExceeded, FactoringBudgetExceeded, parse_rational

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_USAGE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str) -> dsl.Resolved:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}", EXIT_PARSE)
    try:
        sf = dsl.parse(text)
    except dsl.ParseError as exc:
        raise CliError(f"{path}:{exc}", EXIT_PARSE)
    try:
        return dsl.resolve(sf)
    except dsl.ResolveError as exc:
        raise CliError(f"{path}:{exc}", EXIT_VALIDATION)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE)


def _emit(args, lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, default=str))
    else:
        for line in lines:
            print(line)


def _need(table: dict, name: str, what: str):
    if name not in table:
        raise CliError(f"no {what} named {name!r}", EXIT_USAGE)
    return table[name]


def cmd_validate(args) -> int:
    resolved = _load(args.file)
    counts = {
        "objects": len(resolved.objects),
        "diagrams": len(resolved.diagrams),
        "groups": len(resolved.groups),
        "modules": len(resolved.modules),
        "cocycles": len(resolved.cocycles1) + len(resolved.cocycles2),
        "gdiagrams": len(resolved.gdiagrams),
    }
    _emit(args, [f"ok: {counts}"], {"ok": True, "counts": counts})
    return EXIT_OK


def cmd_weight(args) -> int:
    resolved = _load(args.file)
    obj = _need(resolved.objects, args.object, "object")
    w = af.object_weight(obj)
    _emit(args, [f"a = {w.a}", f"c = {w.c}"], {"a": str(w.a), "c": str(w.c)})
    return EXIT_OK


def cmd_jinv(args) -> int:
    resolved = _load(args.file)
    d = _need(resolved.diagrams, args.diagram, "diagram")
    row = af.MODE_TABLE[d.mode]
    value = af.j_invariant(d)
    if args.format == "float":
        value = value if row.entropy is None else render_float(row.entropy(value))
        _emit(args, [repr(value)], {"float": value})
    elif row.entropy is None:
        raise CliError("float-mode diagram; use --format float", EXIT_USAGE)
    elif args.format == "entropy":
        value = row.entropy(value)
        _emit(
            args,
            [value.pretty()],
            {"constant": str(value.constant), "logpart": value.logpart.to_text()},
        )
    elif d.mode != af.MODE_J:
        raise CliError("diagram evaluates to an entropy scalar; use --format entropy", EXIT_USAGE)
    else:
        _emit(args, [value.to_text()], {"prime_vector": value.to_text()})
    return EXIT_OK


def cmd_entropy(args) -> int:
    try:
        weights = [parse_rational(tok) for tok in args.dist.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad distribution: {exc}", EXIT_USAGE)
    if not weights:
        raise CliError("empty distribution", EXIT_USAGE)
    value = af.shannon_entropy(weights)
    approx = render_float(value)
    _emit(
        args,
        [value.pretty(), repr(approx)],
        {
            "exact": value.pretty(),
            "constant": str(value.constant),
            "logpart": value.logpart.to_text(),
            "float": approx,
        },
    )
    return EXIT_OK


def cmd_chain(args) -> int:
    try:
        z = [parse_rational(t) for t in args.z.split(",") if t.strip()]
        ys = [[parse_rational(t) for t in spec.split(",") if t.strip()] for spec in args.y]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad distribution: {exc}", EXIT_USAGE)
    try:
        ok = af.chain_rule_check(z, ys)
    except (ValueError, af.DiagramError) as exc:
        raise CliError(str(exc), EXIT_USAGE)
    _emit(args, ["verified" if ok else "FAILED"], {"verified": ok})
    return EXIT_OK if ok else EXIT_FAILED


def cmd_normalize(args) -> int:
    resolved = _load(args.file)
    d = _need(resolved.diagrams, args.diagram, "diagram")
    nd = rewrite.normalize(d)
    src_decl = dsl.object_to_decl(f"{args.diagram}_src", nd.source)
    tgt_decl = dsl.object_to_decl(f"{args.diagram}_tgt", af.validate(nd))
    decl = dsl.diagram_to_decl(
        f"{args.diagram}_normal", src_decl.name, tgt_decl.name, nd
    )
    text = dsl.print_source(dsl.SourceFile((src_decl, tgt_decl, decl), nd.mode))
    if args.output:
        _write(args.output, text)
        _emit(args, [f"wrote {args.output}"], {"wrote": args.output})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check_rewrites(args) -> int:
    from .sampling import seeded_rng

    resolved = _load(args.file)
    d = _need(resolved.diagrams, args.diagram, "diagram")
    rng = seeded_rng(17)
    trials, applied = args.trials, 0
    for _ in range(trials):
        sites = rewrite.applicable_sites(d)
        if not sites:
            break
        name, at = rng.choice(sites)
        before_boundary = (d.source, af.validate(d))
        before_j = af.j_invariant(d)
        d2 = rewrite.apply(d, rewrite.RULES[name], at)
        if (d2.source, af.validate(d2)) != before_boundary or not af.values_equal(
            d.mode, af.j_invariant(d2), before_j
        ):
            _emit(args, [f"FAILED at {name}@{at}"], {"verified": False, "rule": name})
            return EXIT_FAILED
        d = d2
        applied += 1
    _emit(
        args,
        [f"verified: {applied} rewrites applied"],
        {"verified": True, "applied": applied},
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    resolved = _load(args.file)
    d = _need(resolved.gdiagrams, args.gdiagram, "gdiagram")
    try:
        validate_gdiagram(d)
        if args.with_ == "alphaU":
            module = _need(resolved.modules, args.module, "module") if args.module else None
            if module is None:
                raise CliError("alphaU needs --module", EXIT_USAGE)
            value = eval_alpha_u(d, module)
        elif args.with_ == "alphaF":
            f = _need(resolved.cocycles1, args.cocycle, "cocycle1")
            value = eval_alpha_f(d, f)
        elif args.with_ == "alphaC":
            c = _need(resolved.cocycles2, args.cocycle, "cocycle2")
            value = eval_alpha_c(d, c)
        else:
            c = _need(resolved.cocycles2, args.cocycle, "cocycle2")
            f = _need(resolved.cocycles1, args.cocycle1, "cocycle1")
            value = eval_alpha_cf(d, c, f)
    except (GDiagramError, GroupValidationError) as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    _emit(args, [str(value)], {"value": list(value)})
    return EXIT_OK


def cmd_extension(args) -> int:
    resolved = _load(args.file)
    c = _need(resolved.cocycles2, args.cocycle, "cocycle2")
    try:
        T = central_extension(c)
    except SizeBoundExceeded as exc:
        raise CliError(f"extension too large: {exc}", EXIT_USAGE)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    profile = T.order_profile()
    lines = [f"order {T.order}"] + [f"order-{k}: {v}" for k, v in sorted(profile.items())]
    _emit(args, lines, {"order": T.order, "profile": {str(k): v for k, v in profile.items()}})
    return EXIT_OK


def _spec_ints(spec: str, rest: str) -> list[int]:
    try:
        return [int(x) for x in rest.split(",")]
    except ValueError:
        raise CliError(f"bad spec {spec!r}: expected comma-separated integers", EXIT_USAGE)


def _parse_group_spec(spec: str, rank: int, degree: int) -> Group:
    kind, _, rest = spec.partition(":")
    if kind not in ("cyclic", "aff1modp", "product"):
        raise CliError(f"unknown group spec {spec!r}", EXIT_USAGE)
    nums = _spec_ints(spec, rest)
    if kind != "product" and len(nums) != 1:
        raise CliError(f"bad spec {spec!r}: expected one integer", EXIT_USAGE)
    order = nums[0] * (nums[0] - 1) if kind == "aff1modp" else math.prod(nums)
    check_system_size(order, rank, degree)  # before the group's tables are built
    if kind == "aff1modp":
        return Group.aff1_mod_p(nums[0])
    g = Group.cyclic(nums[0])
    for n in nums[1:]:
        g = Group.direct_product(g, Group.cyclic(n))
    return g


def _largest_order(degree: int) -> int:
    """The largest group order whose H^degree with one modulus is within the bound."""
    n = 2
    while n ** (degree + 1) <= SYSTEM_SIZE_BOUND:
        n += 1
    return n


def cmd_h2(args) -> int:
    kind, _, rest = args.module.partition(":")
    if kind != "z":
        raise CliError(f"unknown module spec {args.module!r}", EXIT_USAGE)
    moduli = _spec_ints(args.module, rest)
    try:
        G = _parse_group_spec(args.group, len(moduli), args.degree)
        factors, _ = h_solver(G, GModule.trivial(G, moduli), args.degree)
    except SizeBoundExceeded as exc:
        raise CliError(str(exc), EXIT_USAGE)
    except GroupValidationError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    order = 1
    for f in factors:
        order *= f
    lines = [f"invariant factors: {factors or '[]'}", f"order {order}"]
    _emit(args, lines, {"factors": factors, "order": order})
    return EXIT_OK


def _check_triples(n: int, what: str) -> None:
    """Refuse a cocycle law over n elements, checked on about n**3 triples,
    past SYSTEM_SIZE_BOUND."""
    if n**3 > SYSTEM_SIZE_BOUND:
        raise SizeBoundExceeded(
            f"{what} has {n} elements, {n**3} triples to check, over the bound of "
            f"{SYSTEM_SIZE_BOUND}"
        )


def _catalog_cocycle(args):
    """The named cocycle; ValueError for a parameter it does not accept."""
    if args.which == "carry":
        return carry(args.n)
    if args.which == "witt":
        return witt(args.p)
    if args.which == "binomial":
        _check_triples(args.max + 1, "the binomial range")
        return binomial_cocycle(args.max)
    masses = {}
    for tok in args.masses.split(";"):
        name, _, val = tok.partition("=")
        masses[name.strip()] = parse_rational(val)
    # before the events, all subsets of the points, are listed
    _check_triples(2 ** len(masses), "the event space")
    return pmi_cocycle(ProbSpace(masses))


def cmd_catalog(args) -> int:
    from .groupnet.cohomology import verify_cocycle2

    try:
        if args.which in ("carry", "witt"):
            # before the group is built: verify_cocycle2's work is cubic in the order
            check_system_size(args.n if args.which == "carry" else args.p, 1, 2)
        c = _catalog_cocycle(args)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(str(exc), EXIT_USAGE)
    if args.which == "carry":
        ok = verify_cocycle2(c)
        lines = [f"carry({args.n}) verified: {ok}"]
        payload = {"verified": ok}
    elif args.which == "witt":
        ok = verify_cocycle2(c)
        values = {f"({x},{y})": c(x, y)[0] for x in range(args.p) for y in range(args.p)}
        lines = [f"witt({args.p}) verified: {ok}"]
        payload = {"verified": ok, "values": values}
    elif args.which == "binomial":
        ok = c.verify()
        lines = [f"binomial up to {args.max} verified: {ok}"]
        payload = {"verified": ok}
    else:
        ok = c.verify()
        lines = [f"pmi verified: {ok}"]
        payload = {"verified": ok}
    _emit(args, lines, payload)
    return EXIT_OK if payload["verified"] else EXIT_FAILED


def cmd_render(args) -> int:
    resolved = _load(args.file)
    if args.diagram in resolved.diagrams:
        d = resolved.diagrams[args.diagram]
    elif args.diagram in resolved.gdiagrams:
        d = resolved.gdiagrams[args.diagram]
    else:
        raise CliError(f"no diagram named {args.diagram!r}", EXIT_USAGE)
    _write(args.output, render.to_svg(d))
    _emit(args, [f"wrote {args.output}"], {"wrote": args.output})
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import acceptance

    return acceptance.run_all(json_output=getattr(args, "json", False))


def build_parser() -> argparse.ArgumentParser:
    # --json goes before or after the subcommand; SUPPRESS keeps a subcommand's
    # parser from resetting a flag given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output"
    )
    top = argparse.ArgumentParser(prog="entronet", description=__doc__, parents=[common])
    sub = top.add_subparsers(dest="command", required=True)

    def command(parent, name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = parent.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        return p

    p = command(sub, "validate", cmd_validate, help="parse and validate a source file")
    p.add_argument("file")

    p = command(sub, "weight", cmd_weight, help="print the weight of an object")
    p.add_argument("file")
    p.add_argument("--object", required=True)

    p = command(sub, "jinv", cmd_jinv, help="evaluate a diagram")
    p.add_argument("file")
    p.add_argument("--diagram", required=True)
    p.add_argument("--format", choices=["prime-vector", "entropy", "float"], default="prime-vector")

    p = command(sub, "entropy", cmd_entropy, help="exact and float entropy of a distribution")
    p.add_argument("--dist", required=True)

    p = command(sub, "chain", cmd_chain, help="verify the entropy grouping identity")
    p.add_argument("--z", required=True)
    p.add_argument("--y", action="append", required=True)

    p = command(sub, "normalize", cmd_normalize, help="canonical form of a diagram")
    p.add_argument("file")
    p.add_argument("--diagram", required=True)
    p.add_argument("-o", "--output")

    p = command(
        sub, "check-rewrites", cmd_check_rewrites,
        help="random rewrite applications with invariants checked",
    )
    p.add_argument("file")
    p.add_argument("--diagram", required=True)
    p.add_argument("--trials", type=int, default=100)

    p = command(sub, "eval", cmd_eval, help="evaluate a group network")
    p.add_argument("file")
    p.add_argument("--gdiagram", required=True)
    p.add_argument("--with", dest="with_", choices=["alphaU", "alphaF", "alphaC", "alphaCF"], required=True)
    p.add_argument("--cocycle")
    p.add_argument("--cocycle1")
    p.add_argument("--module")

    p = command(sub, "extension", cmd_extension, help="central extension order profile")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True)

    p = command(sub, "h2", cmd_h2, help="cohomology of a finite group")
    p.add_argument(
        "--group",
        required=True,
        help=f"cyclic:N | product:N1,N2 | aff1modp:P; with one modulus, the largest "
        f"order supported is {_largest_order(2)} for H^2 and {_largest_order(1)} for H^1",
    )
    p.add_argument("--module", required=True, help="z:M or z:M1,M2")
    p.add_argument("--degree", type=int, default=2, choices=[1, 2])

    p = sub.add_parser("catalog", parents=[common], help="named cocycles")
    csub = p.add_subparsers(dest="which", required=True)
    command(csub, "carry", cmd_catalog).add_argument("--n", type=int, required=True)
    command(csub, "witt", cmd_catalog).add_argument("--p", type=int, required=True)
    command(csub, "binomial", cmd_catalog).add_argument("--max", type=int, default=12)
    command(csub, "pmi", cmd_catalog).add_argument(
        "--masses", required=True, help='e.g. "a=1/2; b=1/4; c=1/4"'
    )

    p = command(sub, "render", cmd_render, help="render a diagram to SVG")
    p.add_argument("file")
    p.add_argument("--diagram", required=True)
    p.add_argument("-o", "--output", required=True)

    command(sub, "selftest", cmd_selftest, help="run the acceptance suite")

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except af.DiagramError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except (FactoringBudgetExceeded, DoubleRangeExceeded) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
