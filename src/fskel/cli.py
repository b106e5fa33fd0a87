"""Command-line front end."""

from __future__ import annotations

import argparse
import sys

from .expansion import apply_exp_skel, apply_subst
from .initial import initial_skeleton
from .reduction import NotAStep, NotSolved, _preserve_judged, cbv_step
from .solve import RELATIONS, check_system_f, erase_evars, solved
from .surface import (
    ParseError, parse_constraint, parse_expansion, parse_skeleton,
    parse_subst, parse_term, print_constraint, print_skeleton, print_term,
    print_type, print_type_env,
)
from .syntax import (
    FreshSupply, QAbs, QApp, QEVar, QForall, QSub, QVar, QWeak, Skeleton,
    canonical_constraint, canonical_type,
)
from .typecheck import Judgement, SkeletonError, check_skeleton, judgements

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSOLVED = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _print_judgement(j: Judgement, fmt: str) -> None:
    rtype = canonical_type(j.rtype) if fmt == "canonical" else j.rtype
    cons = canonical_constraint(j.constraint) if fmt == "canonical" else j.constraint
    print(f"term: {print_term(j.term)}")
    print(f"env: {print_type_env(j.env)}")
    print(f"rtype: {print_type(rtype)}")
    print(f"constraint: {print_constraint(cons)}")


def _check_and_print(q: Skeleton, args) -> int:
    j = check_skeleton(q)
    _print_judgement(j, args.format)
    if getattr(args, "solved", False):
        rel = RELATIONS[args.rel]
        ok = solved(j.constraint, rel)
        print(f"solved ({rel.name}): {'yes' if ok else 'no'}")
        if not ok:
            return EXIT_UNSOLVED
    return EXIT_OK


def cmd_check(args) -> int:
    q = parse_skeleton(_read(args.file))
    return _check_and_print(q, args)


def cmd_initial(args) -> int:
    m = parse_term(_read(args.file))
    q, theta, _ = initial_skeleton(m, FreshSupply())
    print(f"skeleton: {print_skeleton(q)}")
    print(f"varenv: {print_type_env(theta)}")
    _print_judgement(check_skeleton(q), args.format)
    return EXIT_OK


def cmd_subst(args) -> int:
    q = parse_skeleton(_read(args.file))
    phi = parse_subst(args.subst)
    check_skeleton(q)
    q2 = apply_subst(phi, q)
    print(f"skeleton: {print_skeleton(q2)}")
    _print_judgement(check_skeleton(q2), args.format)
    return EXIT_OK


def cmd_expand(args) -> int:
    q = parse_skeleton(_read(args.file))
    i = parse_expansion(args.expansion)
    forbidden = frozenset(v for v in args.forbidden.split(",") if v)
    check_skeleton(q)
    q2 = apply_exp_skel(i, forbidden, q)
    print(f"skeleton: {print_skeleton(q2)}")
    _print_judgement(check_skeleton(q2), args.format)
    return EXIT_OK


def cmd_solve(args) -> int:
    c = parse_constraint(_read(args.file))
    rel = RELATIONS[args.rel]
    ok = solved(c, rel)
    print(f"solved ({rel.name}): {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_UNSOLVED


def cmd_reduce(args) -> int:
    q = parse_skeleton(_read(args.file))
    j = check_skeleton(q)
    rel = RELATIONS[args.rel]
    step = 0
    while True:
        print(f"step {step}: {print_term(j.term)}")
        _print_judgement(j, args.format)
        ok = solved(j.constraint, rel)
        print(f"solved ({rel.name}): {'yes' if ok else 'no'}")
        if not ok:
            return EXIT_UNSOLVED
        if args.steps is not None and step >= args.steps:
            return EXIT_OK
        nxt = cbv_step(j.term)
        if nxt is None:
            print("normal form reached")
            return EXIT_OK
        # j is valid and solved under rel, hence under F: do not judge it again
        q = _preserve_judged(q, j, nxt)
        j = check_skeleton(q)
        step += 1


def cmd_erase_f(args) -> int:
    q = parse_skeleton(_read(args.file))
    check_skeleton(q)
    q2 = erase_evars(q)
    print(f"skeleton: {print_skeleton(q2)}")
    ok = check_system_f(q2)
    print(f"system-f: {'accepted' if ok else 'rejected'}")
    return EXIT_OK if ok else EXIT_INVALID


def _children(q: Skeleton) -> list[Skeleton]:
    match q:
        case QVar(_, _):
            return []
        case QApp(f, a):
            return [f, a]
        case QAbs(_, b) | QForall(_, b) | QEVar(_, _, b) | QSub(b, _) | QWeak(b, _):
            return [b]
    raise TypeError(q)


def _tree_lines(q: Skeleton) -> list[str]:
    js = judgements(q)
    out: list[str] = []

    def go(q: Skeleton, prefix: str) -> None:
        j = js[id(q)]
        label = type(q).__name__[1:].lower()  # QEVar -> evar
        out.append(f"{prefix}{label}: {print_term(j.term)} : "
                   f"{print_type_env(j.env)} |- {print_type(j.rtype)}")
        for kid in _children(q):
            go(kid, prefix + "  ")

    go(q, "")
    return out


def _tree_dot(q: Skeleton) -> str:
    js = judgements(q)
    lines = ["digraph skeleton {"]
    counter = [0]

    def go(q: Skeleton) -> int:
        me = counter[0]
        counter[0] += 1
        label = print_type(js[id(q)].rtype).replace('"', '\\"')
        lines.append(f'  n{me} [label="{type(q).__name__}\\n{label}"];')
        for kid in _children(q):
            lines.append(f"  n{me} -> n{go(kid)};")
        return me

    go(q)
    lines.append("}")
    return "\n".join(lines)


def cmd_tree(args) -> int:
    q = parse_skeleton(_read(args.file))
    if args.dot:
        print(_tree_dot(q))
    else:
        print("\n".join(_tree_lines(q)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fskel",
                                description="System Fs skeleton toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="input file, or - for stdin")
        sp.add_argument("--format", choices=["canonical", "raw"],
                        default="canonical")
        sp.add_argument("--rel", choices=sorted(RELATIONS), default="F")

    sp = sub.add_parser("check", help="validate a skeleton and print its judgement")
    common(sp)
    sp.add_argument("--solved", action="store_true",
                    help="also decide solvedness of the constraint")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("initial", help="build the initial skeleton of a term")
    common(sp)
    sp.set_defaults(fn=cmd_initial)

    sp = sub.add_parser("subst", help="apply a substitution to a skeleton")
    common(sp)
    sp.add_argument("subst", help="substitution text, e.g. '[a := b -> b]'")
    sp.set_defaults(fn=cmd_subst)

    sp = sub.add_parser("expand", help="apply an expansion to a skeleton")
    common(sp)
    sp.add_argument("expansion", help="expansion text, e.g. 'all b. id'")
    sp.add_argument("--forbidden", default="",
                    help="comma-separated forbidden type variables")
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("solve", help="decide solvedness of a constraint")
    common(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("reduce", help="reduce a skeleton's term, preserving typing")
    common(sp)
    sp.add_argument("--steps", type=int, default=None)
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("erase-f", help="erase E-variables and check plain System F")
    common(sp)
    sp.set_defaults(fn=cmd_erase_f)

    sp = sub.add_parser("tree", help="print the derivation tree")
    common(sp)
    sp.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    sp.set_defaults(fn=cmd_tree)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SkeletonError, NotAStep, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except NotSolved as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSOLVED
    except RecursionError:
        # the parser and the walkers recurse once per level of nesting
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
