"""Command-line front end."""

from __future__ import annotations

import argparse
import sys

from .expansion import apply_exp_skel, apply_subst
from .initial import initial_skeleton
from .reduction import NestedWeakening, NotAStep, NotSolved, cbv_step, preserve
from .solve import RELATIONS, check_system_f, erase_evars, solved
from .surface import (
    ParseError, parse_constraint, parse_expansion, parse_skeleton,
    parse_subst, parse_term, parse_var_list, print_constraint, print_skeleton,
    print_term, print_type, print_type_env,
)
from .syntax import (
    FreshSupply, QAbs, QApp, QEVar, QForall, QSub, QVar, QWeak, Skeleton,
    canonical_constraint, canonical_type,
)
from .typecheck import Judgement, SkeletonError, check_skeleton

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSOLVED = 3


class BadArgument(Exception):
    """A command-line argument that does not parse."""


def _parse_arg(parse, text: str, name: str):
    """parse(text) for the argument called name; a syntax error in it is
    reported with that name before its position."""
    try:
        return parse(text)
    except ParseError as e:
        raise BadArgument(f"{name}: {e}") from None


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _print_judgement(j: Judgement, fmt: str, memo: dict | None = None) -> None:
    """Print j; memo is the printers' table (see `surface`), which a caller
    printing several judgements that share subterms passes to each."""
    rtype = canonical_type(j.rtype) if fmt == "canonical" else j.rtype
    cons = canonical_constraint(j.constraint) if fmt == "canonical" else j.constraint
    print(f"term: {print_term(j.term, memo)}")
    print(f"env: {print_type_env(j.env, memo)}")
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
    phi = _parse_arg(parse_subst, args.subst, "SUBST")
    check_skeleton(q)
    q2 = apply_subst(phi, q)
    print(f"skeleton: {print_skeleton(q2)}")
    _print_judgement(check_skeleton(q2), args.format)
    return EXIT_OK


def cmd_expand(args) -> int:
    q = parse_skeleton(_read(args.file))
    i = _parse_arg(parse_expansion, args.expansion, "EXPANSION")
    forbidden = _parse_arg(parse_var_list, args.forbidden, "--forbidden")
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
    rel = RELATIONS[args.rel]
    step = 0
    # a step returns the subterms off the redex path as the same objects,
    # so one printers' table over all steps renders each of them once
    memo: dict = {}
    while True:
        j = check_skeleton(q)
        print(f"step {step}: {print_term(j.term, memo)}")
        _print_judgement(j, args.format, memo)
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
        # preserve reuses the judgements just made and judges only the
        # nodes the step rebuilt, so checking its result reads them
        q = preserve(q, nxt)
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
    """One line per node, with its whole judgement. A node's term is built
    from its premises' terms (`check_skeleton`), so with one printers'
    table each term, environment and type node is rendered once: the
    Python work is linear in the number of nodes, while the output of a
    chain of n applications is Θ(n²) characters."""
    check_skeleton(q)  # judges every node, or raises
    out: list[str] = []
    memo: dict = {}

    def go(q: Skeleton, prefix: str) -> None:
        j = check_skeleton(q)
        label = type(q).__name__[1:].lower()  # QEVar -> evar
        out.append(f"{prefix}{label}: {print_term(j.term, memo)} : "
                   f"{print_type_env(j.env, memo)} |- {print_type(j.rtype)}")
        for kid in _children(q):
            go(kid, prefix + "  ")

    go(q, "")
    return out


def _tree_dot(q: Skeleton) -> str:
    check_skeleton(q)  # judges every node, or raises
    lines = ["digraph skeleton {"]
    counter = [0]

    def go(q: Skeleton) -> int:
        me = counter[0]
        counter[0] += 1
        # each label is a type, which keeps its text once rendered
        label = print_type(check_skeleton(q).rtype).replace('"', '\\"')
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

    def command(name, fn, help, fmt=False, rel=False):
        """A subcommand reading FILE, with --format and --rel where it
        reads them."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("file", help="input file, or - for stdin")
        if fmt:
            sp.add_argument("--format", choices=["canonical", "raw"],
                            default="canonical")
        if rel:
            sp.add_argument("--rel", choices=sorted(RELATIONS), default="F")
        sp.set_defaults(fn=fn)
        return sp

    sp = command("check", cmd_check, "validate a skeleton and print its judgement",
                 fmt=True, rel=True)
    sp.add_argument("--solved", action="store_true",
                    help="also decide solvedness of the constraint")

    command("initial", cmd_initial, "build the initial skeleton of a term", fmt=True)

    sp = command("subst", cmd_subst, "apply a substitution to a skeleton", fmt=True)
    sp.add_argument("subst", help="substitution text, e.g. '[a := b -> b]'")

    sp = command("expand", cmd_expand, "apply an expansion to a skeleton", fmt=True)
    sp.add_argument("expansion", help="expansion text, e.g. 'all b. id'")
    sp.add_argument("--forbidden", default="",
                    help="comma-separated forbidden type variables")

    command("solve", cmd_solve, "decide solvedness of a constraint", rel=True)

    sp = command("reduce", cmd_reduce, "reduce a skeleton's term, preserving typing",
                 fmt=True, rel=True)
    sp.add_argument("--steps", type=int, default=None)

    command("erase-f", cmd_erase_f, "erase E-variables and check plain System F")

    sp = command("tree", cmd_tree, "print the derivation tree")
    sp.add_argument("--dot", action="store_true", help="emit DOT instead of text")

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, BadArgument, SkeletonError, NotAStep, NestedWeakening,
            OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except NotSolved as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSOLVED
    except RecursionError:
        # the typing pass and the other walkers recurse once per level of nesting
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
