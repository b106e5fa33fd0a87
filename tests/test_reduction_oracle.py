"""The subject-reduction engine against the two-language engine it replaced
(reference_reduction.py): on the same seeded starts, each step's reduct is
equal to the reference's, and the same errors come in the same order.

Each engine steps its own parse of a start, so neither reads the other's
memo slots."""

from __future__ import annotations

import random

import reference_reduction as reference
from fskel import reduction
from fskel.surface import parse_skeleton, print_skeleton
from fskel.syntax import (
    Forall, QAbs, QApp, QEVar, QForall, QSub, QVar, QWeak, Var, fresh_name, ftv,
)
from fskel.typecheck import SkeletonError, check_skeleton
from generators import (
    decorate_dummies_inside, decorate_neq_inside, random_type, random_valid_skeleton,
)
from helpers import id_chain, poly_chain, skeleton_nodes
from test_acceptance import _reduction_cases

LIMIT = 60  # steps from one start; every start here reaches a normal form sooner


def _errors(engine):
    return (engine.NotSolved, engine.NotAStep, engine.NestedWeakening, SkeletonError)


def _run(engine, text: str) -> list:
    """Each reduct engine.preserve gives from a fresh parse of text, up to
    the normal form, then the error it raised (class name and message), if
    any; for an irreducible start, the error of a step to the term itself."""
    out = []
    try:
        q = parse_skeleton(text)
        j = check_skeleton(q)
        for _ in range(LIMIT):
            m = reduction.cbv_step(j.term)
            if m is None and out:
                return out
            q = engine.preserve(q, m or j.term)
            j = check_skeleton(q)
            out.append(q)
    except _errors(engine) as e:
        return out + [(type(e).__name__, str(e))]
    raise AssertionError(f"no normal form within {LIMIT} steps: {text}")


# Inputs for every error preserve raises, in the order it raises them: an
# invalid skeleton, an unsolved step beside, above or below a weakening,
# weakenings below the root, arguments whose E-variable does not forbid a
# crossed binder's type, and a root weakening, kept around the reduct.
ERRORS = [
    "((\\u. u<u: d -> d>) + {y: b}) @ ((\\z. z<z: c, y: e>) |> d -> d)",
    "((\\u. u<u: d -> d>) + {y: b}) @ ((\\z. z<z: c, y: b>) |> d -> d)",
    "(\\u. u<u: d -> d, y: b>) @ (((\\z. z<z: c>) + {y: b}) |> d -> d)",
    "((\\u. u<u: d -> d>) @ ((\\z. z<z: c>) |> d -> d)) + {y: b}",
    "((\\u. u<u: d -> d>) + {y: b}) @ (\\z. z<z: d, y: b>)",
    "(\\x. x<x: c -> c> + {w: b}) @ (\\z. z<z: c, w: b>)",
    "(\\x. \\y. x<x: s^{} (a -> a), y: b>) @ (s^{} (\\z. z<z: a>))",
    "(\\x. \\y. \\v. x<x: s^{e} (a -> a), y: b, v: e>) @ (s^{e} (\\z. z<z: a>))",
    "((\\u. u<u: d -> d>) @ (\\z. z<z: d>)) + {y: b}",
]


def _wrong_step(engine, text: str):
    """The error engine.preserve raises for a fresh parse of text and a term
    that is no reduct of it."""
    try:
        engine.preserve(parse_skeleton(text), Var("nowhere"))
    except _errors(engine) as e:
        return type(e).__name__, str(e)
    raise AssertionError(text)


def _retarget(rng: random.Random, q, p: float):
    """q with each |> target T replaced, with probability p, by all d. T for
    a fresh d: equal to T, so the step holds, but an elimination proof ends
    at a type that is not the target itself."""
    cls = type(q)
    if cls is QVar:
        return q
    if cls is QApp:
        return QApp(_retarget(rng, q.fun, p), _retarget(rng, q.arg, p))
    if cls is QAbs:
        return QAbs(q.binder, _retarget(rng, q.body, p))
    if cls is QForall:
        return QForall(q.binder, _retarget(rng, q.body, p))
    if cls is QEVar:
        return QEVar(q.evar, q.forbidden, _retarget(rng, q.body, p))
    if cls is QWeak:
        return QWeak(_retarget(rng, q.body, p), q.extra)
    target = q.target
    if rng.random() < p:
        target = Forall(fresh_name("d", ftv(target)), target)
    return QSub(_retarget(rng, q.body, p), target)


def _starts() -> list[str]:
    """The seeded corpus, as text: test 10's cases; 2,000 decorated starts
    from its reducible cases (proof-carrying skeletons decorated at every
    depth with |> carrying proofs of every kind, flat already, and
    skeletons with dummy quantifiers and steps between equal types
    inside); both chain families for n up to 32; starts with retargeted
    steps; random valid skeletons, most of them under an unsolved step;
    and the inputs of every error."""
    cases = _reduction_cases()
    reducible = [q for q in cases if reduction.cbv_step(check_skeleton(q).term)]
    texts = [print_skeleton(q) for q in cases]
    rng = random.Random(1013)
    forms = [reduction.to_neq(q) for q in reducible]
    decorated = []
    while len(decorated) < 1_000:
        try:
            n = decorate_neq_inside(rng, rng.choice(forms), 0.3)
            reduction.check_neq(n)
        except reduction.NeqError:
            continue
        decorated.append(n)
    texts += [print_skeleton(n) for n in decorated]
    rng = random.Random(1014)
    made = 0
    while made < 1_000:
        try:
            q = decorate_dummies_inside(rng, rng.choice(reducible), 0.15)
            check_skeleton(q)
        except SkeletonError:
            continue
        texts.append(print_skeleton(q))
        made += 1
    chains = [chain(n) for chain in (id_chain, poly_chain) for n in range(1, 33)]
    texts += [print_skeleton(q) for q in chains]
    rng = random.Random(1016)
    texts += [print_skeleton(_retarget(rng, q, 0.5))
              for q in reducible + chains[32:] + decorated]
    for _ in range(300):
        q = random_valid_skeleton(rng)
        if rng.random() < 0.7:
            q = QSub(q, random_type(rng, sorted(ftv(q)) or ["t0"], 2))
        texts.append(print_skeleton(q))
    return texts + ERRORS


def test_each_step_gives_the_reference_reduct():
    starts = _starts()
    seen = dict.fromkeys(("steps", "errors", "dropped", "retargeted"), 0)
    for text in starts:
        got, want = _run(reduction, text), _run(reference, text)
        assert got == want, text
        assert _wrong_step(reduction, text) == _wrong_step(reference, text), text
        seen["steps"] += sum(not isinstance(r, tuple) for r in got)
        seen["errors"] += bool(got) and isinstance(got[-1], tuple)
        # what the first step's elaboration does to the start's |> nodes
        if not got or isinstance(got[0], tuple):
            continue
        q = parse_skeleton(text)
        check_skeleton(q)
        subs = [n for n in skeleton_nodes(q).values() if type(n) is QSub]
        ends = [reduction._sub_step(n.body._judgement.rtype, n.target) for n in subs]
        seen["dropped"] += any(proof is None for proof, _ in ends)
        seen["retargeted"] += any(proof is not None and end is not n.target
                                  for (proof, end), n in zip(ends, subs))
    assert len(starts) >= 2_000 + 2 * 32 + len(ERRORS)
    assert seen["steps"] >= 5_000 and seen["errors"] >= 250, seen
    assert min(seen["dropped"], seen["retargeted"]) >= 100, seen
