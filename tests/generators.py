"""Seeded random generators for property tests.

Every generator takes an explicit random.Random so test runs are
reproducible.
"""

from __future__ import annotations

import random

from fskel.initial import initial_skeleton
from fskel.reduction import (
    DummyElim, DummyIn, EVarCong, FunCong, Inst, NAbs, NApp, NEVar, NEnvSub,
    NForall, NSub, NVar, NeqSkeleton, QuantComm, QuantCong, check_neq,
)
from fskel.syntax import (
    Abs, And, App, Arrow, Atomic, EGuard, EVarApp, EVarIntro, Exists,
    Expansion, Forall, ForallIntro, FreshSupply, Id, Omega, QAbs, QApp, QEVar,
    QForall, QSub, QVar, QWeak, Skeleton, SubStep, Subst, TVar, Term, Type,
    TypeEnv, Var, canonical_type, fresh_name, ftv,
)
from fskel.typecheck import check_skeleton


def random_term(rng: random.Random, size: int, free: list[str]) -> Term:
    """Random lambda term with at most `size` internal nodes."""
    if size <= 1 or (not free and size <= 2):
        if free and rng.random() < 0.7:
            return Var(rng.choice(free))
        x = f"x{rng.randrange(4)}"
        return Abs(x, Var(x) if rng.random() < 0.6 or not free
                   else Var(rng.choice(free)))
    match rng.randrange(3):
        case 0 if free:
            return Var(rng.choice(free))
        case 1:
            x = f"x{rng.randrange(4)}"
            return Abs(x, random_term(rng, size - 1, free + [x]))
        case _:
            left = rng.randrange(1, size)
            return App(random_term(rng, left, free),
                       random_term(rng, size - left, free))


def random_type(rng: random.Random, tvars: list[str], depth: int) -> Type:
    if depth <= 0 or rng.random() < 0.35:
        return TVar(rng.choice(tvars) if tvars else "t0")
    match rng.randrange(4):
        case 0 | 1:
            return Arrow(random_type(rng, tvars, depth - 1),
                         random_type(rng, tvars, depth - 1))
        case 2:
            a = f"t{rng.randrange(3)}"
            return Forall(a, random_type(rng, tvars + [a], depth - 1))
        case _:
            forbidden = frozenset(rng.sample(tvars, min(len(tvars), rng.randrange(3))))
            return EVarApp(f"u{rng.randrange(3)}", forbidden,
                           random_type(rng, tvars, depth - 1))


def random_env(rng: random.Random, tvars: list[str], names: list[str]) -> TypeEnv:
    """An environment of up to two of names, at random types."""
    xs = rng.sample(names, rng.randrange(3))
    return TypeEnv(tuple((x, random_type(rng, tvars, 3)) for x in xs))


def random_skeleton_shape(rng: random.Random, tvars: list[str], names: list[str],
                          depth: int) -> Skeleton:
    """A skeleton of any shape, valid or not: printing and parsing read no
    typing rule."""
    if depth <= 0 or rng.random() < 0.25:
        return QVar(rng.choice(names), random_env(rng, tvars, names))
    match rng.randrange(7):
        case 0:
            return QAbs(rng.choice(names), random_skeleton_shape(rng, tvars, names, depth - 1))
        case 1 | 2:
            return QApp(random_skeleton_shape(rng, tvars, names, depth - 1),
                        random_skeleton_shape(rng, tvars, names, depth - 1))
        case 3:
            return QForall(rng.choice(tvars), random_skeleton_shape(rng, tvars, names, depth - 1))
        case 4:
            return QEVar(f"s{rng.randrange(2)}", frozenset(rng.sample(tvars, rng.randrange(3))),
                         random_skeleton_shape(rng, tvars, names, depth - 1))
        case 5:
            return QSub(random_skeleton_shape(rng, tvars, names, depth - 1),
                        random_type(rng, tvars, 3))
        case _:
            return QWeak(random_skeleton_shape(rng, tvars, names, depth - 1),
                         random_env(rng, tvars, names))


# Pieces a mutation inserts: every token, separators and characters that
# are not tokens.
_PIECES = ["\t", "\r\n", "\n", " ", "é", "²", "Ⅻ", "1", "'", "_", "a", "all",
           "ex", "id", "omega", "->", "|>", ":=", "<=", "(", ")", "{", "}", "^",
           ",", ";", ":", "<", ">", "&", "@", "+", "\\", ".", "[", "]"]


def mutate_text(rng: random.Random, text: str) -> str:
    """text after one to three random edits: an inserted piece, a deleted
    run of up to three characters, or a copied run of up to eight."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        match rng.randrange(3):
            case 0:
                text = text[:i] + rng.choice(_PIECES) + text[i:]
            case 1:
                text = text[:i] + text[i + rng.randrange(1, 4):]
            case _:
                j = rng.randrange(len(text) + 1)
                text = text[:i] + text[j:j + rng.randrange(1, 9)] + text[i:]
    return text


def random_expansion(rng: random.Random, tvars: list[str], depth: int) -> Expansion:
    if depth <= 0 or rng.random() < 0.3:
        return Id()
    match rng.randrange(4):
        case 0:
            a = f"t{rng.randrange(3)}"
            return ForallIntro(a, random_expansion(rng, tvars + [a], depth - 1))
        case 1:
            forbidden = frozenset(rng.sample(tvars, min(len(tvars), rng.randrange(3))))
            return EVarIntro(f"u{rng.randrange(3)}", forbidden,
                             random_expansion(rng, tvars, depth - 1))
        case _:
            return SubStep(random_expansion(rng, tvars, depth - 1),
                           random_type(rng, tvars, depth - 1))


def evars_of(subject) -> frozenset[str]:
    """All expansion variables occurring in a value (they are never bound)."""
    match subject:
        case EVarApp(s, _, body):
            return {s} | evars_of(body)
        case EVarIntro(s, _, rest):
            return {s} | evars_of(rest)
        case EGuard(s, _, witness, body):
            return {s} | evars_of(witness) | evars_of(body)
        case QEVar(s, _, body):
            return {s} | evars_of(body)
        case TVar(_) | Omega() | Id() | Var(_):
            return frozenset()
        case Arrow(d, c):
            return evars_of(d) | evars_of(c)
        case Forall(_, body) | Exists(_, body) | QForall(_, body) | QAbs(_, body):
            return evars_of(body)
        case ForallIntro(_, rest):
            return evars_of(rest)
        case SubStep(rest, target):
            return evars_of(rest) | evars_of(target)
        case Atomic(lhs, rhs):
            return evars_of(lhs) | evars_of(rhs)
        case And(c1, c2):
            return evars_of(c1) | evars_of(c2)
        case TypeEnv(entries):
            out: frozenset[str] = frozenset()
            for _, t in entries:
                out |= evars_of(t)
            return out
        case QVar(_, env):
            return evars_of(env)
        case QApp(f, a):
            return evars_of(f) | evars_of(a)
        case QSub(body, target):
            return evars_of(body) | evars_of(target)
        case QWeak(body, extra):
            return evars_of(body) | evars_of(extra)
        case Subst(bindings):
            out = frozenset()
            for _, val in bindings:
                out |= evars_of(val)
            return out
    raise TypeError(f"evars_of: unsupported subject {subject!r}")


def random_subst_for(rng: random.Random, q: Skeleton) -> Subst:
    """Random substitution over (a subset of) the variables of q."""
    tvars = sorted(ftv(q))
    evars = sorted(evars_of(q))
    bindings: list[tuple[str, Type | Expansion]] = []
    for a in tvars:
        if rng.random() < 0.6:
            bindings.append((a, random_type(rng, tvars, rng.randrange(3))))
    for s in evars:
        if rng.random() < 0.6:
            bindings.append((s, random_expansion(rng, tvars, rng.randrange(3))))
    rng.shuffle(bindings)
    return Subst(tuple(bindings))


def random_valid_skeleton(rng: random.Random, size: int = 4) -> Skeleton:
    """Random valid skeleton: the initial skeleton of a random term,
    optionally decorated at the root."""
    m = random_term(rng, rng.randrange(1, size + 1), [])
    if rng.random() < 0.4:
        m = random_term(rng, rng.randrange(1, size + 1),
                        [f"y{i}" for i in range(rng.randrange(1, 3))])
    q, _, _ = initial_skeleton(m, FreshSupply())
    for _ in range(rng.randrange(3)):
        j = check_skeleton(q)
        match rng.randrange(3):
            case 0:
                a = fresh_name("g", ftv(q))
                q = QForall(a, q)
            case 1:
                q = QEVar(f"u{rng.randrange(3)}",
                          ftv(j.env) | frozenset(rng.sample(sorted(ftv(q)) or ["t0"], 1)),
                          q)
            case _:
                q = QSub(q, random_type(rng, sorted(ftv(q)), 2))
    return q


def random_neq_decoration(rng: random.Random, n: NeqSkeleton) -> NeqSkeleton:
    """Wrap a valid proof-carrying skeleton in one random valid decoration."""
    _, env, t = check_neq(n)
    choices = ["dummy_in", "forall", "evar"]
    if isinstance(t, Forall) and t.binder not in ftv(t.body):
        choices.append("dummy_elim")
    if isinstance(t, Forall):
        choices += ["inst", "quant_cong"]
    if isinstance(t, Forall) and isinstance(t.body, Forall):
        choices.append("quant_comm")
    if isinstance(t, Arrow):
        choices.append("fun_cong")
    if isinstance(t, EVarApp):
        choices.append("evar_cong")
    if env.entries:
        choices.append("env_sub")
    avoid = _all_type_names(env, t)
    b = fresh_name("d", avoid)
    match rng.choice(choices):
        case "dummy_in":
            return NSub(n, DummyIn(b, t))
        case "dummy_elim":
            return NSub(n, DummyElim(t.binder, t.body))
        case "forall":
            return NForall(fresh_name("g", avoid | ftv(env)), n)
        case "evar":
            return NEVar(f"u{rng.randrange(3)}", ftv(env) | ftv(t), n)
        case "inst":
            x = random_type(rng, sorted(ftv(t)), rng.randrange(2))
            return NSub(n, Inst(t, x))
        case "quant_cong":
            return NSub(n, QuantCong(t.binder, DummyIn(b, t.body)))
        case "quant_comm":
            return NSub(n, QuantComm(t))
        case "fun_cong":
            return NSub(n, FunCong(DummyElim(b, t.dom), DummyIn(b, t.cod)))
        case "evar_cong":
            return NSub(n, EVarCong(t.evar, t.forbidden, DummyIn(b, t.body)))
        case "env_sub":
            y, ty = rng.choice(env.entries)
            return NEnvSub(n, y, DummyElim(b, ty))
    raise AssertionError


def _all_type_names(env, t) -> frozenset[str]:
    out = ftv(env) | ftv(t)
    # binder names inside t matter for freshness of dummy quantifiers
    def walk(t):
        match t:
            case Forall(a, body):
                return {a} | walk(body)
            case Arrow(d, c):
                return walk(d) | walk(c)
            case EVarApp(_, _, body):
                return walk(body)
            case _:
                return set()
    return out | frozenset(walk(t))


def decorate_neq_inside(rng: random.Random, n: NeqSkeleton, p: float) -> NeqSkeleton:
    """Walk n bottom-up and wrap each node, with probability p, in one
    random_neq_decoration. The result may be invalid (an Inst changes the
    type of the node it wraps); check_neq raises NeqError on a node it
    cannot decorate."""
    match n:
        case NVar(_, _):
            pass
        case NAbs(x, body):
            n = NAbs(x, decorate_neq_inside(rng, body, p))
        case NApp(f, a):
            n = NApp(decorate_neq_inside(rng, f, p), decorate_neq_inside(rng, a, p))
        case NForall(a, body):
            n = NForall(a, decorate_neq_inside(rng, body, p))
        case NEVar(s, forbidden, body):
            n = NEVar(s, forbidden, decorate_neq_inside(rng, body, p))
        case NSub(body, proof):
            n = NSub(decorate_neq_inside(rng, body, p), proof)
        case NEnvSub(body, y, proof):
            n = NEnvSub(decorate_neq_inside(rng, body, p), y, proof)
        case _:
            raise TypeError(n)
    return random_neq_decoration(rng, n) if rng.random() < p else n


def decorate_dummies_inside(rng: random.Random, q: Skeleton, p: float) -> Skeleton:
    """Walk q bottom-up and wrap each node, with probability p, in a
    quantifier over a fresh dummy, and then, with probability p, in a step
    to a type equal to its own: all fresh. t or canonical_type(t). Raises
    SkeletonError where a node cannot be typed."""
    match q:
        case QVar(_, _):
            pass
        case QAbs(x, body):
            q = QAbs(x, decorate_dummies_inside(rng, body, p))
        case QApp(f, a):
            q = QApp(decorate_dummies_inside(rng, f, p), decorate_dummies_inside(rng, a, p))
        case QForall(a, body):
            q = QForall(a, decorate_dummies_inside(rng, body, p))
        case QEVar(s, forbidden, body):
            q = QEVar(s, forbidden, decorate_dummies_inside(rng, body, p))
        case QSub(body, target):
            q = QSub(decorate_dummies_inside(rng, body, p), target)
        case QWeak(body, extra):
            q = QWeak(decorate_dummies_inside(rng, body, p), extra)
        case _:
            raise TypeError(q)
    if rng.random() < p:
        j = check_skeleton(q)
        q = QForall(fresh_name("d", ftv(j.env) | ftv(j.rtype)), q)
    if rng.random() < p:
        t = check_skeleton(q).rtype
        q = QSub(q, Forall(fresh_name("d", ftv(t)), t) if rng.random() < 0.5
                 else canonical_type(t))
    return q
