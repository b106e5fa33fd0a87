"""Solvedness of constraints against pluggable subtyping relations, the
one-step quantifier-elimination relation of System F, and the erased
System F checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .syntax import (
    And, Arrow, Atomic, Constraint, EGuard, EVarApp, Exists, Forall, Omega,
    QAbs, QApp, QEVar, QForall, QSub, QVar, QWeak, Skeleton, Subst, TVar,
    Type, TypeEnv, canonical_type, fresh_name, ftv, type_eq,
)
from .expansion import apply_subst


# ---------------------------------------------------------------------------
# One-step quantifier elimination: all a. t1  <=  t1[a := t2]


def _subterms(t: Type) -> list[Type]:
    out = [t]
    match t:
        case TVar(_):
            pass
        case Arrow(d, c):
            out += _subterms(d) + _subterms(c)
        case Forall(_, body):
            out += _subterms(body)
        case EVarApp(_, _, body):
            out += _subterms(body)
    return out


def _witness_candidates(t1: Type, t2: Type, c2: Type) -> list[Type]:
    free = ftv(t1) | ftv(t2)
    cands = _subterms(c2) + [t2]
    cands += [TVar(v) for v in sorted(free)]
    cands.append(TVar(fresh_name("w", free)))
    return cands


def _witness(t1: Type, t2: Type, c1: Type, c2: Type) -> tuple[str, Type, Type] | None:
    """leq_f_witness for t1 and t2 with canonical forms c1 and c2."""
    binders: list[str] = []
    cur = c1
    while isinstance(cur, Forall):
        binders.append(cur.binder)
        cur = cur.body
    if not binders:
        return None
    cands = [(x, ftv(x)) for x in _witness_candidates(t1, t2, c2)]
    for i, a in enumerate(binders):
        rest = binders[:i] + binders[i + 1:]
        body = cur
        for b in reversed(rest):
            body = Forall(b, body)
        for x, free in cands:
            if not free.isdisjoint(rest):
                continue  # would be captured by the remaining binders
            if canonical_type(apply_subst(Subst(((a, x),)), body)) == c2:
                return a, body, x
    return None


def leq_f_witness(t1: Type, t2: Type) -> tuple[str, Type, Type] | None:
    """A triple (a, body, X) with canonical t1 = all a. body and
    body[a := X] equal to t2, when one exists and t1 is not already equal
    to t2. Returns None when no single elimination step works."""
    return _witness(t1, t2, canonical_type(t1), canonical_type(t2))


def leq_f(t1: Type, t2: Type) -> bool:
    """One-step quantifier-elimination subtyping (reflexive via a dummy
    quantifier)."""
    if t1 == t2:
        return True
    c1, c2 = canonical_type(t1), canonical_type(t2)
    return c1 == c2 or _witness(t1, t2, c1, c2) is not None


def leq_eq(t1: Type, t2: Type) -> bool:
    """Equality subtyping: the two types are equal in the equational theory."""
    return type_eq(t1, t2)


# ---------------------------------------------------------------------------
# Solvedness


@dataclass(frozen=True)
class SubtypingRelation:
    """A named, pure decision procedure for atomic constraints."""

    name: str
    decide: Callable[[Type, Type], bool]


REL_F = SubtypingRelation("F", leq_f)
REL_EQ = SubtypingRelation("EQ", leq_eq)
RELATIONS = {"F": REL_F, "EQ": REL_EQ}


def solved(c: Constraint, rel: SubtypingRelation) -> bool:
    """True iff every atom of c holds in the relation. Atoms are decided left
    to right, each distinct (lhs, rhs) pair once: rel.decide must be pure."""
    decided: set[tuple[Type, Type]] = set()
    todo = [c]
    while todo:
        match todo.pop():
            case Omega():
                pass
            case Atomic(lhs, rhs):
                if (lhs, rhs) not in decided:
                    if not rel.decide(lhs, rhs):
                        return False
                    decided.add((lhs, rhs))
            case And(c1, c2):
                todo += (c2, c1)
            case Exists(_, body) | EGuard(_, _, _, body):
                todo.append(body)
            case other:
                raise TypeError(other)
    return True


# ---------------------------------------------------------------------------
# Erasure to System F and an independent System F checker


def erase_type(t: Type) -> Type:
    match t:
        case TVar(_):
            return t
        case Arrow(d, c):
            return Arrow(erase_type(d), erase_type(c))
        case Forall(a, body):
            return Forall(a, erase_type(body))
        case EVarApp(_, _, body):
            return erase_type(body)
    raise TypeError(t)


def erase_env(env: TypeEnv) -> TypeEnv:
    return TypeEnv(tuple((x, erase_type(t)) for x, t in env.entries))


def erase_evars(q: Skeleton) -> Skeleton:
    """Remove every E-variable node and wrapper from a skeleton."""
    match q:
        case QVar(x, env):
            return QVar(x, erase_env(env))
        case QAbs(x, body):
            return QAbs(x, erase_evars(body))
        case QApp(f, a):
            return QApp(erase_evars(f), erase_evars(a))
        case QForall(a, body):
            return QForall(a, erase_evars(body))
        case QEVar(_, _, body):
            return erase_evars(body)
        case QSub(body, target):
            return QSub(erase_evars(body), erase_type(target))
        case QWeak(body, extra):
            return QWeak(erase_evars(body), erase_env(extra))
    raise TypeError(q)


def check_system_f(q: Skeleton) -> bool:
    """Independent System F derivation checker over E-variable-free skeletons
    (subtyping nodes admit one quantifier elimination)."""

    def go(q: Skeleton) -> tuple[TypeEnv, Type] | None:
        match q:
            case QVar(x, env):
                if not env.well_formed():
                    return None
                t = env.lookup(x)
                return None if t is None else (env, t)
            case QAbs(x, body):
                r = go(body)
                if r is None:
                    return None
                env, t = r
                dom = env.lookup(x)
                if dom is None:
                    return None
                return env.remove(x), Arrow(dom, t)
            case QApp(f, a):
                rf, ra = go(f), go(a)
                if rf is None or ra is None:
                    return None
                envf, tf = rf
                enva, ta = ra
                if envf.supp() != enva.supp():
                    return None
                if not all(type_eq(t, enva.lookup(x)) for x, t in envf.entries):
                    return None
                if not isinstance(tf, Arrow) or not type_eq(tf.dom, ta):
                    return None
                return envf, tf.cod
            case QForall(a, body):
                r = go(body)
                if r is None:
                    return None
                env, t = r
                if a in ftv(env):
                    return None
                return env, Forall(a, t)
            case QSub(body, target):
                r = go(body)
                if r is None:
                    return None
                env, t = r
                if not leq_f(t, target):
                    return None
                return env, target
            case QWeak(body, extra):
                r = go(body)
                if r is None:
                    return None
                env, t = r
                if not extra.well_formed() or env.supp() & extra.supp():
                    return None
                return env.concat(extra), t
        return None  # E-variable nodes are not System F

    return go(q) is not None
