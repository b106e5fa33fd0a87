"""Expansion application and substitution application, with their soundness
properties as runnable checks."""

from __future__ import annotations

from .syntax import (
    And, Arrow, Atomic, Constraint, EGuard, EVarApp, EVarIntro, Exists,
    Expansion, Forall, ForallIntro, Id, Omega, QAbs, QApp, QEVar, QForall,
    QSub, QVar, QWeak, Skeleton, SubStep, Subst, TVar, Type, TypeEnv,
    constraint_eq, env_eq, fresh_name, ftv, term_alpha_eq, type_eq,
)
from .typecheck import Judgement, check_skeleton


# ---------------------------------------------------------------------------
# Expansion application


def apply_exp_type(i: Expansion, forbidden: frozenset[str], t: Type) -> Type:
    """Apply expansion i to type t under forbidden set Δ."""
    match i:
        case Id():
            return t
        case EVarIntro(s, extra, rest):
            return EVarApp(s, forbidden | extra, apply_exp_type(rest, forbidden, t))
        case ForallIntro(a, rest):
            inner = apply_exp_type(rest, forbidden, t)
            return inner if a in forbidden else Forall(a, inner)
        case SubStep(_, target):
            return target
    raise TypeError(i)


def apply_exp_skel(i: Expansion, forbidden: frozenset[str], q: Skeleton) -> Skeleton:
    """Apply expansion i to skeleton q under forbidden set Δ."""
    match i:
        case Id():
            return q
        case EVarIntro(s, extra, rest):
            return QEVar(s, forbidden | extra, apply_exp_skel(rest, forbidden, q))
        case ForallIntro(a, rest):
            inner = apply_exp_skel(rest, forbidden, q)
            return inner if a in forbidden else QForall(a, inner)
        case SubStep(rest, target):
            return QSub(apply_exp_skel(rest, forbidden, q), target)
    raise TypeError(i)


def apply_exp_cons(i: Expansion, forbidden: frozenset[str], witness: Type,
                   c: Constraint) -> Constraint:
    """Apply expansion i to constraint c; the witness type tracks the result
    type the expansion acts on."""
    match i:
        case Id():
            return c
        case EVarIntro(s, extra, rest):
            return EGuard(s, forbidden | extra,
                          apply_exp_type(rest, forbidden, witness),
                          apply_exp_cons(rest, forbidden, witness, c))
        case ForallIntro(a, rest):
            inner = apply_exp_cons(rest, forbidden, witness, c)
            return inner if a in forbidden else Exists(a, inner)
        case SubStep(rest, target):
            return And(apply_exp_cons(rest, forbidden, witness, c),
                       Atomic(apply_exp_type(rest, forbidden, witness), target))
    raise TypeError(i)


# ---------------------------------------------------------------------------
# Substitution application


def apply_subst_set(phi: Subst, vs: frozenset[str]) -> frozenset[str]:
    """Pointwise image of a type-variable set: union of ftv of each image."""
    out: frozenset[str] = frozenset()
    for a in vs:
        out |= ftv(phi.lookup_tvar(a))
    return out


def _rename_binder(phi: Subst, binder: str, body):
    """Fresh binder for a Forall/Exists/QForall under phi, renamed body."""
    fresh = fresh_name(binder, ftv(phi) | ftv(body) | {binder})
    return fresh, apply_subst(Subst(((binder, TVar(fresh)),)), body)


def apply_subst(phi: Subst, subject):
    """Apply a substitution to a type, expansion, constraint, environment or
    skeleton (apply_subst_set maps a type-variable set)."""
    match subject:
        case TVar(a):
            return phi.lookup_tvar(a)
        case Arrow(d, c):
            return Arrow(apply_subst(phi, d), apply_subst(phi, c))
        case Forall(a, body):
            if a in ftv(phi):
                a, body = _rename_binder(phi, a, body)
            return Forall(a, apply_subst(phi, body))
        case EVarApp(s, forbidden, body):
            return apply_exp_type(phi.lookup_evar(s), apply_subst_set(phi, forbidden),
                                  apply_subst(phi, body))
        case TypeEnv(entries):
            return TypeEnv(tuple((x, apply_subst(phi, t)) for x, t in entries))
        case QVar(x, env):
            return QVar(x, apply_subst(phi, env))
        case QAbs(x, body):
            return QAbs(x, apply_subst(phi, body))
        case QApp(f, a):
            return QApp(apply_subst(phi, f), apply_subst(phi, a))
        case QForall(a, body):
            if a in ftv(phi):
                a, body = _rename_binder(phi, a, body)
            return QForall(a, apply_subst(phi, body))
        case QEVar(s, forbidden, body):
            return apply_exp_skel(phi.lookup_evar(s), apply_subst_set(phi, forbidden),
                                  apply_subst(phi, body))
        case QSub(body, target):
            return QSub(apply_subst(phi, body), apply_subst(phi, target))
        case QWeak(body, extra):
            return QWeak(apply_subst(phi, body), apply_subst(phi, extra))
        case Id():
            return subject
        case ForallIntro(a, rest):
            return ForallIntro(a, apply_subst(phi, rest))
        case EVarIntro(s, forbidden, rest):
            return EVarIntro(s, apply_subst_set(phi, forbidden), apply_subst(phi, rest))
        case SubStep(rest, target):
            return SubStep(apply_subst(phi, rest), apply_subst(phi, target))
        case Omega():
            return subject
        case Atomic(lhs, rhs):
            return Atomic(apply_subst(phi, lhs), apply_subst(phi, rhs))
        case And(c1, c2):
            return And(apply_subst(phi, c1), apply_subst(phi, c2))
        case Exists(a, body):
            if a in ftv(phi):
                a, body = _rename_binder(phi, a, body)
            return Exists(a, apply_subst(phi, body))
        case EGuard(s, forbidden, witness, body):
            return apply_exp_cons(phi.lookup_evar(s), apply_subst_set(phi, forbidden),
                                  apply_subst(phi, witness), apply_subst(phi, body))
    raise TypeError(subject)


# ---------------------------------------------------------------------------
# Soundness properties


def judgements_agree(j1: Judgement, j2: Judgement) -> bool:
    """Judgement equality up to the equational theories."""
    return (term_alpha_eq(j1.term, j2.term)
            and env_eq(j1.env, j2.env)
            and type_eq(j1.rtype, j2.rtype)
            and constraint_eq(j1.constraint, j2.constraint))


def property_expansion_sound(q: Skeleton, i: Expansion,
                             forbidden: frozenset[str]) -> bool:
    """Re-checking an expanded skeleton yields the expanded judgement."""
    j = check_skeleton(q)
    if not ftv(j.env) <= forbidden:
        raise ValueError("precondition: ftv(env) must be contained in the forbidden set")
    expected = Judgement(j.term, j.env,
                         apply_exp_type(i, forbidden, j.rtype),
                         apply_exp_cons(i, forbidden, j.rtype, j.constraint))
    actual = check_skeleton(apply_exp_skel(i, forbidden, q))
    return judgements_agree(actual, expected)


def property_subst_sound(q: Skeleton, phi: Subst) -> bool:
    """Re-checking a substituted skeleton yields the substituted judgement."""
    j = check_skeleton(q)
    expected = Judgement(j.term, apply_subst(phi, j.env),
                         apply_subst(phi, j.rtype),
                         apply_subst(phi, j.constraint))
    actual = check_skeleton(apply_subst(phi, q))
    return judgements_agree(actual, expected)
