"""Skeleton validation: computes the unique judgement a skeleton encodes."""

from __future__ import annotations

from .syntax import (
    Abs, And, App, Arrow, Atomic, EGuard, EVarApp, Exists, Forall, Node, Omega,
    QAbs, QApp, QEVar, QForall, QSub, QVar, QWeak, Skeleton, Var, as_arrow,
    env_eq, ftv, fv, type_eq,
)


class SkeletonError(Exception):
    """A skeleton violates one of the typing rules."""


class UnboundVariable(SkeletonError):
    pass


class MalformedEnv(SkeletonError):
    pass


class NotAnArrow(SkeletonError):
    pass


class DomainMismatch(SkeletonError):
    pass


class EnvMismatch(SkeletonError):
    pass


class EscapingVariable(SkeletonError):
    pass


class ForbiddenSetTooSmall(SkeletonError):
    pass


class SupportOverlap(SkeletonError):
    pass


class Judgement(Node):
    """The term, environment, result type and constraint a skeleton encodes."""

    __slots__ = ("term", "env", "rtype", "constraint")


def check_skeleton(q: Skeleton) -> Judgement:
    """Validate q against the typing rules and return its judgement. A
    node's judgement is kept in the node, so a node that was judged before
    (a subtree shared with a checked skeleton) costs one lookup. The
    application rule reads the function part's type modulo the equational
    theory: any type equal to an arrow will do (syntax.as_arrow)."""
    j = q._judgement
    return _judge(q) if j is None else j


def _judge(q: Skeleton) -> Judgement:
    """The typing pass: judge q bottom-up, and store each judgement in its
    node; a node that holds one already is not entered again."""

    def go(q: Skeleton) -> Judgement:
        j = q._judgement
        if j is not None:
            return j
        cls = type(q)
        if cls is QApp:
            j1 = go(q.fun)
            j2 = go(q.arg)
            env = j1.env
            if env is not j2.env and not env_eq(env, j2.env):
                raise EnvMismatch("application premises carry different environments")
            arr = j1.rtype
            if type(arr) is not Arrow:
                arr = as_arrow(arr)
                if arr is None:
                    raise NotAnArrow("function part does not have an arrow type")
            dom, rtype = arr.dom, j2.rtype
            if dom is not rtype and not type_eq(dom, rtype):
                raise DomainMismatch("argument type does not match the function domain")
            j = Judgement(App(j1.term, j2.term), env, arr.cod,
                          And(j1.constraint, j2.constraint))
        elif cls is QAbs:
            x = q.binder
            jb = go(q.body)
            t1 = jb.env.lookup(x)
            if t1 is None:
                raise UnboundVariable(f"abstraction binder {x} not in the body environment")
            j = Judgement(Abs(x, jb.term), jb.env.remove(x), Arrow(t1, jb.rtype),
                          jb.constraint)
        elif cls is QSub:
            target = q.target
            jb = go(q.body)
            j = Judgement(jb.term, jb.env, target,
                          And(jb.constraint, Atomic(jb.rtype, target)))
        elif cls is QVar:
            x, env = q.var, q.env
            if not env.well_formed():
                raise MalformedEnv(f"environment of {x} mentions a variable twice")
            t = env.lookup(x)
            if t is None:
                raise UnboundVariable(f"{x} not in its environment")
            j = Judgement(Var(x), env, t, Omega())
        elif cls is QForall:
            a = q.binder
            jb = go(q.body)
            if a in ftv(jb.env):
                raise EscapingVariable(f"{a} is free in the environment")
            j = Judgement(jb.term, jb.env, Forall(a, jb.rtype), Exists(a, jb.constraint))
        elif cls is QEVar:
            s, forbidden = q.evar, q.forbidden
            jb = go(q.body)
            if not ftv(jb.env) <= forbidden:
                raise ForbiddenSetTooSmall(
                    f"{s}: environment variables {sorted(ftv(jb.env) - forbidden)} "
                    "missing from the forbidden set")
            j = Judgement(jb.term, jb.env, EVarApp(s, forbidden, jb.rtype),
                          EGuard(s, forbidden, jb.rtype, jb.constraint))
        elif cls is QWeak:
            extra = q.extra
            jb = go(q.body)
            if not extra.well_formed():
                raise MalformedEnv("weakening environment mentions a variable twice")
            if jb.env.supp() & extra.supp():
                raise SupportOverlap(
                    f"weakening re-binds {sorted(jb.env.supp() & extra.supp())}")
            j = Judgement(jb.term, jb.env.concat(extra), jb.rtype, jb.constraint)
        else:
            raise TypeError(q)
        _store_judgement(q, j)
        return j

    return go(q)


_store_judgement = Skeleton._judgement.__set__


def relevant(q: Skeleton) -> bool:
    """True iff the free term variables equal the environment support."""
    j = check_skeleton(q)
    return fv(j.term) == j.env.supp()
