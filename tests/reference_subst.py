"""A reference substitution, written from the definition of substitution
application and used as an oracle for fskel.expansion.apply_subst.

It is plain recursion with no table: every occurrence of a node is mapped
anew, and a name is looked up by a scan of the bindings in order, the first
binding of the right kind winning (an unbound type variable maps to itself,
an unbound E-variable `s` to `s^{} id`).

A binder (`all a.` in a type or a skeleton, `ex a.` in a constraint)
shadows the substitution's binding of `a`: its body is mapped by the rest
of the substitution. If `a` is free in that rest (bound to a type by it,
or free in any value it binds), the binder is renamed to the first of
`a_0, a_1, ...` free in neither the rest nor the body, and the body is
mapped in one pass by the rest with `[a := a_i]` put first.
`all a.` in an expansion is not a binder. The E-variables of a forbidden set
are not renamed; the set maps to the union of the free variables of its
members' images.

It reads nodes by attribute and shares no code with fskel.expansion.
"""

from __future__ import annotations

from fskel.syntax import (
    And, Arrow, Atomic, EGuard, EVarApp, EVarIntro, Exists, Forall,
    ForallIntro, Id, Omega, QAbs, QApp, QEVar, QForall, QSub, QVar, QWeak,
    SubStep, Subst, TVar, TypeEnv,
)


def free_vars(x) -> frozenset[str]:
    """Free type variables of a type, expansion, substitution, constraint,
    environment or skeleton."""
    match x:
        case TVar(a):
            return frozenset({a})
        case Arrow(d, c):
            return free_vars(d) | free_vars(c)
        case Forall(a, body) | Exists(a, body) | QForall(a, body):
            return free_vars(body) - {a}
        case EVarApp(_, forbidden, body) | QEVar(_, forbidden, body):
            return forbidden | free_vars(body)
        case Id() | Omega():
            return frozenset()
        case ForallIntro(a, rest):
            return free_vars(rest) | {a}
        case EVarIntro(_, forbidden, rest):
            return forbidden | free_vars(rest)
        case SubStep(rest, target):
            return free_vars(rest) | free_vars(target)
        case Subst(bindings):
            out: frozenset[str] = frozenset()
            for name, val in bindings:
                out |= free_vars(val)
                if isinstance(val, (TVar, Arrow, Forall, EVarApp)):
                    out |= {name}
            return out
        case Atomic(lhs, rhs):
            return free_vars(lhs) | free_vars(rhs)
        case And(c1, c2):
            return free_vars(c1) | free_vars(c2)
        case EGuard(_, forbidden, witness, body):
            return forbidden | free_vars(witness) | free_vars(body)
        case TypeEnv(entries):
            out = frozenset()
            for _, t in entries:
                out |= free_vars(t)
            return out
        case QVar(_, env):
            return free_vars(env)
        case QAbs(_, body):
            return free_vars(body)
        case QApp(f, a):
            return free_vars(f) | free_vars(a)
        case QSub(body, target):
            return free_vars(body) | free_vars(target)
        case QWeak(body, extra):
            return free_vars(body) | free_vars(extra)
    raise TypeError(x)


def binders(x, kind) -> frozenset[str]:
    """The names of the binders of one kind (Forall, Exists or QForall) in a
    type, constraint, environment, expansion or skeleton (an expansion's
    `all a.` is none)."""
    out: set[str] = set()
    todo = [x]
    while todo:
        node = todo.pop()
        if isinstance(node, kind):
            out.add(node.binder)
        if isinstance(node, TypeEnv):
            todo += [t for _, t in node.entries]
        elif not isinstance(node, (str, frozenset)):
            todo += [getattr(node, name) for name in node.__match_args__]
    return frozenset(out)


def _lookup_type(phi: Subst, a: str):
    for name, val in phi.bindings:
        if name == a and isinstance(val, (TVar, Arrow, Forall, EVarApp)):
            return val
    return TVar(a)


def _lookup_exp(phi: Subst, s: str):
    for name, val in phi.bindings:
        if name == s and isinstance(val, (Id, ForallIntro, EVarIntro, SubStep)):
            return val
    return EVarIntro(s, frozenset(), Id())


def _image_set(phi: Subst, vs: frozenset[str]) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for a in vs:
        out |= free_vars(_lookup_type(phi, a))
    return out


def _exp_type(i, forbidden, t):
    match i:
        case Id():
            return t
        case EVarIntro(s, extra, rest):
            return EVarApp(s, forbidden | extra, _exp_type(rest, forbidden, t))
        case ForallIntro(a, rest):
            inner = _exp_type(rest, forbidden, t)
            return inner if a in forbidden else Forall(a, inner)
        case SubStep(_, target):
            return target
    raise TypeError(i)


def _exp_skel(i, forbidden, q):
    match i:
        case Id():
            return q
        case EVarIntro(s, extra, rest):
            return QEVar(s, forbidden | extra, _exp_skel(rest, forbidden, q))
        case ForallIntro(a, rest):
            inner = _exp_skel(rest, forbidden, q)
            return inner if a in forbidden else QForall(a, inner)
        case SubStep(rest, target):
            return QSub(_exp_skel(rest, forbidden, q), target)
    raise TypeError(i)


def _exp_cons(i, forbidden, witness, c):
    match i:
        case Id():
            return c
        case EVarIntro(s, extra, rest):
            return EGuard(s, forbidden | extra, _exp_type(rest, forbidden, witness),
                          _exp_cons(rest, forbidden, witness, c))
        case ForallIntro(a, rest):
            inner = _exp_cons(rest, forbidden, witness, c)
            return inner if a in forbidden else Exists(a, inner)
        case SubStep(rest, target):
            return And(_exp_cons(rest, forbidden, witness, c),
                       Atomic(_exp_type(rest, forbidden, witness), target))
    raise TypeError(i)


def _under_binder(phi: Subst, a: str, body, build):
    """build(a', body mapped by the rest of phi): a shadows phi's binding of
    a, and is renamed to a' when it is free in the rest."""
    rest = tuple((name, val) for name, val in phi.bindings
                 if name != a or not isinstance(val, (TVar, Arrow, Forall, EVarApp)))
    free = free_vars(Subst(rest))
    if a in free:
        avoid = free | free_vars(body)
        i = 0
        while f"{a}_{i}" in avoid:
            i += 1
        fresh = f"{a}_{i}"
        rest = ((a, TVar(fresh)),) + rest
        a = fresh
    return build(a, substitute(Subst(rest), body))


def substitute(phi: Subst, x):
    """x with phi applied: x is a type, expansion, constraint, environment
    or skeleton."""
    match x:
        case TVar(a):
            return _lookup_type(phi, a)
        case Arrow(d, c):
            return Arrow(substitute(phi, d), substitute(phi, c))
        case Forall(a, body):
            return _under_binder(phi, a, body, Forall)
        case EVarApp(s, forbidden, body):
            return _exp_type(_lookup_exp(phi, s), _image_set(phi, forbidden),
                             substitute(phi, body))
        case Id() | Omega():
            return x
        case ForallIntro(a, rest):
            return ForallIntro(a, substitute(phi, rest))
        case EVarIntro(s, forbidden, rest):
            return EVarIntro(s, _image_set(phi, forbidden), substitute(phi, rest))
        case SubStep(rest, target):
            return SubStep(substitute(phi, rest), substitute(phi, target))
        case Atomic(lhs, rhs):
            return Atomic(substitute(phi, lhs), substitute(phi, rhs))
        case And(c1, c2):
            return And(substitute(phi, c1), substitute(phi, c2))
        case Exists(a, body):
            return _under_binder(phi, a, body, Exists)
        case EGuard(s, forbidden, witness, body):
            return _exp_cons(_lookup_exp(phi, s), _image_set(phi, forbidden),
                             substitute(phi, witness), substitute(phi, body))
        case TypeEnv(entries):
            return TypeEnv(tuple((y, substitute(phi, t)) for y, t in entries))
        case QVar(y, env):
            return QVar(y, substitute(phi, env))
        case QAbs(y, body):
            return QAbs(y, substitute(phi, body))
        case QApp(f, a):
            return QApp(substitute(phi, f), substitute(phi, a))
        case QForall(a, body):
            return _under_binder(phi, a, body, QForall)
        case QEVar(s, forbidden, body):
            return _exp_skel(_lookup_exp(phi, s), _image_set(phi, forbidden),
                             substitute(phi, body))
        case QSub(body, target):
            return QSub(substitute(phi, body), substitute(phi, target))
        case QWeak(body, extra):
            return QWeak(substitute(phi, body), substitute(phi, extra))
    raise TypeError(x)
