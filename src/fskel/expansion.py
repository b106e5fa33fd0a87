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
    return _Image(phi).of_set(vs)


def apply_subst(phi: Subst, subject):
    """Apply a substitution to a type, expansion, constraint, environment or
    skeleton (apply_subst_set maps a type-variable set). One call keeps one
    _Image per scope, and each maps every type, environment, variable leaf
    and forbidden set it meets once. A type binder is crossed by the one
    rule of _Image._binder: it shadows the substitution's binding of its
    name, and is renamed only when it is free in an image, so
    [b0 := b1] maps (all b0. b0) -> b0 to (all b0. b0) -> b1."""
    image = _Image(phi)
    if isinstance(subject, Type):
        return image.of_type(subject)
    if isinstance(subject, Skeleton):
        return image.of_skel(subject)
    if isinstance(subject, Constraint):
        return image.of_cons(subject)
    if isinstance(subject, TypeEnv):
        return image.of_env(subject)
    if isinstance(subject, Expansion):
        return image.of_exp(subject)
    raise TypeError(subject)


class _Image:
    """The images under one substitution, each computed once in `table`:
    a type keyed by itself, a forbidden set by its value, and an
    environment or a variable leaf by its id, kept next to its image so
    that no id is reused while the table lives. The scope of a type binder
    is mapped by the _Image that _binder gives for it: this one, or a new
    one when the binder changes the substitution. ftv(phi) (`clash`) is
    built the first time a binder is tested."""

    __slots__ = ("phi", "types", "exps", "table", "clash")

    def __init__(self, phi: Subst):
        self.phi = phi
        self.types, self.exps = phi._index()
        self.table: dict = {}
        self.clash: frozenset[str] | None = None

    def _binder(self, b: str, scope, free=ftv) -> tuple[str, _Image]:
        """The one rule for crossing a type binder b: its name and the _Image
        to map its scope with. b shadows phi's binding of b; if b is then
        free in an image, it is renamed to fresh_name(b, ftv(rest of phi) |
        free(scope)), and the renaming is carried in the scope's
        substitution."""
        clash = self.clash
        if clash is None:
            clash = self.clash = ftv(self.phi)  # the domain and the images' free variables
        if b not in clash:
            return b, self
        bindings = self.phi.bindings
        if b in self.types:
            bindings = tuple(bound for bound in bindings
                             if bound[0] != b or not isinstance(bound[1], Type))
            clash = ftv(Subst(bindings))
        if b not in clash:
            return b, _Image(Subst(bindings))
        name = fresh_name(b, clash | free(scope))
        return name, _Image(Subst(((b, TVar(name)),) + bindings))

    def of_set(self, vs: frozenset[str]) -> frozenset[str]:
        got = self.table.get(vs)
        if got is None:
            types = self.types
            free: set[str] = set()
            for a in vs:
                t = types.get(a)
                if t is None:
                    free.add(a)
                else:
                    free |= ftv(t)
            got = self.table[vs] = frozenset(free)
        return got

    def of_type(self, t: Type) -> Type:
        got = self.table.get(t)
        if got is not None:
            return got
        cls = t.__class__
        if cls is TVar:
            got = self.types.get(t.name, t)
        elif cls is Arrow:
            got = Arrow(self.of_type(t.dom), self.of_type(t.cod))
        elif cls is EVarApp:
            i = self.exps.get(t.evar)
            forbidden, body = self.of_set(t.forbidden), self.of_type(t.body)
            got = (EVarApp(t.evar, forbidden, body) if i is None
                   else apply_exp_type(i, forbidden, body))
        elif cls is Forall:
            a, image = self._binder(t.binder, t.body)
            got = Forall(a, image.of_type(t.body))
        else:
            raise TypeError(t)
        self.table[t] = got
        return got

    def of_env(self, env: TypeEnv) -> TypeEnv:
        got = self.table.get(id(env))
        if got is None:
            of_type = self.of_type
            image = TypeEnv(tuple((x, of_type(t)) for x, t in env.entries))
            got = self.table[id(env)] = env, image
        return got[1]

    def of_skel(self, q: Skeleton) -> Skeleton:
        cls = q.__class__
        if cls is QEVar:
            i = self.exps.get(q.evar)
            forbidden, body = self.of_set(q.forbidden), self.of_skel(q.body)
            return (QEVar(q.evar, forbidden, body) if i is None
                    else apply_exp_skel(i, forbidden, body))
        if cls is QApp:
            return QApp(self.of_skel(q.fun), self.of_skel(q.arg))
        if cls is QVar:
            got = self.table.get(id(q))
            if got is None:
                got = self.table[id(q)] = q, QVar(q.var, self.of_env(q.env))
            return got[1]
        if cls is QSub:
            return QSub(self.of_skel(q.body), self.of_type(q.target))
        if cls is QAbs:
            return QAbs(q.binder, self.of_skel(q.body))
        if cls is QForall:
            a, image = self._binder(q.binder, q.body)
            return QForall(a, image.of_skel(q.body))
        if cls is QWeak:
            return QWeak(self.of_skel(q.body), self.of_env(q.extra))
        raise TypeError(q)

    def of_cons(self, c: Constraint) -> Constraint:
        cls = c.__class__
        if cls is And:
            return And(self.of_cons(c.c1), self.of_cons(c.c2))
        if cls is Atomic:
            return Atomic(self.of_type(c.lhs), self.of_type(c.rhs))
        if cls is EGuard:
            i = self.exps.get(c.evar)
            forbidden, witness = self.of_set(c.forbidden), self.of_type(c.witness)
            body = self.of_cons(c.body)
            return (EGuard(c.evar, forbidden, witness, body) if i is None
                    else apply_exp_cons(i, forbidden, witness, body))
        if cls is Exists:
            a, image = self._binder(c.binder, c.body)
            return Exists(a, image.of_cons(c.body))
        if cls is Omega:
            return c
        raise TypeError(c)

    def of_exp(self, i: Expansion) -> Expansion:
        cls = i.__class__
        if cls is Id:
            return i
        if cls is ForallIntro:
            return ForallIntro(i.var, self.of_exp(i.rest))
        if cls is EVarIntro:
            return EVarIntro(i.evar, self.of_set(i.forbidden), self.of_exp(i.rest))
        if cls is SubStep:
            return SubStep(self.of_exp(i.rest), self.of_type(i.target))
        raise TypeError(i)


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
