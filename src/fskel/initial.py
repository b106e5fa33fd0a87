"""Initial skeletons of terms, rename-equivalence, the reflexive predicate,
and the constructive derivation of a substitution mapping an initial skeleton
onto any valid skeleton of the same term. The derivation types each of its two
skeletons once and walks the target once; the variables of both skeletons are
gathered only if the target has a QForall binder to rename, and the
substitution holds one binding per E-variable."""

from __future__ import annotations

from .syntax import (
    IOTA, Abs, App, Arrow, Constraint, EVarApp, EVarIntro, Expansion, Forall,
    ForallIntro, FreshSupply, Id, Node, QAbs, QApp, QEVar, QForall, QSub, QVar,
    QWeak, Skeleton, SubStep, Subst, TVar, Term, Type, TypeEnv, Var,
    as_arrow, fresh_name, ftv, fv, term_alpha_eq,
)
from .expansion import apply_subst, apply_subst_set
from .solve import REL_EQ, solved
from .typecheck import check_skeleton


class TermMismatch(Exception):
    """The two skeletons do not type the same term."""


def allvar(q: Skeleton) -> frozenset[str]:
    """Free type variables plus all expansion variables of a skeleton,
    kept in q's memo slot."""
    found = q._allvar
    if found is not None:
        return found
    # free type variables and expansion variables in one walk; `bound`
    # holds the enclosing binders. A node met again under the same binders
    # (a shared subtree, an interned type) adds nothing and is skipped.
    out: set[str] = set()
    seen: set[tuple[int, frozenset[str]]] = set()
    todo: list[tuple[Skeleton | Type, frozenset[str]]] = [(q, frozenset())]
    while todo:
        node, bound = todo.pop()
        visit = (id(node), bound)
        if visit in seen:
            continue
        seen.add(visit)
        match node:
            case TVar(a):
                if a not in bound:
                    out.add(a)
            case Arrow(d, c):
                todo += ((d, bound), (c, bound))
            case EVarApp(s, forbidden, body) | QEVar(s, forbidden, body):
                out.add(s)
                out.update(forbidden - bound)
                todo.append((body, bound))
            case QVar(_, env):
                todo += ((t, bound) for _, t in env.entries)
            case QApp(f, a):
                todo += ((f, bound), (a, bound))
            case QAbs(_, body):
                todo.append((body, bound))
            case Forall(a, body) | QForall(a, body):
                todo.append((body, bound | {a}))
            case QSub(body, target):
                todo += ((body, bound), (target, bound))
            case QWeak(body, extra):
                todo.append((body, bound))
                todo += ((t, bound) for _, t in extra.entries)
            case _:
                raise TypeError(node)
    found = frozenset(out)
    object.__setattr__(q, "_allvar", found)
    return found


# ---------------------------------------------------------------------------
# Initial skeletons


class _AVar(Node):
    __slots__ = ("var", "evar")


class _AAbs(Node):
    __slots__ = ("binder", "body", "evar")


class _AApp(Node):
    __slots__ = ("fun", "arg", "tvar", "evar")


def initial_skeleton(m: Term, supply: FreshSupply) -> tuple[Skeleton, TypeEnv, FreshSupply]:
    """Build the initial skeleton of m; returns it with the variable
    environment for m's free variables and the advanced supply. Binders are
    renamed so that none shadows another binder or a free variable."""
    free = fv(m)
    used = set(free)
    # the supply's counters, advanced in place; one supply is built at the end
    next_tvar, next_evar = supply.tvar_next, supply.evar_next

    def fresh_tvar() -> str:
        nonlocal next_tvar
        name, next_tvar = supply.next_name(supply.tvar_prefix, next_tvar)
        return name

    def fresh_evar() -> str:
        nonlocal next_evar
        name, next_evar = supply.next_name(supply.evar_prefix, next_evar)
        return name

    tvar_of: dict[str, str] = {}  # term variable -> type variable, insertion-ordered

    def alloc(m: Term, renamed: dict[str, str]):
        match m:
            case Var(x):
                x = renamed.get(x, x)
                if x not in tvar_of:
                    tvar_of[x] = fresh_tvar()
                return _AVar(x, fresh_evar())
            case Abs(x, body):
                x2 = fresh_name(x, used)
                used.add(x2)
                tvar_of[x2] = fresh_tvar()
                ab = alloc(body, {**renamed, x: x2})
                return _AAbs(x2, ab, fresh_evar())
            case App(f, a):
                af = alloc(f, renamed)
                aa = alloc(a, renamed)
                return _AApp(af, aa, fresh_tvar(), fresh_evar())
        raise TypeError(m)

    annotated = alloc(m, {})

    envs: dict[frozenset[str], tuple[TypeEnv, frozenset[str]]] = {}

    def env_at(scope: frozenset[str]) -> tuple[TypeEnv, frozenset[str]]:
        """The environment of a scope and its type variables, built once."""
        got = envs.get(scope)
        if got is None:
            env = TypeEnv(tuple(
                (x, TVar(a)) for x, a in tvar_of.items() if x in free or x in scope))
            got = envs[scope] = env, ftv(env)
        return got

    def build(node, scope: frozenset[str]) -> tuple[Skeleton, Type]:
        match node:
            case _AVar(x, s):
                env, delta = env_at(scope)
                return (QEVar(s, delta, QVar(x, env)),
                        EVarApp(s, delta, TVar(tvar_of[x])))
            case _AAbs(x, body, s):
                qb, tb = build(body, scope | {x})
                delta = env_at(scope)[1]
                return (QEVar(s, delta, QAbs(x, qb)),
                        EVarApp(s, delta, Arrow(TVar(tvar_of[x]), tb)))
            case _AApp(f, arg, a, s):
                qf, _ = build(f, scope)
                qa, ta = build(arg, scope)
                delta = env_at(scope)[1]
                q = QEVar(s, delta, QApp(QSub(qf, Arrow(ta, TVar(a))), qa))
                return q, EVarApp(s, delta, TVar(a))
        raise TypeError(node)

    skel, _ = build(annotated, frozenset())
    theta = TypeEnv(tuple((x, TVar(a)) for x, a in tvar_of.items() if x in free))
    return skel, theta, FreshSupply(next_tvar, next_evar, supply.avoid,
                                    supply.tvar_prefix, supply.evar_prefix)


# ---------------------------------------------------------------------------
# Rename-equivalence (two initial skeletons of one term differ by a renaming)


def rename_equiv(q1: Skeleton, q2: Skeleton) -> Subst | None:
    """A substitution phi with q1 = apply_subst(phi, q2), when the skeletons
    are renamings of one another; None otherwise."""
    # a renaming is injective, so each map is kept with its inverse
    tmap: dict[str, str] = {}  # q2 type variable -> q1 type variable
    tinv: dict[str, str] = {}
    emap: dict[str, str] = {}  # q2 expansion variable -> q1 expansion variable
    einv: dict[str, str] = {}

    def bind(mapping: dict[str, str], inverse: dict[str, str], old: str, new: str) -> bool:
        return mapping.setdefault(old, new) == new and inverse.setdefault(new, old) == old

    def types(t1: Type, t2: Type) -> bool:
        match t1, t2:
            case TVar(a1), TVar(a2):
                return bind(tmap, tinv, a2, a1)
            case Arrow(d1, c1), Arrow(d2, c2):
                return types(d1, d2) and types(c1, c2)
            case EVarApp(s1, _, b1), EVarApp(s2, _, b2):
                return bind(emap, einv, s2, s1) and types(b1, b2)
        return False

    def envs(e1: TypeEnv, e2: TypeEnv) -> bool:
        if len(e1.entries) != len(e2.entries):
            return False
        return all(x1 == x2 and types(t1, t2)
                   for (x1, t1), (x2, t2) in zip(e1.entries, e2.entries))

    def walk(q1: Skeleton, q2: Skeleton) -> bool:
        match q1, q2:
            case QVar(x1, e1), QVar(x2, e2):
                return x1 == x2 and envs(e1, e2)
            case QAbs(x1, b1), QAbs(x2, b2):
                return x1 == x2 and walk(b1, b2)
            case QApp(f1, a1), QApp(f2, a2):
                return walk(f1, f2) and walk(a1, a2)
            case QEVar(s1, _, b1), QEVar(s2, _, b2):
                return bind(emap, einv, s2, s1) and walk(b1, b2)
            case QSub(b1, t1), QSub(b2, t2):
                return walk(b1, b2) and types(t1, t2)
        return False

    if not walk(q1, q2):
        return None
    bindings: list[tuple[str, Type | Expansion]] = []
    bindings += [(a2, TVar(a1)) for a2, a1 in tmap.items()]
    bindings += [(s2, EVarIntro(s1, frozenset(), Id())) for s2, s1 in emap.items()]
    phi = Subst(tuple(bindings))
    if apply_subst(phi, q2) != q1:
        return None
    return phi


# ---------------------------------------------------------------------------
# Reflexive constraints


def reflexive(c: Constraint) -> bool:
    """True iff every atom relates two equal types."""
    return solved(c, REL_EQ)


# ---------------------------------------------------------------------------
# Deriving a substitution from an initial skeleton to a target skeleton


def derive_substitution(q_init: Skeleton, q_target: Skeleton) -> tuple[Subst, TypeEnv]:
    """A substitution phi and extra environment G' such that
    QWeak(apply_subst(phi, q_init), G') reproduces q_target's judgement up to
    a reflexive constraint remainder; phi holds one binding per E-variable
    of q_init. Cost: typing the nodes of either skeleton not judged before
    (none, for a skeleton its caller has checked) and one walk of the
    target, which renames the target's binders as it goes instead of
    rebuilding it and reads each function part's type from its judgement.
    The names a renamed binder must miss (allvar of both skeletons and the
    target's free type variables) are gathered at the first QForall of the
    target, so a target with none walks neither skeleton for them; the
    initial term's free variables are computed only when the target's
    environment has entries to sort into G'."""
    j_i = check_skeleton(q_init)
    j_t = check_skeleton(q_target)
    if not term_alpha_eq(j_i.term, j_t.term):
        raise TermMismatch("skeletons type different terms")

    # Strip root weakenings into the extra environment.
    root = q_target
    while isinstance(root, QWeak):
        root = root.body

    avoid: set[str] | None = None  # names a renamed binder must miss; built at a QForall
    bindings: list[tuple[str, Type | Expansion]] = []
    first: dict[str, Type] = {}  # each term variable's type variable -> its first binding

    def walk(q_i: Skeleton, q_t: Skeleton, names: dict[str, str], phi: Subst) -> Expansion:
        """The expansion of q_i's E-variable that maps q_i onto q_t; the
        bindings below it go to `bindings`. names maps the target's term
        binders to q_i's, and phi renames the target's enclosing QForall
        binders to fresh names."""
        nonlocal avoid
        if not isinstance(q_i, QEVar):
            raise AssertionError("initial sub-skeleton must be rooted at an E-variable")

        def rn(t):
            return apply_subst(phi, t) if phi.bindings else t

        match q_t:
            case QForall(a, body):
                if avoid is None:
                    avoid = set(allvar(q_init) | allvar(root) | ftv(j_t.env))
                a2 = fresh_name(a, avoid)
                avoid.add(a2)
                kept = tuple(b for b in phi.bindings if b[0] != a)
                phi = Subst(kept if a2 == a else kept + ((a, TVar(a2)),))
                return ForallIntro(a2, walk(q_i, body, names, phi))
            case QSub(body, target):
                return SubStep(walk(q_i, body, names, phi), rn(target))
            case QEVar(s_t, delta_t, body):
                rest = walk(q_i, body, names, phi)
                covered = frozenset().union(
                    *(ftv(first.get(a, TVar(a))) for a in q_i.forbidden))
                return EVarIntro(s_t, apply_subst_set(phi, delta_t) - covered, rest)
            case QWeak(_, _):
                raise TermMismatch("weakening below the root is not supported")

        match q_i.body, q_t:
            case QVar(_, theta), QVar(_, gamma):
                env = {names.get(y, y): t for y, t in gamma.entries}
                if len(env) != len(gamma.entries):
                    raise TermMismatch("binder renaming collides with an environment entry")
                for xi, ti in theta.entries:
                    g = env.get(xi)
                    if g is not None and isinstance(ti, TVar):
                        g = rn(g)
                        bindings.append((ti.name, g))
                        first.setdefault(ti.name, g)
            case QAbs(x, body_i), QAbs(x2, body_t):
                exp = walk(body_i, body_t, {**names, x2: x}, phi)
                bindings.append((body_i.evar, exp))
            case QApp(QSub(fun_i, Arrow(_, TVar(a_new))), arg_i), QApp(fun_t, arg_t):
                if isinstance(fun_t, QSub):
                    arr, fun_t = rn(fun_t.target), fun_t.body
                else:
                    arr = rn(check_skeleton(fun_t).rtype)
                exp = walk(fun_i, fun_t, names, phi)
                bindings.append((fun_i.evar, exp))
                # check_skeleton(q_target) read this type as an arrow modulo
                # the theory, and renaming type variables keeps it one
                arr = as_arrow(arr)
                exp = walk(arg_i, arg_t, names, phi)
                bindings.extend(((arg_i.evar, exp), (a_new, arr.cod)))
            case _:
                raise TermMismatch("skeletons type different terms")
        return Id()

    bindings.append((q_init.evar, walk(q_init, root, {}, IOTA)))
    extra = ()
    if j_t.env.entries:
        free = fv(j_i.term)
        extra = tuple((x, t) for x, t in j_t.env.entries if x not in free)
    return Subst(tuple(bindings)), TypeEnv(extra)
