"""Initial skeletons of terms, rename-equivalence, the reflexive predicate,
and the constructive derivation of a substitution mapping an initial skeleton
onto any valid skeleton of the same term."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Abs, And, App, Arrow, Atomic, Constraint, EGuard, EVarApp, EVarIntro,
    Exists, Expansion, Forall, ForallIntro, FreshSupply, Id, Omega, QAbs,
    QApp, QEVar, QForall, QSub, QVar, QWeak, Skeleton, SubStep, Subst, TVar,
    Term, Type, TypeEnv, Var, fresh_name, ftv, fv, term_alpha_eq,
    type_eq,
)
from .expansion import apply_subst, apply_subst_set
from .typecheck import check_skeleton


class TermMismatch(Exception):
    """The two skeletons do not type the same term."""


def allvar(q: Skeleton) -> frozenset[str]:
    """Free type variables plus all expansion variables of a skeleton."""
    # free type variables and expansion variables in one walk; `bound`
    # holds the enclosing binders
    out: set[str] = set()
    todo: list[tuple[Skeleton | Type, frozenset[str]]] = [(q, frozenset())]
    while todo:
        node, bound = todo.pop()
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
    return frozenset(out)


# ---------------------------------------------------------------------------
# Initial skeletons


def uniquify(m: Term) -> Term:
    """Rename binders so no binder shadows another binder or a free variable."""
    used = set(fv(m))

    def go(m: Term, env: dict[str, str]) -> Term:
        match m:
            case Var(x):
                return Var(env.get(x, x))
            case Abs(x, body):
                x2 = fresh_name(x, frozenset(used))
                used.add(x2)
                return Abs(x2, go(body, {**env, x: x2}))
            case App(f, a):
                return App(go(f, env), go(a, env))
        raise TypeError(m)

    return go(m, {})


@dataclass(frozen=True)
class _AVar:
    var: str
    evar: str


@dataclass(frozen=True)
class _AAbs:
    binder: str
    body: object
    evar: str


@dataclass(frozen=True)
class _AApp:
    fun: object
    arg: object
    tvar: str
    evar: str


def initial_skeleton(m: Term, supply: FreshSupply) -> tuple[Skeleton, TypeEnv, FreshSupply]:
    """Build the initial skeleton of m; returns it with the variable
    environment for m's free variables and the advanced supply."""
    m = uniquify(m)
    free = fv(m)
    box = [supply]

    def fresh_tvar() -> str:
        name, box[0] = box[0].fresh_tvar()
        return name

    def fresh_evar() -> str:
        name, box[0] = box[0].fresh_evar()
        return name

    tvar_of: dict[str, str] = {}  # term variable -> type variable, insertion-ordered

    def alloc(m: Term):
        match m:
            case Var(x):
                if x not in tvar_of:
                    tvar_of[x] = fresh_tvar()
                return _AVar(x, fresh_evar())
            case Abs(x, body):
                tvar_of[x] = fresh_tvar()
                ab = alloc(body)
                return _AAbs(x, ab, fresh_evar())
            case App(f, a):
                af = alloc(f)
                aa = alloc(a)
                return _AApp(af, aa, fresh_tvar(), fresh_evar())
        raise TypeError(m)

    annotated = alloc(m)

    def env_at(scope: frozenset[str]) -> TypeEnv:
        return TypeEnv(tuple(
            (x, TVar(a)) for x, a in tvar_of.items() if x in free or x in scope))

    def build(node, scope: frozenset[str]) -> tuple[Skeleton, Type]:
        match node:
            case _AVar(x, s):
                env = env_at(scope)
                delta = ftv(env)
                return (QEVar(s, delta, QVar(x, env)),
                        EVarApp(s, delta, TVar(tvar_of[x])))
            case _AAbs(x, body, s):
                qb, tb = build(body, scope | {x})
                delta = ftv(env_at(scope))
                return (QEVar(s, delta, QAbs(x, qb)),
                        EVarApp(s, delta, Arrow(TVar(tvar_of[x]), tb)))
            case _AApp(f, arg, a, s):
                qf, _ = build(f, scope)
                qa, ta = build(arg, scope)
                delta = ftv(env_at(scope))
                q = QEVar(s, delta, QApp(QSub(qf, Arrow(ta, TVar(a))), qa))
                return q, EVarApp(s, delta, TVar(a))
        raise TypeError(node)

    skel, _ = build(annotated, frozenset())
    theta = TypeEnv(tuple((x, TVar(a)) for x, a in tvar_of.items() if x in free))
    return skel, theta, box[0]


# ---------------------------------------------------------------------------
# Rename-equivalence (two initial skeletons of one term differ by a renaming)


def rename_equiv(q1: Skeleton, q2: Skeleton) -> Subst | None:
    """A substitution phi with q1 = apply_subst(phi, q2), when the skeletons
    are renamings of one another; None otherwise."""
    tmap: dict[str, str] = {}  # q2 type variable -> q1 type variable
    emap: dict[str, str] = {}  # q2 expansion variable -> q1 expansion variable

    def bind(mapping: dict[str, str], old: str, new: str) -> bool:
        if old in mapping:
            return mapping[old] == new
        mapping[old] = new
        return True

    def types(t1: Type, t2: Type) -> bool:
        match t1, t2:
            case TVar(a1), TVar(a2):
                return bind(tmap, a2, a1)
            case Arrow(d1, c1), Arrow(d2, c2):
                return types(d1, d2) and types(c1, c2)
            case EVarApp(s1, _, b1), EVarApp(s2, _, b2):
                return bind(emap, s2, s1) and types(b1, b2)
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
                return bind(emap, s2, s1) and walk(b1, b2)
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
    match c:
        case Omega():
            return True
        case Atomic(lhs, rhs):
            return type_eq(lhs, rhs)
        case And(c1, c2):
            return reflexive(c1) and reflexive(c2)
        case Exists(_, body):
            return reflexive(body)
        case EGuard(_, _, _, body):
            return reflexive(body)
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Deriving a substitution from an initial skeleton to a target skeleton


def _align_term_vars(q: Skeleton, m: Term) -> Skeleton:
    """Rename the target's term variables to match m's binder names."""

    def rn_env(env: TypeEnv, mapping: dict[str, str]) -> TypeEnv:
        entries = tuple((mapping.get(x, x), t) for x, t in env.entries)
        names = [x for x, _ in entries]
        if len(names) != len(set(names)):
            raise TermMismatch("binder renaming collides with an environment entry")
        return TypeEnv(entries)

    def go(q: Skeleton, m: Term, mapping: dict[str, str]) -> Skeleton:
        match q:
            case QVar(x, env):
                if not isinstance(m, Var) or mapping.get(x, x) != m.name:
                    raise TermMismatch("skeletons type different terms")
                return QVar(m.name, rn_env(env, mapping))
            case QAbs(x, body):
                if not isinstance(m, Abs):
                    raise TermMismatch("skeletons type different terms")
                inner = {**mapping, x: m.binder}
                return QAbs(m.binder, go(body, m.body, inner))
            case QApp(f, a):
                if not isinstance(m, App):
                    raise TermMismatch("skeletons type different terms")
                return QApp(go(f, m.fun, mapping), go(a, m.arg, mapping))
            case QForall(a, body):
                return QForall(a, go(body, m, mapping))
            case QEVar(s, forbidden, body):
                return QEVar(s, forbidden, go(body, m, mapping))
            case QSub(body, target):
                return QSub(go(body, m, mapping), target)
            case QWeak(body, extra):
                return QWeak(go(body, m, mapping), rn_env(extra, mapping))
        raise TypeError(q)

    return go(q, m, {})


def _freshen_foralls(q: Skeleton, avoid: set[str]) -> Skeleton:
    """Rename every QForall binder to a name outside avoid."""
    match q:
        case QForall(a, body):
            a2 = fresh_name(a, frozenset(avoid))
            avoid.add(a2)
            if a2 != a:
                body = apply_subst(Subst(((a, TVar(a2)),)), body)
            return QForall(a2, _freshen_foralls(body, avoid))
        case QAbs(x, body):
            return QAbs(x, _freshen_foralls(body, avoid))
        case QApp(f, a):
            return QApp(_freshen_foralls(f, avoid), _freshen_foralls(a, avoid))
        case QEVar(s, forbidden, body):
            return QEVar(s, forbidden, _freshen_foralls(body, avoid))
        case QSub(body, target):
            return QSub(_freshen_foralls(body, avoid), target)
        case QWeak(body, extra):
            return QWeak(_freshen_foralls(body, avoid), extra)
        case QVar(_, _):
            return q
    raise TypeError(q)


_Bindings = list


def _root_expansion(bindings: _Bindings, s: str) -> Expansion:
    for name, val in bindings:
        if name == s and isinstance(val, Expansion):
            return val
    raise AssertionError(f"no binding produced for {s}")


def _derive(q_i: Skeleton, q_t: Skeleton) -> _Bindings:
    """Bindings mapping the initial sub-skeleton q_i onto the target q_t."""
    if not isinstance(q_i, QEVar):
        raise AssertionError("initial sub-skeleton must be rooted at an E-variable")
    s, delta, core = q_i.evar, q_i.forbidden, q_i.body

    match q_t:
        case QForall(a, body):
            bs = _derive(q_i, body)
            return [(s, ForallIntro(a, _root_expansion(bs, s)))] + bs
        case QSub(body, target):
            bs = _derive(q_i, body)
            return [(s, SubStep(_root_expansion(bs, s), target))] + bs
        case QEVar(s_t, delta_t, body):
            bs = _derive(q_i, body)
            covered = apply_subst_set(Subst(tuple(bs)), delta)
            return [(s, EVarIntro(s_t, delta_t - covered, _root_expansion(bs, s)))] + bs
        case QWeak(_, _):
            raise TermMismatch("weakening below the root is not supported")

    match core, q_t:
        case QVar(x, theta), QVar(x2, gamma):
            if x2 != x:
                raise TermMismatch("skeletons type different terms")
            bs: _Bindings = []
            for xi, ti in theta.entries:
                g = gamma.lookup(xi)
                if g is not None and isinstance(ti, TVar):
                    bs.append((ti.name, g))
            return bs + [(s, Id())]
        case QAbs(x, body_i), QAbs(x2, body_t):
            if x2 != x:
                raise TermMismatch("skeletons type different terms")
            return _derive(body_i, body_t) + [(s, Id())]
        case QApp(QSub(fun_i, Arrow(_, TVar(a_new))), arg_i), QApp(fun_t, arg_t):
            if isinstance(fun_t, QSub):
                arr = fun_t.target
                bs1 = _derive(fun_i, fun_t.body)
            else:
                arr = check_skeleton(fun_t).rtype
                bs1 = _derive(fun_i, fun_t)
            if not isinstance(arr, Arrow):
                raise TermMismatch("target application function is not of arrow type")
            bs2 = _derive(arg_i, arg_t)
            return bs1 + bs2 + [(s, Id()), (a_new, arr.cod)]
    raise TermMismatch("skeletons type different terms")


def derive_substitution(q_init: Skeleton, q_target: Skeleton) -> tuple[Subst, TypeEnv]:
    """A substitution phi and extra environment G' such that
    QWeak(apply_subst(phi, q_init), G') reproduces q_target's judgement up to
    a reflexive constraint remainder."""
    j_i = check_skeleton(q_init)
    j_t = check_skeleton(q_target)
    if not term_alpha_eq(j_i.term, j_t.term):
        raise TermMismatch("skeletons type different terms")

    # Strip root weakenings into the extra environment.
    body = q_target
    while isinstance(body, QWeak):
        body = body.body

    body = _align_term_vars(body, j_i.term)
    avoid = set(allvar(q_init) | allvar(body) | ftv(j_t.env))
    body = _freshen_foralls(body, avoid)

    free = fv(j_i.term)
    gamma_extra = TypeEnv(tuple((x, t) for x, t in j_t.env.entries if x not in free))
    phi = Subst(tuple(_derive(q_init, body)))
    return phi, gamma_extra
