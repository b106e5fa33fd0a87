"""Call-by-value reduction, explicit subtyping-proof skeletons, the
head-exposing transformation T with its size measure, and the constructive
subject-reduction engine."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Abs, App, Arrow, EVarApp, Forall, QAbs, QApp, QEVar, QForall, QSub, QVar,
    QWeak, Skeleton, Subst, TVar, Term, Type, TypeEnv, Var, fresh_name, ftv,
    env_eq, fv, term_alpha_eq, type_eq, canonical_type,
)
from .expansion import apply_subst
from .solve import REL_F, leq_f_witness, solved
from .typecheck import Judgement, check_skeleton


class NotSolved(Exception):
    """The skeleton's constraint does not hold in the subtyping relation."""


class NotAStep(Exception):
    """The given term is not the reduct of the skeleton's term."""


class BadSubProof(Exception):
    """An ill-formed subtyping proof skeleton."""


# ---------------------------------------------------------------------------
# Terms: capture-avoiding substitution and call-by-value evaluation


def subst_term(x: str, v: Term, m: Term) -> Term:
    """Capture-avoiding substitution of v for x in m."""
    match m:
        case Var(y):
            return v if y == x else m
        case Abs(y, body):
            if y == x:
                return m
            if y in fv(v) and x in fv(body):
                y2 = fresh_name(y, fv(v) | fv(body) | {x})
                body = subst_term(y, Var(y2), body)
                y = y2
            return Abs(y, subst_term(x, v, body))
        case App(f, a):
            return App(subst_term(x, v, f), subst_term(x, v, a))
    raise TypeError(m)


def is_value(m: Term) -> bool:
    return isinstance(m, (Var, Abs))


def cbv_step(m: Term) -> Term | None:
    """One small step of call-by-value evaluation, or None."""
    match m:
        case App(Abs(x, body), arg) if is_value(arg):
            return subst_term(x, arg, body)
        case App(f, a):
            f2 = cbv_step(f)
            if f2 is not None:
                return App(f2, a)
            if is_value(f):
                a2 = cbv_step(a)
                if a2 is not None:
                    return App(f, a2)
            return None
        case _:
            return None


# ---------------------------------------------------------------------------
# Subtyping proof skeletons


class SubtypeSkeleton:
    """Proof term for one subtyping judgement."""


@dataclass(frozen=True)
class Inst(SubtypeSkeleton):
    """Quantifier elimination: all a. t <= t[a := arg]"""

    source: Type  # structurally a Forall
    arg: Type


@dataclass(frozen=True)
class QuantComm(SubtypeSkeleton):
    """Swap of two adjacent quantifiers."""

    source: Type  # structurally Forall(a1, Forall(a2, _))


@dataclass(frozen=True)
class DummyIn(SubtypeSkeleton):
    """Introduction of a dummy quantifier: t <= all a. t"""

    var: str
    body: Type


@dataclass(frozen=True)
class DummyElim(SubtypeSkeleton):
    """Elimination of a dummy quantifier: all a. t <= t"""

    var: str
    body: Type


@dataclass(frozen=True)
class FunCong(SubtypeSkeleton):
    """Congruence under an arrow (contravariant domain)."""

    dom_proof: SubtypeSkeleton
    cod_proof: SubtypeSkeleton


@dataclass(frozen=True)
class EVarCong(SubtypeSkeleton):
    """Congruence under an E-variable application."""

    evar: str
    forbidden: frozenset[str]
    proof: SubtypeSkeleton


@dataclass(frozen=True)
class QuantCong(SubtypeSkeleton):
    """Congruence under a quantifier."""

    var: str
    proof: SubtypeSkeleton


REG = "regular"
EQ = "equality"


def check_subproof(p: SubtypeSkeleton) -> tuple[Type, Type, str]:
    """The pair of types a proof relates, with its relation tag."""
    match p:
        case Inst(Forall(a, t1), t2):
            return Forall(a, t1), apply_subst(Subst(((a, t2),)), t1), REG
        case QuantComm(Forall(a1, Forall(a2, t))):
            return Forall(a1, Forall(a2, t)), Forall(a2, Forall(a1, t)), EQ
        case DummyIn(a, t):
            if a in ftv(t):
                raise BadSubProof(f"{a} is free in the quantified type")
            return t, Forall(a, t), EQ
        case DummyElim(a, t):
            if a in ftv(t):
                raise BadSubProof(f"{a} is free in the quantified type")
            return Forall(a, t), t, EQ
        case FunCong(p1, p2):
            t2, t1, tag1 = check_subproof(p1)
            t3, t4, tag2 = check_subproof(p2)
            if tag1 != EQ or tag2 != EQ:
                raise BadSubProof("arrow congruence premises must be equalities")
            return Arrow(t1, t3), Arrow(t2, t4), EQ
        case EVarCong(s, forbidden, inner):
            t1, t2, tag = check_subproof(inner)
            if tag != EQ:
                raise BadSubProof("E-variable congruence premise must be an equality")
            return EVarApp(s, forbidden, t1), EVarApp(s, forbidden, t2), EQ
        case QuantCong(a, inner):
            t1, t2, tag = check_subproof(inner)
            return Forall(a, t1), Forall(a, t2), tag
    raise BadSubProof(f"malformed proof node {p!r}")


def invert_subproof(p: SubtypeSkeleton) -> SubtypeSkeleton:
    """Symmetric proof of an equality judgement."""
    match p:
        case QuantComm(Forall(a1, Forall(a2, t))):
            return QuantComm(Forall(a2, Forall(a1, t)))
        case DummyIn(a, t):
            return DummyElim(a, t)
        case DummyElim(a, t):
            return DummyIn(a, t)
        case FunCong(p1, p2):
            return FunCong(invert_subproof(p1), invert_subproof(p2))
        case EVarCong(s, forbidden, inner):
            return EVarCong(s, forbidden, invert_subproof(inner))
        case QuantCong(a, inner):
            return QuantCong(a, invert_subproof(inner))
    raise BadSubProof("only equality proofs can be inverted")


# ---------------------------------------------------------------------------
# Skeletons with explicit subtyping proofs


class NeqSkeleton:
    """Skeleton whose subtyping steps carry explicit proofs."""


@dataclass(frozen=True)
class NVar(NeqSkeleton):
    var: str
    env: TypeEnv


@dataclass(frozen=True)
class NAbs(NeqSkeleton):
    binder: str
    body: NeqSkeleton


@dataclass(frozen=True)
class NApp(NeqSkeleton):
    fun: NeqSkeleton
    arg: NeqSkeleton


@dataclass(frozen=True)
class NForall(NeqSkeleton):
    binder: str
    body: NeqSkeleton


@dataclass(frozen=True)
class NEVar(NeqSkeleton):
    evar: str
    forbidden: frozenset[str]
    body: NeqSkeleton


@dataclass(frozen=True)
class NSub(NeqSkeleton):
    body: NeqSkeleton
    proof: SubtypeSkeleton


@dataclass(frozen=True)
class NEnvSub(NeqSkeleton):
    body: NeqSkeleton
    var: str
    proof: SubtypeSkeleton  # new type <= old type (an equality)


class NeqError(Exception):
    """A proof-carrying skeleton violates its typing rules."""


def _as_arrow(t: Type) -> Arrow | None:
    if isinstance(t, Arrow):
        return t
    c = canonical_type(t)
    return c if isinstance(c, Arrow) else None


def check_neq(q: NeqSkeleton) -> tuple[Term, TypeEnv, Type]:
    """Validate a proof-carrying skeleton and return its judgement."""
    match q:
        case NVar(x, env):
            if not env.well_formed():
                raise NeqError(f"environment of {x} mentions a variable twice")
            t = env.lookup(x)
            if t is None:
                raise NeqError(f"{x} not in its environment")
            return Var(x), env, t
        case NAbs(x, body):
            m, env, t = check_neq(body)
            dom = env.lookup(x)
            if dom is None:
                raise NeqError(f"abstraction binder {x} not in the body environment")
            return Abs(x, m), env.remove(x), Arrow(dom, t)
        case NApp(f, a):
            m1, env1, t1 = check_neq(f)
            m2, env2, t2 = check_neq(a)
            if not env_eq(env1, env2):
                raise NeqError("application premises carry different environments")
            arr = _as_arrow(t1)
            if arr is None:
                raise NeqError("function part does not have an arrow type")
            if not type_eq(arr.dom, t2):
                raise NeqError("argument type does not match the function domain")
            return App(m1, m2), env1, arr.cod
        case NForall(a, body):
            m, env, t = check_neq(body)
            if a in ftv(env):
                raise NeqError(f"{a} is free in the environment")
            return m, env, Forall(a, t)
        case NEVar(s, forbidden, body):
            m, env, t = check_neq(body)
            if not ftv(env) <= forbidden:
                raise NeqError(f"{s}: forbidden set too small")
            return m, env, EVarApp(s, forbidden, t)
        case NSub(body, proof):
            m, env, t = check_neq(body)
            t1, t2, _ = check_subproof(proof)
            if not type_eq(t, t1):
                raise NeqError("proof does not start at the skeleton's type")
            return m, env, t2
        case NEnvSub(body, y, proof):
            m, env, t = check_neq(body)
            old = env.lookup(y)
            if old is None:
                raise NeqError(f"environment subtyping on absent variable {y}")
            new, old2, tag = check_subproof(proof)
            if tag != EQ:
                raise NeqError("environment subtyping proof must be an equality")
            if not type_eq(old2, old):
                raise NeqError("proof does not end at the stored environment type")
            env2 = TypeEnv(tuple((x, new if x == y else tx) for x, tx in env.entries))
            return m, env2, t
    raise TypeError(q)


# ---------------------------------------------------------------------------
# Size measure


def sz(q: NeqSkeleton) -> int:
    match q:
        case NVar(_, _):
            return 2
        case NAbs(_, _):
            return 1
        case NApp(f, a):
            return 1 + sz(f) + sz(a)
        case NForall(_, body):
            return 1 + sz(body)
        case NEVar(_, _, body):
            return 1 + sz(body)
        case NEnvSub(body, _, _):
            return 1 + sz(body)
        case NSub(body, proof):
            match proof:
                case Inst(_, _) | QuantComm(_) | DummyElim(_, _) | FunCong(_, _):
                    return 1 + sz(body)
                case DummyIn(_, _):
                    return 2 + sz(body)
                case QuantCong(_, inner):
                    return 1 + sz(NSub(body, inner))
                case EVarCong(_, _, inner):
                    return 2 + sz(NSub(body, inner))
            raise TypeError(proof)
    raise TypeError(q)


# ---------------------------------------------------------------------------
# Single type-variable substitution into proof-carrying skeletons


def _subst_type(a: str, x: Type, t: Type) -> Type:
    return apply_subst(Subst(((a, x),)), t)


def subst_proof(a: str, x: Type, p: SubtypeSkeleton) -> SubtypeSkeleton:
    match p:
        case Inst(src, arg):
            return Inst(_keep_foralls(_subst_type(a, x, src), src, 1),
                        _subst_type(a, x, arg))
        case QuantComm(src):
            return QuantComm(_keep_foralls(_subst_type(a, x, src), src, 2))
        case DummyIn(b, t):
            if b == a:
                return DummyIn(b, t)  # a cannot occur in t
            if b in ftv(x):
                b2 = fresh_name(b, ftv(x) | ftv(t) | {a})
                return DummyIn(b2, _subst_type(a, x, t))
            return DummyIn(b, _subst_type(a, x, t))
        case DummyElim(b, t):
            inv = subst_proof(a, x, DummyIn(b, t))
            assert isinstance(inv, DummyIn)
            return DummyElim(inv.var, inv.body)
        case FunCong(p1, p2):
            return FunCong(subst_proof(a, x, p1), subst_proof(a, x, p2))
        case EVarCong(s, forbidden, inner):
            fb = (forbidden - {a}) | ftv(x) if a in forbidden else forbidden
            return EVarCong(s, fb, subst_proof(a, x, inner))
        case QuantCong(b, inner):
            if b == a:
                return p  # the conclusion binds a; nothing to substitute
            if b in ftv(x):
                b2 = fresh_name(b, ftv(x) | {a})
                inner = subst_proof(b, TVar(b2), inner)
                b = b2
            return QuantCong(b, subst_proof(a, x, inner))
    raise TypeError(p)


def _keep_foralls(t: Type, orig: Type, depth: int) -> Type:
    """Check that substitution kept the depth leading quantifiers of a proof's
    source (it never removes them: the source is structurally quantified)."""
    inner = t
    for _ in range(depth):
        if not isinstance(inner, Forall):
            raise BadSubProof(f"substitution destroyed a quantified source {orig!r}")
        inner = inner.body
    return t


def subst_neq(a: str, x: Type, q: NeqSkeleton) -> NeqSkeleton:
    """Capture-avoiding substitution of type x for variable a in a
    proof-carrying skeleton."""
    match q:
        case NVar(y, env):
            return NVar(y, TypeEnv(tuple((z, _subst_type(a, x, t)) for z, t in env.entries)))
        case NAbs(y, body):
            return NAbs(y, subst_neq(a, x, body))
        case NApp(f, arg):
            return NApp(subst_neq(a, x, f), subst_neq(a, x, arg))
        case NForall(b, body):
            if b == a:
                return q
            if b in ftv(x):
                b2 = fresh_name(b, ftv(x) | {a} | _neq_ftv(body))
                body = subst_neq(b, TVar(b2), body)
                b = b2
            return NForall(b, subst_neq(a, x, body))
        case NEVar(s, forbidden, body):
            fb = (forbidden - {a}) | ftv(x) if a in forbidden else forbidden
            return NEVar(s, fb, subst_neq(a, x, body))
        case NSub(body, proof):
            return NSub(subst_neq(a, x, body), subst_proof(a, x, proof))
        case NEnvSub(body, y, proof):
            return NEnvSub(subst_neq(a, x, body), y, subst_proof(a, x, proof))
    raise TypeError(q)


def _proof_ftv(p: SubtypeSkeleton) -> frozenset[str]:
    match p:
        case Inst(src, arg):
            return ftv(src) | ftv(arg)
        case QuantComm(src):
            return ftv(src)
        case DummyIn(b, t) | DummyElim(b, t):
            return ftv(t) | {b}
        case FunCong(p1, p2):
            return _proof_ftv(p1) | _proof_ftv(p2)
        case EVarCong(_, forbidden, inner):
            return forbidden | _proof_ftv(inner)
        case QuantCong(b, inner):
            return _proof_ftv(inner) | {b}
    raise TypeError(p)


def _neq_ftv(q: NeqSkeleton) -> frozenset[str]:
    match q:
        case NVar(_, env):
            return ftv(env)
        case NAbs(_, body):
            return _neq_ftv(body)
        case NApp(f, a):
            return _neq_ftv(f) | _neq_ftv(a)
        case NForall(b, body):
            return _neq_ftv(body) - {b}
        case NEVar(_, forbidden, body):
            return forbidden | _neq_ftv(body)
        case NSub(body, proof):
            return _neq_ftv(body) | _proof_ftv(proof)
        case NEnvSub(body, _, proof):
            return _neq_ftv(body) | _proof_ftv(proof)
    raise TypeError(q)


# ---------------------------------------------------------------------------
# The transformation T


def transform_T(q: NeqSkeleton) -> NeqSkeleton:
    """Expose the head constructor matching the result type of an
    abstraction's skeleton, preserving its judgement; never increases sz."""
    match q:
        case NVar(_, _) | NAbs(_, _) | NApp(_, _) | NEVar(_, _, _):
            return q
        case NForall(a, body):
            return NForall(a, transform_T(body))
        case NEnvSub(body, y, proof):
            t = transform_T(body)
            match t:
                case NAbs(x, inner):
                    return NAbs(x, NEnvSub(inner, y, proof))
                case NEVar(s, forbidden, inner):
                    return NEVar(s, forbidden, NEnvSub(inner, y, proof))
                case NForall(a, inner):
                    return NForall(a, NEnvSub(inner, y, proof))
                case _:
                    return NEnvSub(t, y, proof)
        case NSub(body, proof):
            return _transform_sub(body, proof)
    raise TypeError(q)


def _transform_sub(body: NeqSkeleton, proof: SubtypeSkeleton) -> NeqSkeleton:
    t = transform_T(body)
    match proof:
        case Inst(Forall(a, _), arg):
            if isinstance(t, NForall):
                inner = t.body
                if t.binder != a:
                    a = t.binder  # the proof names the same binder up to alpha
                return transform_T(subst_neq(a, arg, inner))
            return NSub(t, proof)
        case EVarCong(_, _, inner_proof):
            if isinstance(t, NEVar):
                return NEVar(t.evar, t.forbidden, NSub(t.body, inner_proof))
            return NSub(t, proof)
        case QuantComm(_):
            if isinstance(t, NForall):
                t1 = transform_T(t.body)
                if isinstance(t1, NForall):
                    return NForall(t1.binder, NForall(t.binder, t1.body))
            return NSub(t, proof)
        case FunCong(p1, p2):
            if isinstance(t, NAbs):
                return NAbs(t.binder, NEnvSub(NSub(t.body, p2), t.binder, p1))
            return NSub(t, proof)
        case QuantCong(a, inner_proof):
            if isinstance(t, NForall):
                inner = t.body
                if t.binder != a:
                    inner = subst_neq(t.binder, TVar(a), inner)
                return NForall(a, transform_T(NSub(inner, inner_proof)))
            return NSub(t, proof)
        case DummyIn(a, _):
            avoid = _neq_ftv(body)
            a2 = a if a not in avoid else fresh_name(a, avoid)
            return NForall(a2, body)
        case DummyElim(_, _):
            if isinstance(t, NForall):
                return transform_T(t.body)
            return NSub(t, proof)
    raise TypeError(proof)


# ---------------------------------------------------------------------------
# Between the two skeleton languages


def _solved_judgement(q: Skeleton) -> Judgement:
    """q's judgement, provided its constraint holds under REL_F."""
    j = check_skeleton(q)
    if not solved(j.constraint, REL_F):
        raise NotSolved("constraint does not hold under quantifier elimination")
    return j


def _sub_proof(t: Type, target: Type) -> Inst | None:
    """The elimination proof of t <= target, or None when the two are equal."""
    if type_eq(t, target):
        return None
    w = leq_f_witness(t, target)
    if w is None:
        raise NotSolved("subtyping step not derivable by one elimination")
    a, rest, x = w
    return Inst(Forall(a, rest), x)


def _elaborate(q: Skeleton) -> NeqSkeleton:
    """to_neq for a q already known to be valid and solved. Each distinct
    subtyping step (t, target) is settled once."""
    proofs: dict[tuple[Type, Type], Inst | None] = {}

    def go(q: Skeleton) -> tuple[NeqSkeleton, TypeEnv, Type]:
        match q:
            case QVar(x, env):
                t = env.lookup(x)
                assert t is not None
                return NVar(x, env), env, t
            case QAbs(x, body):
                n, env, t = go(body)
                return NAbs(x, n), env.remove(x), Arrow(env.lookup(x), t)
            case QApp(f, a):
                nf, env, tf = go(f)
                na, _, _ = go(a)
                return NApp(nf, na), env, _as_arrow(tf).cod
            case QForall(a, body):
                n, env, t = go(body)
                return NForall(a, n), env, Forall(a, t)
            case QEVar(s, forbidden, body):
                n, env, t = go(body)
                return NEVar(s, forbidden, n), env, EVarApp(s, forbidden, t)
            case QSub(body, target):
                n, env, t = go(body)
                if (t, target) not in proofs:
                    proofs[t, target] = _sub_proof(t, target)
                proof = proofs[t, target]
                if proof is None:
                    return n, env, t
                return NSub(n, proof), env, target
            case QWeak(_, _):
                raise NotSolved("weakening cannot be elaborated into a proof")
        raise TypeError(q)

    return go(q)[0]


def to_neq(q: Skeleton) -> NeqSkeleton:
    """Elaborate a valid skeleton with a solved constraint into a
    proof-carrying one (weakening-free skeletons only)."""
    _solved_judgement(q)
    return _elaborate(q)


def _rewrite_env_var(q: Skeleton, y: str, t: Type) -> Skeleton:
    """Replace y's stored type by t in every environment of q (stopping where
    y is rebound)."""
    match q:
        case QVar(x, env):
            return QVar(x, TypeEnv(tuple(
                (z, t if z == y else tz) for z, tz in env.entries)))
        case QAbs(x, body):
            if x == y:
                return q
            return QAbs(x, _rewrite_env_var(body, y, t))
        case QApp(f, a):
            return QApp(_rewrite_env_var(f, y, t), _rewrite_env_var(a, y, t))
        case QForall(a, body):
            return QForall(a, _rewrite_env_var(body, y, t))
        case QEVar(s, forbidden, body):
            return QEVar(s, forbidden, _rewrite_env_var(body, y, t))
        case QSub(body, target):
            return QSub(_rewrite_env_var(body, y, t), target)
        case QWeak(body, extra):
            return QWeak(_rewrite_env_var(body, y, t),
                         TypeEnv(tuple((z, t if z == y else tz) for z, tz in extra.entries)))
    raise TypeError(q)


def from_neq(q: NeqSkeleton) -> Skeleton:
    """Flatten a proof-carrying skeleton back to a constraint-generating one;
    its constraint is solved by construction."""
    match q:
        case NVar(x, env):
            return QVar(x, env)
        case NAbs(x, body):
            return QAbs(x, from_neq(body))
        case NApp(f, a):
            return QApp(from_neq(f), from_neq(a))
        case NForall(a, body):
            return QForall(a, from_neq(body))
        case NEVar(s, forbidden, body):
            return QEVar(s, forbidden, from_neq(body))
        case NSub(body, proof):
            _, t2, _ = check_subproof(proof)
            return QSub(from_neq(body), t2)
        case NEnvSub(body, y, proof):
            new, _, _ = check_subproof(proof)
            return _rewrite_env_var(from_neq(body), y, new)
    raise TypeError(q)


# ---------------------------------------------------------------------------
# Subject reduction


def _term_names(q: NeqSkeleton) -> frozenset[str]:
    """Every term-variable name occurring in q: leaf names, binders, and
    environment entries."""
    match q:
        case NVar(x, env):
            return frozenset({x}) | env.supp()
        case NAbs(x, body):
            return frozenset({x}) | _term_names(body)
        case NApp(f, a):
            return _term_names(f) | _term_names(a)
        case NForall(_, body) | NEVar(_, _, body) | NSub(body, _):
            return _term_names(body)
        case NEnvSub(body, y, _):
            return frozenset({y}) | _term_names(body)
    raise TypeError(q)


def _rename_term_var(q: NeqSkeleton, old: str, new: str) -> NeqSkeleton:
    """Rename free occurrences of the term variable old to new, in leaf
    names, environments, and environment-rewrite nodes."""

    def ren_env(env: TypeEnv) -> TypeEnv:
        return TypeEnv(tuple((new if x == old else x, t) for x, t in env.entries))

    match q:
        case NVar(x, env):
            return NVar(new if x == old else x, ren_env(env))
        case NAbs(x, body):
            if x == old:
                return q
            return NAbs(x, _rename_term_var(body, old, new))
        case NApp(f, a):
            return NApp(_rename_term_var(f, old, new), _rename_term_var(a, old, new))
        case NForall(a, body):
            return NForall(a, _rename_term_var(body, old, new))
        case NEVar(s, forbidden, body):
            return NEVar(s, forbidden, _rename_term_var(body, old, new))
        case NSub(body, proof):
            return NSub(_rename_term_var(body, old, new), proof)
        case NEnvSub(body, y, proof):
            return NEnvSub(_rename_term_var(body, old, new),
                           new if y == old else y, proof)
    raise TypeError(q)


def _extend_envs(q: NeqSkeleton, extras: list[tuple[str, Type]]) -> NeqSkeleton:
    """Pointwise-extend every environment in q by the given entries."""
    if not extras:
        return q
    match q:
        case NVar(x, env):
            if any(y in env.supp() for y, _ in extras):
                raise NotAStep("binder collision while substituting the argument skeleton")
            return NVar(x, TypeEnv(env.entries + tuple(extras)))
        case NAbs(x, body):
            if any(y == x for y, _ in extras):
                raise NotAStep("binder collision while substituting the argument skeleton")
            return NAbs(x, _extend_envs(body, extras))
        case NApp(f, a):
            return NApp(_extend_envs(f, extras), _extend_envs(a, extras))
        case NForall(a, body):
            return NForall(a, _extend_envs(body, extras))
        case NEVar(s, forbidden, body):
            grown = frozenset().union(*[ftv(t) for _, t in extras]) if extras else frozenset()
            if not grown <= forbidden:
                raise NotAStep(
                    f"{s}: forbidden set too small for the substituted environment")
            return NEVar(s, forbidden, _extend_envs(body, extras))
        case NSub(body, proof):
            return NSub(_extend_envs(body, extras), proof)
        case NEnvSub(body, y, proof):
            return NEnvSub(_extend_envs(body, extras), y, proof)
    raise TypeError(q)


def _env_lookup(q: NeqSkeleton, y: str) -> Type | None:
    """y's type in the environment of a valid q, read down q's leftmost
    path without typing it."""
    while True:
        match q:
            case NVar(_, env):
                return env.lookup(y)
            case NAbs(x, body):
                if x == y:
                    return None
                q = body
            case NApp(body, _) | NForall(_, body) | NEVar(_, _, body) | NSub(body, _):
                q = body
            case NEnvSub(body, z, proof):
                if z == y:
                    return check_subproof(proof)[0]
                q = body
            case _:
                raise TypeError(q)


def subst_redex(body: NeqSkeleton, x: str, arg: NeqSkeleton) -> NeqSkeleton:
    """Substitute the argument skeleton for the bound variable x in the
    abstraction body's skeleton."""

    arg_names = _term_names(arg)

    def go(q: NeqSkeleton, arg: NeqSkeleton, extras: list[tuple[str, Type]]) -> NeqSkeleton:
        match q:
            case NVar(y, env):
                if y == x:
                    return _extend_envs(arg, extras)
                return NVar(y, env.remove(x))
            case NAbs(y, body):
                if y == x:
                    raise NotAStep("redex variable rebound inside the abstraction body")
                if y in arg_names or any(z == y for z, _ in extras):
                    # the crossed binder clashes with the argument skeleton
                    # (or an outer crossed binder): rename it
                    y2 = fresh_name(y, arg_names | _term_names(body)
                                    | {x} | {z for z, _ in extras})
                    body = _rename_term_var(body, y, y2)
                    y = y2
                ty = _env_lookup(body, y)
                return NAbs(y, go(body, arg, extras + [(y, ty)]))
            case NApp(f, a):
                return NApp(go(f, arg, extras), go(a, arg, extras))
            case NForall(a, body):
                return NForall(a, go(body, arg, extras))
            case NEVar(s, forbidden, body):
                return NEVar(s, forbidden, go(body, arg, extras))
            case NSub(body, proof):
                return NSub(go(body, arg, extras), proof)
            case NEnvSub(body, y, proof):
                if y == x:
                    # The redex variable's type is rewritten below: feed the
                    # argument through the same proof instead.
                    return go(body, NSub(arg, proof), extras)
                hit = [i for i, (z, _) in enumerate(extras) if z == y]
                if hit:
                    _, old, _ = check_subproof(proof)
                    extras2 = [(z, old if z == y else t) for z, t in extras]
                    return NEnvSub(go(body, arg, extras2), y, proof)
                # y comes from the shared outer environment: align the
                # argument's stored type for y with the premise's.
                arg2 = NEnvSub(arg, y, invert_subproof(proof))
                return NEnvSub(go(body, arg2, extras), y, proof)
        raise TypeError(q)

    return go(body, arg, [])


def _expose_abs(n: NeqSkeleton) -> NeqSkeleton:
    """Transform until the head constructor is an abstraction (the judged
    term is an abstraction of arrow type)."""
    for _ in range(10000):
        n = transform_T(n)
        if isinstance(n, NAbs):
            return n
        _, _, t = check_neq(n)
        if not isinstance(t, Forall):
            raise NotAStep("cannot expose the abstraction head")
        # The literal leading quantifier must be a dummy: the type is equal
        # to an arrow type, so the binder cannot be free in the body.
        n = NSub(n, DummyElim(t.binder, t.body))
    raise NotAStep("abstraction head exposure did not terminate")


def step_neq(n: NeqSkeleton) -> NeqSkeleton:
    """One call-by-value step on the proof-carrying skeleton's term."""
    m, _, _ = check_neq(n)
    if cbv_step(m) is None:
        raise NotAStep("the skeleton's term is not reducible")
    return _step_at(n, m)


def _step_at(n: NeqSkeleton, m: Term) -> NeqSkeleton:
    """Step n, whose judged term m is reducible, at m's call-by-value redex."""
    match n:
        case NForall(a, body):
            return NForall(a, _step_at(body, m))
        case NEVar(s, forbidden, body):
            return NEVar(s, forbidden, _step_at(body, m))
        case NSub(body, proof):
            return NSub(_step_at(body, m), proof)
        case NEnvSub(body, y, proof):
            return NEnvSub(_step_at(body, m), y, proof)
        case NApp(f, a):
            if isinstance(m.fun, Abs) and is_value(m.arg):
                exposed = _expose_abs(f)
                return subst_redex(exposed.body, exposed.binder, a)
            # m is reducible, so either its function part is reducible or
            # that part is a value and the argument is reducible
            if not is_value(m.fun):
                return NApp(_step_at(f, m.fun), a)
            return NApp(f, _step_at(a, m.arg))
    raise TypeError(n)


def preserve(q: Skeleton, m_next: Term) -> Skeleton:
    """A valid skeleton for m_next with the same environment and result type
    and a solved constraint, given that q's term steps to m_next."""
    return _preserve_judged(q, _solved_judgement(q), m_next)


def _preserve_judged(q: Skeleton, j: Judgement, m_next: Term) -> Skeleton:
    """preserve for a q whose judgement j is already computed, with a
    constraint known to hold under REL_F (or under REL_EQ, which is
    stronger: an atom that holds under EQ holds under F)."""
    stepped = cbv_step(j.term)
    if stepped is None or not term_alpha_eq(stepped, m_next):
        raise NotAStep("the given term is not the skeleton's one-step reduct")
    # the elaborated skeleton judges the same term as q
    return from_neq(_step_at(_elaborate(q), j.term))
