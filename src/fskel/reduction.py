"""Call-by-value reduction, explicit subtyping-proof skeletons, the
head-exposing transformation T with its size measure, and the constructive
subject-reduction engine.

The engine reads types modulo the equational theory (alpha, reordering of
adjacent quantifiers, dummy quantifiers), as check_neq does: it keeps a
judgement's environment and type up to that theory, not literally. An
application's function part may have any type equal to an arrow."""

from __future__ import annotations

import weakref

from .syntax import (
    Abs, App, Arrow, EVarApp, Forall, Node, QAbs, QApp, QEVar, QForall, QSub,
    QVar, QWeak, Skeleton, Subst, TVar, Term, Type, TypeEnv, Var, as_arrow, env_eq,
    fresh_name, ftv, fv, term_alpha_eq, type_eq,
)
from .expansion import apply_subst
from .solve import leq_f_witness
from .typecheck import check_skeleton


class NotSolved(Exception):
    """The skeleton's constraint does not hold in the subtyping relation."""


class NotAStep(Exception):
    """The given term is not the reduct of the skeleton's term."""


class NestedWeakening(Exception):
    """A weakening below the root of a skeleton, which has no proof-carrying
    form: the engine steps weakening-free skeletons under root weakenings."""


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


class SubtypeSkeleton(Node):
    """Proof term for one subtyping judgement."""

    __slots__ = ()


class Inst(SubtypeSkeleton):
    """Quantifier elimination: all a. t <= t[a := arg]"""

    __slots__ = ("source", "arg")  # source is structurally a Forall


class QuantComm(SubtypeSkeleton):
    """Swap of two adjacent quantifiers."""

    __slots__ = ("source",)  # structurally Forall(a1, Forall(a2, _))


class DummyIn(SubtypeSkeleton):
    """Introduction of a dummy quantifier: t <= all a. t"""

    __slots__ = ("var", "body")


class DummyElim(SubtypeSkeleton):
    """Elimination of a dummy quantifier: all a. t <= t"""

    __slots__ = ("var", "body")


class FunCong(SubtypeSkeleton):
    """Congruence under an arrow (contravariant domain)."""

    __slots__ = ("dom_proof", "cod_proof")


class EVarCong(SubtypeSkeleton):
    """Congruence under an E-variable application."""

    __slots__ = ("evar", "forbidden", "proof")


class QuantCong(SubtypeSkeleton):
    """Congruence under a quantifier."""

    __slots__ = ("var", "proof")


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


# ---------------------------------------------------------------------------
# Skeletons with explicit subtyping proofs


class NeqSkeleton(Node):
    """Skeleton whose subtyping steps carry explicit proofs. Its memo slots
    hold a weak reference to the skeleton that from_neq would rebuild
    exactly from this node, when the node was elaborated from it or
    flattened to it, and, on an NSub whose proof elaboration settled to
    end at its literal target, the type the proof was settled from."""

    __slots__ = ("_source", "_settled")


class NVar(NeqSkeleton):
    __slots__ = ("var", "env")


class NAbs(NeqSkeleton):
    __slots__ = ("binder", "body")


class NApp(NeqSkeleton):
    __slots__ = ("fun", "arg")


class NForall(NeqSkeleton):
    __slots__ = ("binder", "body")


class NEVar(NeqSkeleton):
    __slots__ = ("evar", "forbidden", "body")


class NSub(NeqSkeleton):
    __slots__ = ("body", "proof")


class NEnvSub(NeqSkeleton):
    __slots__ = ("body", "var", "proof")  # proof: new type <= old type (an equality)


class NeqError(Exception):
    """A proof-carrying skeleton violates its typing rules."""


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
            arr = as_arrow(t1)
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
            return Inst(_subst_type(a, x, src), _subst_type(a, x, arg))
        case QuantComm(src):
            return QuantComm(_subst_type(a, x, src))
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
    abstraction's skeleton, preserving its judgement modulo the equational
    theory; never increases sz. A step whose two ends are equal (an equality
    proof, an Inst of a dummy binder, any NEnvSub) is dropped. An Inst or a
    QuantCong is pushed into the NForall block of its body, at the binder
    whose instantiation gives the proof's end modulo the theory."""
    match q:
        case NVar(_, _) | NAbs(_, _) | NApp(_, _) | NEVar(_, _, _):
            return q
        case NForall(a, body):
            return NForall(a, transform_T(body))
        case NEnvSub(body, _, _):
            return transform_T(body)
        case NSub(body, proof):
            t = transform_T(body)
            if not _regular(proof):
                return t
            match proof:
                case Inst(Forall(a, t1), x):
                    end = _subst_type(a, x, t1)
                    for b, rest, t_rest in _splits(t):
                        if type_eq(_subst_type(b, x, t_rest), end):
                            return transform_T(subst_neq(b, x, rest))
                case QuantCong(a, inner):
                    s1, s2, _ = check_subproof(inner)
                    for b, rest, t_rest in _splits(t):
                        # b takes a's place; it must not capture a variable of s2
                        if ((b == a or b not in ftv(s2))
                                and type_eq(t_rest, _subst_type(a, TVar(b), s1))):
                            inner_b = subst_proof(a, TVar(b), inner)
                            return NForall(b, transform_T(NSub(rest, inner_b)))
            return NSub(t, proof)
    raise TypeError(q)


def _regular(p: SubtypeSkeleton) -> bool:
    """Whether p may relate two types that are not equal: only an Inst of a
    binder free in its body, under QuantCongs, may."""
    while isinstance(p, QuantCong):
        p = p.proof
    return isinstance(p, Inst) and p.source.binder in ftv(p.source.body)


def _splits(t: NeqSkeleton):
    """For each binder b of t's leading NForall block, outermost first: b,
    the block without b (so b is free in it) and that block's type."""
    block = []
    while isinstance(t, NForall):
        block.append(t.binder)
        t = t.body
    if not block:
        return
    t_core = _neq_type(t)
    for i, b in enumerate(block):
        rest, t_rest = t, t_core
        for c in reversed(block[:i] + block[i + 1:]):
            rest, t_rest = NForall(c, rest), Forall(c, t_rest)
        yield b, rest, t_rest


def _neq_type(n: NeqSkeleton) -> Type:
    """n's type, read from the judgement of the skeleton n comes from when
    there is one."""
    src = _source(n)
    return check_neq(n)[2] if src is None else check_skeleton(src).rtype


# ---------------------------------------------------------------------------
# Between the two skeleton languages


def _sub_step(t: Type, target: Type) -> tuple[Inst | None, bool]:
    """The Inst proof of t <= target (None when the two are equal, NotSolved
    when leq_f rejects the pair), and whether the type that proof ends at is
    literally target (so from_neq gives the step back unchanged)."""
    if type_eq(t, target):
        return None, False
    w = leq_f_witness(t, target)
    if w is None:
        raise NotSolved("constraint does not hold under quantifier elimination")
    a, rest, x = w
    proof = Inst(Forall(a, rest), x)
    return proof, check_subproof(proof)[1] == target


_UNSET = object()  # the value of a memo slot never filled


def _source(n: NeqSkeleton) -> Skeleton | None:
    """The skeleton from_neq(n) rebuilds exactly, if n records a live one."""
    ref = getattr(n, "_source", None)
    return None if ref is None else ref()


def _sub(body: NeqSkeleton, old: NSub) -> NSub:
    """NSub(body, old.proof), for a body at a type equal to old's body's,
    keeping the type old's proof was settled from."""
    n = NSub(body, old.proof)
    t = getattr(old, "_settled", None)
    if t is not None:
        object.__setattr__(n, "_settled", t)
    return n


def _elaborate(q: Skeleton) -> NeqSkeleton:
    """The proof-carrying form of a checked q. Each node keeps its form (None
    below a weakening, which has none), so a subtree elaborated before, or
    built by a step with its form, costs one lookup; each distinct
    subtyping step (t, target) met in this call is settled once. A node
    whose form from_neq rebuilds exactly (no redundant |> dropped below it,
    every proof ending at its literal target) points back to it. A
    weakening raises NestedWeakening after every atom is decided."""
    settled: dict[tuple[Type, Type], tuple[Inst | None, bool]] = {}  # for this call only

    def go(q: Skeleton) -> NeqSkeleton | None:
        n = getattr(q, "_neq", _UNSET)
        if n is not _UNSET:
            return n
        match q:
            case QVar(x, env):
                n, linked = NVar(x, env), True
            case QAbs(x, body):
                nb = go(body)
                n, linked = None if nb is None else NAbs(x, nb), _source(nb) is body
            case QApp(f, a):
                nf, na = go(f), go(a)
                n = None if nf is None or na is None else NApp(nf, na)
                linked = _source(nf) is f and _source(na) is a
            case QForall(a, body):
                nb = go(body)
                n, linked = None if nb is None else NForall(a, nb), _source(nb) is body
            case QEVar(s, forbidden, body):
                nb = go(body)
                n = None if nb is None else NEVar(s, forbidden, nb)
                linked = _source(nb) is body
            case QSub(body, target):
                nb = go(body)
                key = body._judgement.rtype, target
                step = settled.get(key)
                if step is None:
                    step = settled[key] = _sub_step(*key)
                proof, exact = step
                if proof is None:
                    n, linked = nb, False  # the redundant step is dropped
                elif nb is None:
                    n, linked = None, False
                else:
                    n = NSub(nb, proof)
                    if exact:
                        object.__setattr__(n, "_settled", key[0])
                    linked = exact and _source(nb) is body
            case QWeak(body, _):
                go(body)
                n, linked = None, False
            case _:
                raise TypeError(q)
        if linked:
            object.__setattr__(n, "_source", weakref.ref(q))
        object.__setattr__(q, "_neq", n)
        return n

    n = go(q)
    if n is None:
        raise NestedWeakening("cannot reduce under a weakening below the root")
    return n


def to_neq(q: Skeleton) -> NeqSkeleton:
    """Elaborate a valid skeleton with a solved constraint into a
    proof-carrying one (weakening-free skeletons only; a weakening raises
    NestedWeakening). Types and elaborates only the nodes that hold no
    judgement or form yet; elaboration decides each distinct subtyping atom
    of those once under REL_F, canonicalizing each side once, and raises
    NotSolved on the first that fails."""
    check_skeleton(q)
    return _elaborate(q)


def from_neq(q: NeqSkeleton) -> Skeleton:
    """Flatten a proof-carrying skeleton back to a constraint-generating one;
    its constraint is solved by construction. An NEnvSub is dropped: its
    proof is an equality, so the environment stays the same modulo the
    equational theory. A node that records the skeleton it rebuilds
    exactly gives back that skeleton itself, so flattening a stepped form
    builds only the path to the redex and the contractum. A node built
    keeps its form, and the form points back to it, when elaborating the
    node would make that form again: when each child is linked to the same
    child of the form, and, for a |>, when its body is also judged at the
    very type the proof was settled from, since that step then settles
    again to end at its literal target. Elaborating the result so enters
    only the other rebuilt |> nodes and the nodes above them."""
    src = _source(q)
    if src is not None:
        return src
    match q:
        case NVar(x, env):
            out, linked = QVar(x, env), True
        case NAbs(x, body):
            qb = from_neq(body)
            out, linked = QAbs(x, qb), _source(body) is qb
        case NApp(f, a):
            qf, qa = from_neq(f), from_neq(a)
            out, linked = QApp(qf, qa), _source(f) is qf and _source(a) is qa
        case NForall(a, body):
            qb = from_neq(body)
            out, linked = QForall(a, qb), _source(body) is qb
        case NEVar(s, forbidden, body):
            qb = from_neq(body)
            out, linked = QEVar(s, forbidden, qb), _source(body) is qb
        case NSub(body, proof):
            qb = from_neq(body)
            out = QSub(qb, check_subproof(proof)[1])
            t = getattr(q, "_settled", None)
            linked = (t is not None and _source(body) is qb
                      and check_skeleton(qb).rtype is t)
        case NEnvSub(body, _, _):
            return from_neq(body)
        case _:
            raise TypeError(q)
    if linked:
        object.__setattr__(out, "_neq", q)
        object.__setattr__(q, "_source", weakref.ref(out))
    return out


# ---------------------------------------------------------------------------
# Subject reduction


def _term_names(q: NeqSkeleton, known: dict[int, frozenset[str]]) -> frozenset[str]:
    """Every term-variable name occurring in q: leaf names, binders, and
    environment entries. known holds the sets found so far, by node id, so
    each node's set is computed once, from its children's."""
    names = known.get(id(q))
    if names is not None:
        return names
    match q:
        case NVar(x, env):
            names = frozenset({x}) | env.supp()
        case NAbs(x, body):
            names = frozenset({x}) | _term_names(body, known)
        case NApp(f, a):
            names = _term_names(f, known) | _term_names(a, known)
        case NForall(_, body) | NEVar(_, _, body) | NSub(body, _) | NEnvSub(body, _, _):
            names = _term_names(body, known)
        case _:
            raise TypeError(q)
    known[id(q)] = names
    return names


def _extend_envs(q: NeqSkeleton, extras: list[tuple[str, Type]]) -> NeqSkeleton:
    """Pointwise-extend every environment in q by the given entries, whose
    names subst_redex has renamed away from every name of q."""
    if not extras:
        return q
    match q:
        case NVar(x, env):
            return NVar(x, TypeEnv(env.entries + tuple(extras)))
        case NAbs(x, body):
            return NAbs(x, _extend_envs(body, extras))
        case NApp(f, a):
            return NApp(_extend_envs(f, extras), _extend_envs(a, extras))
        case NForall(a, body):
            return NForall(a, _extend_envs(body, extras))
        case NEVar(s, forbidden, body):
            grown = frozenset().union(*[ftv(t) for _, t in extras])
            if not grown <= forbidden:
                raise NotAStep(
                    f"{s}: forbidden set too small for the substituted environment")
            return NEVar(s, forbidden, _extend_envs(body, extras))
        case NSub(body, _):
            return _sub(_extend_envs(body, extras), q)
        case NEnvSub(body, y, proof):
            return NEnvSub(_extend_envs(body, extras), y, proof)
    raise TypeError(q)


def subst_redex(body: NeqSkeleton, x: str, arg: NeqSkeleton) -> NeqSkeleton:
    """Substitute the argument skeleton for the bound variable x in the
    abstraction body's skeleton. At each occurrence of x, the argument's
    environments are extended with the binders crossed above it, typed as in
    that occurrence's own environment. A crossed binder that clashes with a
    name of the argument is renamed on the way down, away from every name
    below it and every name given before. An NEnvSub is dropped, as from_neq
    drops it."""

    known: dict[int, frozenset[str]] = {}  # the nodes below live as long as this call
    arg_names = _term_names(arg, known)

    def go(q: NeqSkeleton, crossed: tuple[str, ...], ren: dict[str, str]) -> NeqSkeleton:
        match q:
            case NVar(y, env):
                if y == x:
                    return _extend_envs(arg, [(ren.get(c, c), env.lookup(c)) for c in crossed])
                return NVar(ren.get(y, y), TypeEnv(tuple(
                    (ren.get(z, z), t) for z, t in env.entries if z != x)))
            case NAbs(y, body):
                if y in arg_names:
                    # body's environments hold x and every binder crossed
                    # before, under its old name; the new names are added
                    ren = {**ren, y: fresh_name(
                        y, arg_names | _term_names(body, known) | set(ren.values()))}
                return NAbs(ren.get(y, y), go(body, crossed + (y,), ren))
            case NApp(f, a):
                return NApp(go(f, crossed, ren), go(a, crossed, ren))
            case NForall(a, body):
                return NForall(a, go(body, crossed, ren))
            case NEVar(s, forbidden, body):
                return NEVar(s, forbidden, go(body, crossed, ren))
            case NSub(body, _):
                return _sub(go(body, crossed, ren), q)
            case NEnvSub(body, _, _):
                return go(body, crossed, ren)
        raise TypeError(q)

    return go(body, (), {})


def _expose_abs(n: NeqSkeleton) -> NeqSkeleton:
    """The abstraction a function part judging an abstraction transforms
    to. Its type equals an arrow, so the NForalls T leaves above it are
    dummies."""
    n = transform_T(n)
    while isinstance(n, NForall):
        n = n.body
    if not isinstance(n, NAbs):
        raise TypeError(n)
    return n


def step_neq(n: NeqSkeleton) -> NeqSkeleton:
    """One call-by-value step on the proof-carrying skeleton's term. It
    builds proof-carrying nodes only: no skeleton is flattened."""
    check_neq(n)
    return _step_at(n)


def _core(n: NeqSkeleton) -> NeqSkeleton:
    """n below the nodes that keep its term: an NVar, NAbs or NApp, so n's
    term is a value unless its core is an NApp."""
    while isinstance(n, (NForall, NEVar, NSub, NEnvSub)):
        n = n.body
    return n


def _step_at(n: NeqSkeleton) -> NeqSkeleton:
    """Step a valid n at the call-by-value redex of its term, found on n
    itself; NotAStep when the term is a normal form. Rebuilds the path to
    the redex once, each |> on it keeping the type its proof was settled
    from, and shares every subtree off the path with n; from_neq turns the
    result into a skeleton, giving each of those subtrees back as the
    skeleton it was elaborated from."""
    match n:
        case NForall(a, body):
            return NForall(a, _step_at(body))
        case NEVar(s, forbidden, body):
            return NEVar(s, forbidden, _step_at(body))
        case NSub(body, _):
            return _sub(_step_at(body), n)
        case NEnvSub(body, _, _):
            return _step_at(body)
        case NApp(f, a) if isinstance(_core(f), NApp):
            return NApp(_step_at(f), a)
        case NApp(f, a) if isinstance(_core(a), NApp):
            return NApp(f, _step_at(a))
        case NApp(f, a) if isinstance(_core(f), NAbs):
            exposed = _expose_abs(f)
            return subst_redex(exposed.body, exposed.binder, a)
    raise NotAStep("the skeleton's term is not reducible")


def preserve(q: Skeleton, m_next: Term) -> Skeleton:
    """A valid skeleton for m_next with the same environment and result type
    and a solved constraint, given that q's term steps to m_next. Types and
    elaborates only the nodes of q that hold no judgement or form yet (for a
    skeleton returned by preserve and then checked, none): elaboration
    decides each distinct subtyping atom of those once under REL_F,
    canonicalizing each side once, and raises NotSolved on the first that
    fails, before NestedWeakening and NotAStep. The step finds the redex on
    the elaborated skeleton and rebuilds the path to it once as
    proof-carrying nodes; from_neq flattens that, building skeleton nodes
    only for the path and the contractum, each keeping its form wherever
    elaborating it would make that form again, so the next step
    elaborates none of those. The reduct is judged once and its term
    compared with m_next. The result shares every subtree off the path to
    the redex with q, so that judgement types only the rebuilt path and
    the contractum."""
    check_skeleton(q)
    extras: list[TypeEnv] = []
    while isinstance(q, QWeak):
        extras.append(q.extra)
        q = q.body
    # stepping keeps the elaborated skeleton's environment, so the same
    # weakenings apply to the result
    out = from_neq(_step_at(_elaborate(q)))
    for extra in reversed(extras):
        out = QWeak(out, extra)
    if not term_alpha_eq(check_skeleton(out).term, m_next):
        raise NotAStep("the given term is not the skeleton's one-step reduct")
    return out
