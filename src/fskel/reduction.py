"""Call-by-value reduction, explicit subtyping proofs, the head-exposing
transformation T with its size measure, and the constructive
subject-reduction engine.

The engine works on skeletons whose |> carry their subtyping proofs, and
reads types modulo the equational theory (alpha, reordering of adjacent
quantifiers, dummy quantifiers), as check_neq does: it keeps a
judgement's environment and type up to that theory, not literally. An
application's function part may have any type equal to an arrow."""

from __future__ import annotations

from .syntax import (
    NEQ_SELF, NEQ_UNSET, Abs, App, Arrow, EVarApp, Forall, Node, QAbs, QApp, QEVar,
    QForall, QSub, QVar, QWeak, Skeleton, Subst, TVar, Term, Type, TypeEnv, Var,
    as_arrow, env_eq, fresh_name, ftv, fv, term_alpha_eq, type_eq,
)
from .expansion import _Image, apply_subst
from .solve import REL_F, leq_f_witness, record_solved
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
    cls = type(m)
    if cls is Var:
        return v if m.name == x else m
    if cls is App:
        return App(subst_term(x, v, m.fun), subst_term(x, v, m.arg))
    if cls is Abs:
        y, body = m.binder, m.body
        if y == x:
            return m
        if y in fv(v) and x in fv(body):
            y2 = fresh_name(y, fv(v) | fv(body) | {x})
            body = subst_term(y, Var(y2), body)
            y = y2
        return Abs(y, subst_term(x, v, body))
    raise TypeError(m)


def is_value(m: Term) -> bool:
    return isinstance(m, (Var, Abs))


def cbv_step(m: Term) -> Term | None:
    """One small step of call-by-value evaluation, or None."""
    if type(m) is not App:
        return None
    f, a = m.fun, m.arg
    if type(f) is Abs and (type(a) is Var or type(a) is Abs):
        return subst_term(f.binder, a, f.body)
    f2 = cbv_step(f)
    if f2 is not None:
        return App(f2, a)
    if type(f) is Var or type(f) is Abs:
        a2 = cbv_step(a)
        if a2 is not None:
            return App(f, a2)
    return None


# ---------------------------------------------------------------------------
# Subtyping proof skeletons


class SubtypeSkeleton(Node, final=False):
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
# Skeletons whose |> carry their proofs
#
# Elaboration settles each |> of a skeleton with an Inst proof, which the
# QSub keeps in its `_proof` slot, and gives back the skeleton normalized:
# each redundant |> dropped, each target replaced by its proof's end. A
# step works on that skeleton and builds its reduct as skeleton nodes, each
# |> carrying its proof, so the reduct needs no flattening.

# Only the benchmark's probe still reads the names of the proof-carrying
# classes that these replaced.
NVar, NAbs, NApp = QVar, QAbs, QApp

_set_neq = Skeleton._neq.__set__
_set_proof = QSub._proof.__set__


def proved(body: Skeleton, proof: SubtypeSkeleton) -> QSub:
    """body |> the type proof ends at, carrying proof."""
    n = QSub(body, check_subproof(proof)[1])
    _set_proof(n, proof)
    return n


def _resub(body: Skeleton, old: QSub) -> QSub:
    """old's |> over body, a node a step built at a type equal to old's
    body's: old's target and proof, and its own form when old and body
    are theirs (settling the pair again would give the same proof)."""
    n = QSub(body, old.target)
    _set_proof(n, old._proof)
    if old._neq is NEQ_SELF and body._neq is NEQ_SELF:
        _set_neq(n, NEQ_SELF)
    return n


def _kept(n: Skeleton) -> Skeleton:
    """n, a QAbs, QForall or QEVar a step or elaboration built: its own form
    when its body is."""
    if n.body._neq is NEQ_SELF:
        _set_neq(n, NEQ_SELF)
    return n


def _app(f: Skeleton, a: Skeleton) -> QApp:
    """f @ a, its own form when both parts are."""
    n = QApp(f, a)
    if f._neq is NEQ_SELF and a._neq is NEQ_SELF:
        _set_neq(n, NEQ_SELF)
    return n


class NeqError(Exception):
    """A proof-carrying skeleton violates its typing rules."""


def check_neq(q: Skeleton) -> tuple[Term, TypeEnv, Type]:
    """Validate a skeleton by the proofs its |> carry and return its
    judgement: each |> must carry a proof that starts at its body's type
    and ends at its target. It reads no judgement and builds no
    constraint, so it is independent of the typing pass."""
    match q:
        case QVar(x, env):
            if not env.well_formed():
                raise NeqError(f"environment of {x} mentions a variable twice")
            t = env.lookup(x)
            if t is None:
                raise NeqError(f"{x} not in its environment")
            return Var(x), env, t
        case QAbs(x, body):
            m, env, t = check_neq(body)
            dom = env.lookup(x)
            if dom is None:
                raise NeqError(f"abstraction binder {x} not in the body environment")
            return Abs(x, m), env.remove(x), Arrow(dom, t)
        case QApp(f, a):
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
        case QForall(a, body):
            m, env, t = check_neq(body)
            if a in ftv(env):
                raise NeqError(f"{a} is free in the environment")
            return m, env, Forall(a, t)
        case QEVar(s, forbidden, body):
            m, env, t = check_neq(body)
            if not ftv(env) <= forbidden:
                raise NeqError(f"{s}: forbidden set too small")
            return m, env, EVarApp(s, forbidden, t)
        case QSub(body, target):
            m, env, t = check_neq(body)
            proof = q._proof
            if proof is None:
                raise NeqError("subtyping step carries no proof")
            t1, t2, _ = check_subproof(proof)
            if not type_eq(t, t1):
                raise NeqError("proof does not start at the skeleton's type")
            if t2 != target:
                raise NeqError("proof does not end at the step's target")
            return m, env, target
    raise TypeError(q)


# ---------------------------------------------------------------------------
# Size measure


def sz(q: Skeleton) -> int:
    match q:
        case QVar(_, _):
            return 2
        case QAbs(_, _):
            return 1
        case QApp(f, a):
            return 1 + sz(f) + sz(a)
        case QForall(_, body) | QEVar(_, _, body):
            return 1 + sz(body)
        case QSub(body, _):
            return _step_size(q._proof) + sz(body)
    raise TypeError(q)


def _step_size(p: SubtypeSkeleton) -> int:
    """What a |> with proof p adds to the size of its body."""
    match p:
        case Inst(_, _) | QuantComm(_) | DummyElim(_, _) | FunCong(_, _):
            return 1
        case DummyIn(_, _):
            return 2
        case QuantCong(_, inner):
            return 1 + _step_size(inner)
        case EVarCong(_, _, inner):
            return 2 + _step_size(inner)
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Type-variable substitution into proof-carrying skeletons and proofs


def subst_neq(a: str, x: Type, q: Skeleton | SubtypeSkeleton | Type):
    """Capture-avoiding substitution of type x for variable a in a
    proof-carrying skeleton, a subtyping proof or a type. It walks q with
    one expansion._Image per scope, which maps every type, environment and
    forbidden set once, and gives each |> the proof mapped and the target
    that proof ends at. Every type binder (QForall, QuantCong, DummyIn,
    DummyElim) is crossed by _Image._binder, the rule apply_subst follows."""
    return _subst(_Image(Subst(((a, x),))), q)


def _subst(image: _Image, n):
    """n, a proof-carrying skeleton, a subtyping proof or a type, mapped by
    image."""
    if isinstance(n, Type):
        return image.of_type(n)
    cls = type(n)
    if cls is QAbs:
        return QAbs(n.binder, _subst(image, n.body))
    if cls is QVar:
        return QVar(n.var, image.of_env(n.env))
    if cls is QForall or cls is QuantCong or cls is DummyIn or cls is DummyElim:
        scope = n.proof if cls is QuantCong else n.body
        b, image = image._binder(n.binder if cls is QForall else n.var, scope, _free)
        return n if not image.phi.bindings else cls(b, _subst(image, scope))
    if cls is QApp:
        return QApp(_subst(image, n.fun), _subst(image, n.arg))
    if cls is QSub:
        return proved(_subst(image, n.body), _subst(image, n._proof))
    if cls is Inst:
        return Inst(_subst(image, n.source), _subst(image, n.arg))
    if cls is FunCong:
        return FunCong(_subst(image, n.dom_proof), _subst(image, n.cod_proof))
    if cls is QEVar:
        return QEVar(n.evar, image.of_set(n.forbidden), _subst(image, n.body))
    if cls is EVarCong:
        return EVarCong(n.evar, image.of_set(n.forbidden), _subst(image, n.proof))
    if cls is QuantComm:
        return QuantComm(image.of_type(n.source))
    raise TypeError(n)


def _free(n) -> frozenset[str]:
    """The type variables free in a proof-carrying skeleton, a subtyping
    proof or a type: the scope's free variables a renamed binder avoids."""
    match n:
        case QVar(_, env):
            return ftv(env)
        case QAbs(_, body):
            return _free(body)
        case QSub(body, _):
            return _free(body) | _free(n._proof)
        case QApp(left, right) | FunCong(left, right) | Inst(left, right):
            return _free(left) | _free(right)
        case QEVar(_, forbidden, body) | EVarCong(_, forbidden, body):
            return forbidden | _free(body)
        case QForall(b, scope) | QuantCong(b, scope):
            return _free(scope) - {b}
        case DummyIn(_, t) | DummyElim(_, t) | QuantComm(t):
            return ftv(t)
        case Type():
            return ftv(n)
    raise TypeError(n)


# ---------------------------------------------------------------------------
# The transformation T


def transform_T(q: Skeleton) -> Skeleton:
    """Expose the head constructor matching the result type of an
    abstraction's skeleton, preserving its judgement modulo the equational
    theory; never increases sz. A step whose two ends are equal (an
    equality proof, an Inst of a dummy binder) is dropped. An Inst or a
    QuantCong is pushed into the QForall block of its body, at the binder
    whose instantiation gives the proof's end modulo the theory. Reads
    the proof each |> carries; a node T leaves as it was is given back."""
    cls = type(q)
    if cls is QAbs or cls is QVar or cls is QApp or cls is QEVar:
        return q
    if cls is QSub:
        t = transform_T(q.body)
        proof = q._proof
        if proof is None:
            raise TypeError(f"{q!r} carries no proof: elaborate it first")
        if not _regular(proof):
            return t
        if type(proof) is Inst:  # a regular Inst's source is a Forall
            a, t1, x = proof.source.binder, proof.source.body, proof.arg
            end = subst_neq(a, x, t1)
            for b, rest, t_rest in _splits(t):
                if type_eq(subst_neq(b, x, t_rest), end):
                    return transform_T(subst_neq(b, x, rest))
        else:  # a QuantCong
            a, inner = proof.var, proof.proof
            s1, s2, _ = check_subproof(inner)
            for b, rest, t_rest in _splits(t):
                # b takes a's place; it must not capture a variable of s2
                if ((b == a or b not in ftv(s2))
                        and type_eq(t_rest, subst_neq(a, TVar(b), s1))):
                    inner_b = subst_neq(a, TVar(b), inner)
                    return QForall(b, transform_T(proved(rest, inner_b)))
        return q if t is q.body else _resub(t, q)
    if cls is QForall:
        body = transform_T(q.body)
        return q if body is q.body else _kept(QForall(q.binder, body))
    raise TypeError(q)


def _regular(p: SubtypeSkeleton) -> bool:
    """Whether p may relate two types that are not equal: only an Inst of a
    binder free in its body, under QuantCongs, may."""
    while isinstance(p, QuantCong):
        p = p.proof
    return isinstance(p, Inst) and p.source.binder in ftv(p.source.body)


def _splits(t: Skeleton):
    """For each binder b of t's leading QForall block, outermost first: b,
    the block without b (so b is free in it) and that block's type, built
    on the type check_skeleton gives the block's body (it judges only the
    nodes a step or T built since)."""
    block = []
    while type(t) is QForall:
        block.append(t.binder)
        t = t.body
    if not block:
        return
    t_core = check_skeleton(t).rtype
    for i, b in enumerate(block):
        rest, t_rest = t, t_core
        for c in reversed(block[:i] + block[i + 1:]):
            rest, t_rest = QForall(c, rest), Forall(c, t_rest)
        yield b, rest, t_rest


# ---------------------------------------------------------------------------
# Elaboration


def _sub_step(t: Type, target: Type) -> tuple[Inst | None, Type | None]:
    """The Inst proof of t <= target and the type it ends at ((None, None)
    when the two are equal; NotSolved when leq_f rejects the pair). Only
    the canonical form and the free variables of t count, so any type equal
    to t gives the same proof."""
    if type_eq(t, target):
        return None, None
    w = leq_f_witness(t, target)
    if w is None:
        raise NotSolved("constraint does not hold under quantifier elimination")
    a, rest, x = w
    proof = Inst(Forall(a, rest), x)
    return proof, check_subproof(proof)[1]


def _elaborate(q: Skeleton) -> Skeleton:
    """The proof-carrying form of a checked q: q with each redundant |>
    dropped and each other |> settled with an Inst proof, its target
    replaced by the type that proof ends at. Each node keeps its form (None
    below a weakening, which has none), so a subtree elaborated before, or
    built by a step as its own form, costs one lookup; each distinct
    subtyping step (t, target) met in this call is settled once. A node
    that is its own form is given back; a node is built only above a
    dropped or retargeted |>. A weakening raises NestedWeakening after
    every atom is decided."""
    settled: dict[tuple[Type, Type], tuple[Inst | None, Type | None]] = {}  # this call only

    def go(q: Skeleton) -> Skeleton | None:
        n = q._neq
        if n is not NEQ_UNSET:
            return q if n is NEQ_SELF else n
        cls = type(q)
        if cls is QApp:
            f, a = q.fun, q.arg
            nf, na = go(f), go(a)
            if nf is None or na is None:
                n = None
            else:
                n = q if nf is f and na is a else _app(nf, na)
        elif cls is QVar:
            n = q
        elif cls is QSub:
            body, target = q.body, q.target
            nb = go(body)
            key = body._judgement.rtype, target
            step = settled.get(key)
            if step is None:
                step = settled[key] = _sub_step(*key)
            proof, end = step
            if proof is None or nb is None:
                n = nb  # a redundant step is dropped
            elif nb is body and end is target and q._proof in (None, proof):
                if q._proof is None:
                    _set_proof(q, proof)
                n = q
            else:
                # a |> whose proof ends elsewhere is settled again from
                # that end the next time, so it is not its own form
                n = QSub(nb, end)
                _set_proof(n, proof)
                if end is target and nb._neq is NEQ_SELF:
                    _set_neq(n, NEQ_SELF)
        elif cls is QAbs or cls is QForall or cls is QEVar:
            body = q.body
            nb = go(body)
            if nb is None or nb is body:
                n = None if nb is None else q
            elif cls is QAbs:
                n = _kept(QAbs(q.binder, nb))
            elif cls is QForall:
                n = _kept(QForall(q.binder, nb))
            else:
                n = _kept(QEVar(q.evar, q.forbidden, nb))
        elif cls is QWeak:
            go(q.body)
            n = None
        else:
            raise TypeError(q)
        _set_neq(q, NEQ_SELF if n is q else n)
        return n

    n = go(q)
    if n is None:
        raise NestedWeakening("cannot reduce under a weakening below the root")
    return n


def to_neq(q: Skeleton) -> Skeleton:
    """Elaborate a valid skeleton with a solved constraint into its
    proof-carrying form (weakening-free skeletons only; a weakening raises
    NestedWeakening). Types and elaborates only the nodes that hold no
    judgement or form yet; elaboration decides each distinct subtyping atom
    of those once under REL_F, canonicalizing each side once, and raises
    NotSolved on the first that fails."""
    check_skeleton(q)
    return _elaborate(q)


def from_neq(q: Skeleton) -> Skeleton:
    """q: a stepped skeleton needs no flattening (only the benchmark's
    probe still calls this)."""
    return q


# ---------------------------------------------------------------------------
# Subject reduction


def _term_names(q: Skeleton, known: dict[int, frozenset[str]]) -> frozenset[str]:
    """Every term-variable name occurring in q: leaf names, binders, and
    environment entries. known holds the sets found so far, by node id, so
    each node's set is computed once, from its children's."""
    names = known.get(id(q))
    if names is not None:
        return names
    cls = type(q)
    if cls is QAbs:
        names = frozenset({q.binder}) | _term_names(q.body, known)
    elif cls is QVar:
        names = frozenset({q.var}) | q.env.supp()
    elif cls is QForall or cls is QSub or cls is QEVar:
        names = _term_names(q.body, known)
    elif cls is QApp:
        names = _term_names(q.fun, known) | _term_names(q.arg, known)
    else:
        raise TypeError(q)
    known[id(q)] = names
    return names


def _extend_envs(q: Skeleton, extras: list[tuple[str, Type]]) -> Skeleton:
    """Pointwise-extend every environment in q by the given entries, whose
    names subst_redex has renamed away from every name of q."""
    if not extras:
        return q
    cls = type(q)
    if cls is QAbs:
        return _kept(QAbs(q.binder, _extend_envs(q.body, extras)))
    if cls is QVar:
        n = QVar(q.var, TypeEnv(q.env.entries + tuple(extras)))
        _set_neq(n, NEQ_SELF)  # a variable is its own form
        return n
    if cls is QForall:
        return _kept(QForall(q.binder, _extend_envs(q.body, extras)))
    if cls is QApp:
        return _app(_extend_envs(q.fun, extras), _extend_envs(q.arg, extras))
    if cls is QEVar:
        s, forbidden = q.evar, q.forbidden
        grown = frozenset().union(*[ftv(t) for _, t in extras])
        if not grown <= forbidden:
            raise NotAStep(
                f"{s}: forbidden set too small for the substituted environment")
        return _kept(QEVar(s, forbidden, _extend_envs(q.body, extras)))
    if cls is QSub:
        return _resub(_extend_envs(q.body, extras), q)
    raise TypeError(q)


def subst_redex(body: Skeleton, x: str, arg: Skeleton) -> Skeleton:
    """Substitute the argument skeleton for the bound variable x in the
    abstraction body's skeleton. At each occurrence of x, the argument's
    environments are extended with the binders crossed above it, typed as in
    that occurrence's own environment. A crossed binder that clashes with a
    name of the argument is renamed on the way down, away from every name
    below it and every name given before. The argument's names are gathered
    at the first abstraction crossed: no other node reads them."""

    known: dict[int, frozenset[str]] = {}  # the nodes below live as long as this call
    arg_names: frozenset[str] | None = None

    def go(q: Skeleton, crossed: tuple[str, ...], ren: dict[str, str]) -> Skeleton:
        nonlocal arg_names
        cls = type(q)
        if cls is QVar:
            y, env = q.var, q.env
            if y == x:
                return _extend_envs(arg, [(ren.get(c, c), env.lookup(c)) for c in crossed])
            n = QVar(ren.get(y, y), TypeEnv(tuple(
                (ren.get(z, z), t) for z, t in env.entries if z != x)))
            _set_neq(n, NEQ_SELF)  # a variable is its own form
            return n
        if cls is QApp:
            return _app(go(q.fun, crossed, ren), go(q.arg, crossed, ren))
        if cls is QSub:
            return _resub(go(q.body, crossed, ren), q)
        if cls is QAbs:
            y, body = q.binder, q.body
            if arg_names is None:
                arg_names = _term_names(arg, known)
            if y in arg_names:
                # body's environments hold x and every binder crossed
                # before, under its old name; the new names are added
                ren = {**ren, y: fresh_name(
                    y, arg_names | _term_names(body, known) | set(ren.values()))}
            return _kept(QAbs(ren.get(y, y), go(body, crossed + (y,), ren)))
        if cls is QForall:
            return _kept(QForall(q.binder, go(q.body, crossed, ren)))
        if cls is QEVar:
            return _kept(QEVar(q.evar, q.forbidden, go(q.body, crossed, ren)))
        raise TypeError(q)

    return go(body, (), {})


def _expose_abs(n: Skeleton) -> QAbs:
    """The abstraction a function part judging an abstraction transforms
    to. Its type equals an arrow, so the QForalls T leaves above it are
    dummies."""
    n = transform_T(n)
    while type(n) is QForall:
        n = n.body
    if type(n) is not QAbs:
        raise TypeError(n)
    return n


def step_neq(n: Skeleton) -> Skeleton:
    """One call-by-value step on a proof-carrying skeleton's term, once
    check_neq accepts it (only the benchmark's probe and the tests step a
    skeleton that preserve did not elaborate)."""
    check_neq(n)
    return _step_at(n)


def _core(n: Skeleton) -> Skeleton:
    """n below the nodes that keep its term: a QVar, QAbs or QApp, so n's
    term is a value unless its core is a QApp."""
    cls = type(n)
    while cls is QSub or cls is QForall or cls is QEVar:
        n = n.body
        cls = type(n)
    return n


def _step_at(n: Skeleton) -> Skeleton:
    """Step a valid proof-carrying n at the call-by-value redex of its term,
    found on n itself; NotAStep when the term is a normal form. Rebuilds
    the path to the redex once, each |> on it keeping its target and proof,
    and shares every subtree off the path with n. A node built is marked as
    its own form when its parts are and, for a |>, when the |> it copies
    was, so the next elaboration enters none of those."""
    cls = type(n)
    if cls is QApp:
        f, a = n.fun, n.arg
        core = type(_core(f))
        if core is QApp:
            return _app(_step_at(f), a)
        if type(_core(a)) is QApp:
            return _app(f, _step_at(a))
        if core is QAbs:
            exposed = _expose_abs(f)
            return subst_redex(exposed.body, exposed.binder, a)
    elif cls is QForall:
        return _kept(QForall(n.binder, _step_at(n.body)))
    elif cls is QEVar:
        return _kept(QEVar(n.evar, n.forbidden, _step_at(n.body)))
    elif cls is QSub:
        return _resub(_step_at(n.body), n)
    raise NotAStep("the skeleton's term is not reducible")


def _certify(q: Skeleton) -> None:
    """NotSolved unless each |> of a judged reduct that is not its own form
    carries an Inst proof whose source is equal to its body's judged type,
    which makes its atom one quantifier elimination. Enters only the nodes
    that are not their own form: those above such a |>, and the nodes
    elaboration built above a retargeted one."""
    todo = [q]
    while todo:
        n = todo.pop()
        if n._neq is NEQ_SELF:
            continue
        cls = type(n)
        if cls is QApp:
            todo += (n.fun, n.arg)
        elif cls is QSub:
            p = n._proof
            if type(p) is not Inst or not type_eq(n.body._judgement.rtype, p.source):
                raise NotSolved("a rebuilt subtyping step is not certified by its proof")
            todo.append(n.body)
        elif cls is QAbs or cls is QForall or cls is QEVar:
            todo.append(n.body)
        elif cls is not QVar:
            raise TypeError(n)


def preserve(q: Skeleton, m_next: Term) -> Skeleton:
    """A valid skeleton for m_next with the same environment and result type
    and a solved constraint, given that q's term steps to m_next. Types and
    elaborates only the nodes of q that hold no judgement or form yet (for a
    skeleton returned by preserve and then checked, none): elaboration
    decides each distinct subtyping atom of those once under REL_F,
    canonicalizing each side once, and raises NotSolved on the first that
    fails, before NestedWeakening and NotAStep. The step finds the redex on
    the elaborated skeleton and rebuilds the path to it once; the nodes it
    builds are the reduct, each |> carrying its proof, and each node that
    elaborating would give back unchanged is marked so, so the next step
    elaborates none of those. The reduct is judged once and its term
    compared with m_next. The result shares every subtree off the path to
    the redex with q, so that judgement types only the rebuilt path and
    the contractum.

    The reduct's constraint holds under REL_F by construction, and preserve
    records it so, in every constraint node not yet marked, once the
    certificate of each |> that is not its own form is checked (else
    NotSolved, and nothing is marked): its proof is an Inst whose source is
    equal to the body's judged type. Every other atom was decided under F
    when elaboration entered q or an earlier skeleton, for a pair of types
    equal to this one's. So solve.solved(j.constraint, REL_F) on the
    reduct enters no node; under any other relation it decides as before."""
    check_skeleton(q)
    extras: list[TypeEnv] = []
    while type(q) is QWeak:
        extras.append(q.extra)
        q = q.body
    # stepping keeps the elaborated skeleton's environment, so the same
    # weakenings apply to the result
    stepped = out = _step_at(_elaborate(q))
    for extra in reversed(extras):
        out = QWeak(out, extra)
    j = check_skeleton(out)
    _certify(stepped)
    if not term_alpha_eq(j.term, m_next):
        raise NotAStep("the given term is not the skeleton's one-step reduct")
    record_solved(j.constraint, REL_F)
    return out
