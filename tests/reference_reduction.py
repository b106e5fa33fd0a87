"""A reference subject-reduction engine: the two-language engine that
fskel.reduction used before a step worked on skeletons whose |> carry
their proofs, kept as an oracle for it.

It is the old module, unchanged but for its imports and its two weak
references. It elaborates a skeleton into separate proof-carrying classes
(NVar, NAbs, NApp, NForall, NEVar, NSub, NEnvSub), steps that form, and
flattens the result back with from_neq. It shares no code with
fskel.reduction and raises exceptions of its own, with the same messages.
Skeleton nodes no longer take weak references, so a form refers back to
the skeleton it was elaborated from or flattened to by a strong one
(_ref); the two then form a cycle, which the garbage collector frees.

It keeps its forms in the skeletons' `_neq` slots, whose values the
current engine reads differently: run the two on separate parses.
"""

from __future__ import annotations

from fskel.syntax import (
    NEQ_UNSET, Abs, App, Arrow, EVarApp, Forall, Node, QAbs, QApp, QEVar, QForall,
    QSub, QVar, QWeak, Skeleton, Subst, TVar, Term, Type, TypeEnv, Var, as_arrow,
    env_eq, fresh_name, ftv, fv, term_alpha_eq, type_eq,
)
from fskel.expansion import apply_subst, apply_subst_set
from fskel.solve import REL_F, leq_f_witness, record_solved
from fskel.typecheck import check_skeleton


def _ref(q):
    """A strong stand-in for weakref.ref(q)."""
    return lambda: q


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
    if type(f) is Abs and is_value(a):
        return subst_term(f.binder, a, f.body)
    f2 = cbv_step(f)
    if f2 is not None:
        return App(f2, a)
    if is_value(f):
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
# Skeletons with explicit subtyping proofs


class NeqSkeleton(Node, final=False):
    """Skeleton whose subtyping steps carry explicit proofs. Its memo slots,
    None when the node is built, hold a weak reference to the skeleton that
    from_neq would rebuild exactly from this node, when the node was
    elaborated from it or flattened to it, and, on an NSub whose proof
    elaboration settled to end at its literal target, the type the proof
    was settled from. An NSub's proof is the certificate of the |> that
    from_neq builds from it, which preserve checks before it records its
    reduct's constraint as solved under REL_F."""

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
# Type-variable substitution into proof-carrying skeletons and proofs


def subst_neq(a: str, x: Type, q: NeqSkeleton | SubtypeSkeleton | Type):
    """Capture-avoiding substitution of type x for variable a in a
    proof-carrying skeleton, a subtyping proof or a type. One substitution
    is built per call, and another only below a binder that shadows or is
    renamed; every type and environment in q is mapped by apply_subst,
    every forbidden set by apply_subst_set. The binder rule,
    at an NForall, QuantCong, DummyIn or DummyElim binder b: b shadows the
    substitution's own binding of b, and if b is free in an image, it is
    renamed, together with the rest of the substitution, to
    fresh_name(b, images | domain | the free variables of b's scope)."""
    return _subst(Subst(((a, x),)), q)


def _subst(phi: Subst, n):
    """n, a proof-carrying skeleton, a subtyping proof or a type, under phi."""
    if isinstance(n, Type):
        return apply_subst(phi, n)
    cls = type(n)
    if cls is NAbs:
        return NAbs(n.binder, _subst(phi, n.body))
    if cls is NVar:
        return NVar(n.var, apply_subst(phi, n.env))
    if cls is NForall or cls is QuantCong or cls is DummyIn or cls is DummyElim:
        scope = n.proof if cls is QuantCong else n.body
        b, phi = _binder(phi, n.binder if cls is NForall else n.var, scope)
        return n if not phi.bindings else cls(b, _subst(phi, scope))
    if cls is NApp:
        return NApp(_subst(phi, n.fun), _subst(phi, n.arg))
    if cls is NSub:
        return NSub(_subst(phi, n.body), _subst(phi, n.proof))
    if cls is Inst:
        return Inst(_subst(phi, n.source), _subst(phi, n.arg))
    if cls is FunCong:
        return FunCong(_subst(phi, n.dom_proof), _subst(phi, n.cod_proof))
    if cls is NEVar:
        return NEVar(n.evar, apply_subst_set(phi, n.forbidden), _subst(phi, n.body))
    if cls is EVarCong:
        return EVarCong(n.evar, apply_subst_set(phi, n.forbidden), _subst(phi, n.proof))
    if cls is NEnvSub:
        return NEnvSub(_subst(phi, n.body), n.var, _subst(phi, n.proof))
    if cls is QuantComm:
        return QuantComm(apply_subst(phi, n.source))
    raise TypeError(n)


def _binder(phi: Subst, b: str, scope) -> tuple[str, Subst]:
    """subst_neq's binder rule: the name of binder b and the substitution
    to walk its scope with."""
    if any(c == b for c, _ in phi.bindings):
        phi = Subst(tuple(bound for bound in phi.bindings if bound[0] != b))
    clash = ftv(phi)  # the domain and the images' free variables
    if b not in clash:
        return b, phi
    fresh = fresh_name(b, clash | _free(scope))
    return fresh, Subst(((b, TVar(fresh)),) + phi.bindings)


def _free(n) -> frozenset[str]:
    """The type variables free in a proof-carrying skeleton, a subtyping
    proof or a type."""
    match n:
        case NVar(_, env):
            return ftv(env)
        case NAbs(_, body):
            return _free(body)
        case (NApp(left, right) | NSub(left, right) | NEnvSub(left, _, right)
              | FunCong(left, right) | Inst(left, right)):
            return _free(left) | _free(right)
        case NEVar(_, forbidden, body) | EVarCong(_, forbidden, body):
            return forbidden | _free(body)
        case NForall(b, scope) | QuantCong(b, scope):
            return _free(scope) - {b}
        case DummyIn(_, t) | DummyElim(_, t) | QuantComm(t):
            return ftv(t)
        case Type():
            return ftv(n)
    raise TypeError(n)


# ---------------------------------------------------------------------------
# The transformation T


def transform_T(q: NeqSkeleton) -> NeqSkeleton:
    """Expose the head constructor matching the result type of an
    abstraction's skeleton, preserving its judgement modulo the equational
    theory; never increases sz. A step whose two ends are equal (an equality
    proof, an Inst of a dummy binder, any NEnvSub) is dropped. An Inst or a
    QuantCong is pushed into the NForall block of its body, at the binder
    whose instantiation gives the proof's end modulo the theory."""
    cls = type(q)
    if cls is NAbs or cls is NVar or cls is NApp or cls is NEVar:
        return q
    if cls is NSub:
        t = transform_T(q.body)
        proof = q.proof
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
                    return NForall(b, transform_T(NSub(rest, inner_b)))
        return NSub(t, proof)
    if cls is NForall:
        return NForall(q.binder, transform_T(q.body))
    if cls is NEnvSub:
        return transform_T(q.body)
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


def _source(n: NeqSkeleton | None) -> Skeleton | None:
    """The skeleton from_neq(n) rebuilds exactly, if n records a live one
    (None for no form)."""
    ref = None if n is None else n._source
    return None if ref is None else ref()


def _sub(body: NeqSkeleton, old: NSub) -> NSub:
    """NSub(body, old.proof), for a body at a type equal to old's body's,
    keeping the type old's proof was settled from."""
    n = NSub(body, old.proof)
    t = old._settled
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
        n = q._neq
        if n is not NEQ_UNSET:
            return n
        cls = type(q)
        if cls is QApp:
            f, a = q.fun, q.arg
            nf, na = go(f), go(a)
            n = None if nf is None or na is None else NApp(nf, na)
            linked = _source(nf) is f and _source(na) is a
        elif cls is QVar:
            n, linked = NVar(q.var, q.env), True
        elif cls is QAbs:
            body = q.body
            nb = go(body)
            n, linked = None if nb is None else NAbs(q.binder, nb), _source(nb) is body
        elif cls is QSub:
            body = q.body
            nb = go(body)
            key = body._judgement.rtype, q.target
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
        elif cls is QForall:
            body = q.body
            nb = go(body)
            n, linked = None if nb is None else NForall(q.binder, nb), _source(nb) is body
        elif cls is QEVar:
            body = q.body
            nb = go(body)
            n = None if nb is None else NEVar(q.evar, q.forbidden, nb)
            linked = _source(nb) is body
        elif cls is QWeak:
            go(q.body)
            n, linked = None, False
        else:
            raise TypeError(q)
        if linked:
            object.__setattr__(n, "_source", _ref(q))
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


def from_neq(q: NeqSkeleton,
             rebuilt: list[tuple[QSub, SubtypeSkeleton]] | None = None) -> Skeleton:
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
    only the other rebuilt |> nodes and the nodes above them.

    Why the constraint is solved under F, atom by atom: a skeleton given
    back, or a node built that keeps its form, holds a form, and a node
    gets one only once every atom below it was decided under F (by
    elaboration, or, for a kept |>, by the step its proof was settled
    from, which relates the same two types). Every other |> built is
    certified by its proof: it ends at the proof's end type, so an Inst
    proof whose source is equal to the body's judged type makes its atom
    one quantifier elimination. Each |> built that keeps no form is
    appended to rebuilt, if given, with its proof: preserve checks those
    certificates and records the verdict."""
    src = _source(q)
    if src is not None:
        return src
    cls = type(q)
    if cls is NApp:
        f, a = q.fun, q.arg
        qf, qa = from_neq(f, rebuilt), from_neq(a, rebuilt)
        out, linked = QApp(qf, qa), _source(f) is qf and _source(a) is qa
    elif cls is NAbs:
        body = q.body
        qb = from_neq(body, rebuilt)
        out, linked = QAbs(q.binder, qb), _source(body) is qb
    elif cls is NSub:
        body, proof = q.body, q.proof
        qb = from_neq(body, rebuilt)
        out = QSub(qb, check_subproof(proof)[1])
        t = q._settled
        linked = (t is not None and _source(body) is qb
                  and check_skeleton(qb).rtype is t)
        if not linked and rebuilt is not None:
            rebuilt.append((out, proof))
    elif cls is NVar:
        out, linked = QVar(q.var, q.env), True
    elif cls is NForall:
        body = q.body
        qb = from_neq(body, rebuilt)
        out, linked = QForall(q.binder, qb), _source(body) is qb
    elif cls is NEVar:
        body = q.body
        qb = from_neq(body, rebuilt)
        out, linked = QEVar(q.evar, q.forbidden, qb), _source(body) is qb
    elif cls is NEnvSub:
        return from_neq(q.body, rebuilt)
    else:
        raise TypeError(q)
    if linked:
        object.__setattr__(out, "_neq", q)
        object.__setattr__(q, "_source", _ref(out))
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
    cls = type(q)
    if cls is NAbs:
        names = frozenset({q.binder}) | _term_names(q.body, known)
    elif cls is NVar:
        names = frozenset({q.var}) | q.env.supp()
    elif cls is NForall or cls is NSub or cls is NEVar or cls is NEnvSub:
        names = _term_names(q.body, known)
    elif cls is NApp:
        names = _term_names(q.fun, known) | _term_names(q.arg, known)
    else:
        raise TypeError(q)
    known[id(q)] = names
    return names


def _extend_envs(q: NeqSkeleton, extras: list[tuple[str, Type]]) -> NeqSkeleton:
    """Pointwise-extend every environment in q by the given entries, whose
    names subst_redex has renamed away from every name of q."""
    if not extras:
        return q
    cls = type(q)
    if cls is NAbs:
        return NAbs(q.binder, _extend_envs(q.body, extras))
    if cls is NVar:
        return NVar(q.var, TypeEnv(q.env.entries + tuple(extras)))
    if cls is NForall:
        return NForall(q.binder, _extend_envs(q.body, extras))
    if cls is NApp:
        return NApp(_extend_envs(q.fun, extras), _extend_envs(q.arg, extras))
    if cls is NEVar:
        s, forbidden = q.evar, q.forbidden
        grown = frozenset().union(*[ftv(t) for _, t in extras])
        if not grown <= forbidden:
            raise NotAStep(
                f"{s}: forbidden set too small for the substituted environment")
        return NEVar(s, forbidden, _extend_envs(q.body, extras))
    if cls is NSub:
        return _sub(_extend_envs(q.body, extras), q)
    if cls is NEnvSub:
        return NEnvSub(_extend_envs(q.body, extras), q.var, q.proof)
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
        cls = type(q)
        if cls is NVar:
            y, env = q.var, q.env
            if y == x:
                return _extend_envs(arg, [(ren.get(c, c), env.lookup(c)) for c in crossed])
            return NVar(ren.get(y, y), TypeEnv(tuple(
                (ren.get(z, z), t) for z, t in env.entries if z != x)))
        if cls is NApp:
            return NApp(go(q.fun, crossed, ren), go(q.arg, crossed, ren))
        if cls is NSub:
            return _sub(go(q.body, crossed, ren), q)
        if cls is NAbs:
            y, body = q.binder, q.body
            if y in arg_names:
                # body's environments hold x and every binder crossed
                # before, under its old name; the new names are added
                ren = {**ren, y: fresh_name(
                    y, arg_names | _term_names(body, known) | set(ren.values()))}
            return NAbs(ren.get(y, y), go(body, crossed + (y,), ren))
        if cls is NForall:
            return NForall(q.binder, go(q.body, crossed, ren))
        if cls is NEVar:
            return NEVar(q.evar, q.forbidden, go(q.body, crossed, ren))
        if cls is NEnvSub:
            return go(q.body, crossed, ren)
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
    cls = type(n)
    if cls is NApp:
        f, a = n.fun, n.arg
        core = type(_core(f))
        if core is NApp:
            return NApp(_step_at(f), a)
        if type(_core(a)) is NApp:
            return NApp(f, _step_at(a))
        if core is NAbs:
            exposed = _expose_abs(f)
            return subst_redex(exposed.body, exposed.binder, a)
    elif cls is NForall:
        return NForall(n.binder, _step_at(n.body))
    elif cls is NEVar:
        return NEVar(n.evar, n.forbidden, _step_at(n.body))
    elif cls is NSub:
        return _sub(_step_at(n.body), n)
    elif cls is NEnvSub:
        return _step_at(n.body)
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
    the contractum.

    The reduct's constraint holds under REL_F by construction, and preserve
    records it so, in every constraint node not yet marked, once the
    certificate of each |> from_neq built without a form is checked: its
    proof is an Inst, and the body's judged type is equal to the proof's
    source (else NotSolved, and nothing is marked). Every other atom was
    decided under F when elaboration entered q or an earlier skeleton
    (see from_neq). So solve.solved(j.constraint, REL_F) on the reduct
    enters no node; under any other relation it decides as before."""
    check_skeleton(q)
    extras: list[TypeEnv] = []
    while isinstance(q, QWeak):
        extras.append(q.extra)
        q = q.body
    # stepping keeps the elaborated skeleton's environment, so the same
    # weakenings apply to the result
    rebuilt: list[tuple[QSub, SubtypeSkeleton]] = []
    out = from_neq(_step_at(_elaborate(q)), rebuilt)
    for extra in reversed(extras):
        out = QWeak(out, extra)
    j = check_skeleton(out)
    for sub, proof in rebuilt:
        if not (isinstance(proof, Inst) and type_eq(sub.body._judgement.rtype, proof.source)):
            raise NotSolved("a rebuilt subtyping step is not certified by its proof")
    if not term_alpha_eq(j.term, m_next):
        raise NotAStep("the given term is not the skeleton's one-step reduct")
    record_solved(j.constraint, REL_F)
    return out
