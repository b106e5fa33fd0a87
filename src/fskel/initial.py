"""Initial skeletons of terms, rename-equivalence, the reflexive predicate,
and the constructive derivation of a substitution mapping an initial skeleton
onto any valid skeleton of the same term. An initial skeleton records its
variables (allvar) as it is built. The derivation types each of its two
skeletons once and walks the target once; the target's variables are gathered,
by one more walk kept in its memo slot, which stops at each type (a type keeps
its free variables and E-variables), only if the target has a QForall binder
to rename, and the substitution binds each name once."""

from __future__ import annotations

from .syntax import (
    IOTA, Abs, App, Arrow, Constraint, EVarApp, EVarIntro, Expansion, Forall,
    ForallIntro, FreshSupply, Id, Node, QAbs, QApp, QEVar, QForall, QSub, QVar,
    QWeak, Skeleton, SubStep, Subst, TVar, Term, Type, TypeEnv, Var,
    _type_evars, as_arrow, fresh_name, ftv, fv, term_alpha_eq,
)
from .expansion import apply_subst, apply_subst_set
from .solve import REL_EQ, solved
from .typecheck import check_skeleton


class TermMismatch(Exception):
    """The two skeletons do not type the same term."""


def allvar(q: Skeleton) -> frozenset[str]:
    """Free type variables plus all expansion variables of a skeleton,
    kept in q's memo slot (an initial skeleton has it from the start); a
    type's are read from its memo slots (`ftv`, `_type_evars`)."""
    found = q._allvar
    if found is not None:
        return found
    # one walk per set of enclosing binders (a QForall starts one under its
    # binder); a node met again under the same binders (a shared subtree)
    # adds nothing and is skipped, and each distinct type met is read once
    out: set[str] = set()
    walks: list[tuple[Skeleton, frozenset[str]]] = [(q, frozenset())]
    seen: dict[frozenset[str], set[int]] = {}
    while walks:
        node, bound = walks.pop()
        done = seen.setdefault(bound, set())
        types: set[Type] = set()
        todo = [node]
        while todo:
            node = todo.pop()
            if id(node) in done:
                continue
            done.add(id(node))
            cls = type(node)
            if cls is QApp:
                todo += (node.fun, node.arg)
            elif cls is QSub:
                todo.append(node.body)
                types.add(node.target)
            elif cls is QVar:
                types.update(t for _, t in node.env.entries)
            elif cls is QEVar:
                out.add(node.evar)
                out.update(node.forbidden - bound)
                todo.append(node.body)
            elif cls is QAbs:
                todo.append(node.body)
            elif cls is QForall:
                walks.append((node.body, bound | {node.binder}))
            elif cls is QWeak:
                todo.append(node.body)
                types.update(t for _, t in node.extra.entries)
            else:
                raise TypeError(node)
        for t in types:
            free = ftv(t)
            out.update(free - bound if bound else free)
            out.update(_type_evars(t))
    found = frozenset(out)
    _store_allvar(q, found)
    return found


_store_allvar = Skeleton._allvar.__set__


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
    renamed so that none shadows another binder or a free variable. Each
    scope's environment is one object, and so is each variable's leaf in
    it. The skeleton's allvar is the set of names allocated here: each type
    variable sits in an environment or a |> target, and each E-variable on
    a node."""
    free = fv(m)
    used = set(free)
    # the supply's counters, advanced in place; one supply is built at the end
    next_tvar, next_evar = supply.tvar_next, supply.evar_next
    allocated: list[str] = []

    def fresh_tvar() -> str:
        nonlocal next_tvar
        name, next_tvar = supply.next_name(supply.tvar_prefix, next_tvar)
        allocated.append(name)
        return name

    def fresh_evar() -> str:
        nonlocal next_evar
        name, next_evar = supply.next_name(supply.evar_prefix, next_evar)
        allocated.append(name)
        return name

    tvar_of: dict[str, str] = {}  # term variable -> type variable, insertion-ordered

    def alloc(m: Term, renamed: dict[str, str]):
        cls = type(m)
        if cls is App:
            af = alloc(m.fun, renamed)
            aa = alloc(m.arg, renamed)
            return _AApp(af, aa, fresh_tvar(), fresh_evar())
        if cls is Var:
            x = m.name
            x = renamed.get(x, x)
            if x not in tvar_of:
                tvar_of[x] = fresh_tvar()
            return _AVar(x, fresh_evar())
        if cls is Abs:
            x = m.binder
            x2 = fresh_name(x, used)
            used.add(x2)
            tvar_of[x2] = fresh_tvar()
            ab = alloc(m.body, {**renamed, x: x2})
            return _AAbs(x2, ab, fresh_evar())
        raise TypeError(m)

    annotated = alloc(m, {})

    envs: dict[frozenset[str], tuple[TypeEnv, frozenset[str], dict[str, QVar]]] = {}

    def env_at(scope: frozenset[str]) -> tuple[TypeEnv, frozenset[str], dict[str, QVar]]:
        """The environment of a scope, its type variables and its leaves by
        variable, built once."""
        got = envs.get(scope)
        if got is None:
            env = TypeEnv(tuple(
                (x, TVar(a)) for x, a in tvar_of.items() if x in free or x in scope))
            got = envs[scope] = env, ftv(env), {}
        return got

    def build(node, scope: frozenset[str], typed: bool) -> tuple[Skeleton, Type | None]:
        """node's skeleton and, when typed, its type: only an argument's
        type is read, by the |> above the function part."""
        cls = type(node)
        if cls is _AApp:
            qf, _ = build(node.fun, scope, False)
            qa, ta = build(node.arg, scope, True)
            s, delta = node.evar, env_at(scope)[1]
            a = TVar(node.tvar)
            return (QEVar(s, delta, QApp(QSub(qf, Arrow(ta, a)), qa)),
                    EVarApp(s, delta, a) if typed else None)
        if cls is _AVar:
            x, s = node.var, node.evar
            env, delta, leaves = env_at(scope)
            leaf = leaves.get(x)
            if leaf is None:
                leaf = leaves[x] = QVar(x, env)
            return QEVar(s, delta, leaf), EVarApp(s, delta, TVar(tvar_of[x])) if typed else None
        if cls is _AAbs:
            x = node.binder
            qb, tb = build(node.body, scope | {x}, typed)
            s, delta = node.evar, env_at(scope)[1]
            return (QEVar(s, delta, QAbs(x, qb)),
                    EVarApp(s, delta, Arrow(TVar(tvar_of[x]), tb)) if typed else None)
        raise TypeError(node)

    skel, _ = build(annotated, frozenset(), False)
    _store_allvar(skel, frozenset(allocated))
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
    a reflexive constraint remainder; phi binds each name once: each
    E-variable of q_init, each application's codomain variable, and each
    term variable's type variable at its first leaf (first match wins, so
    a later leaf's binding would be dead). Cost: typing the nodes of either
    skeleton not judged before (none, for a skeleton its caller has
    checked) and one walk of the target, which renames the target's
    binders as it goes instead of rebuilding it and reads each function
    part's type from its judgement.
    A renamed QForall binder takes fresh_name's choice out of allvar of
    both skeletons, the variables free in the target's environment and the
    names binders renamed before took. Those sets are read at the first
    QForall: q_init's allvar is kept from its construction, and the
    target's is one walk, kept in its memo slot, so a second derivation
    onto the same target walks nothing. The initial term's free variables
    are computed only when the target's environment has entries to sort
    into G'."""
    j_i = check_skeleton(q_init)
    j_t = check_skeleton(q_target)
    if not term_alpha_eq(j_i.term, j_t.term):
        raise TermMismatch("skeletons type different terms")

    # Strip root weakenings into the extra environment.
    root = q_target
    while type(root) is QWeak:
        root = root.body

    avoid: set[str] = set()  # filled at the first QForall, then each binder's name

    def fresh(a: str) -> str:
        if not avoid:  # the first binder; refilling from empty sets adds nothing
            avoid.update(allvar(q_init), allvar(root), ftv(j_t.env))
        a = fresh_name(a, avoid)
        avoid.add(a)
        return a

    bindings: list[tuple[str, Type | Expansion]] = []
    first: dict[str, Type] = {}  # each term variable's type variable -> its binding

    def walk(q_i: Skeleton, q_t: Skeleton, names: dict[str, str], phi: Subst) -> Expansion:
        """The expansion of q_i's E-variable that maps q_i onto q_t; the
        bindings below it go to `bindings`. names maps the target's term
        binders to q_i's, and phi renames the target's enclosing QForall
        binders to fresh names."""
        if type(q_i) is not QEVar:
            raise AssertionError("initial sub-skeleton must be rooted at an E-variable")
        cls = type(q_t)
        if cls is QSub:
            target = q_t.target
            return SubStep(walk(q_i, q_t.body, names, phi),
                           apply_subst(phi, target) if phi.bindings else target)
        if cls is QEVar:
            rest = walk(q_i, q_t.body, names, phi)
            covered = frozenset().union(
                *(ftv(first.get(a, TVar(a))) for a in q_i.forbidden))
            return EVarIntro(q_t.evar, apply_subst_set(phi, q_t.forbidden) - covered, rest)
        if cls is QForall:
            a = q_t.binder
            a2 = fresh(a)
            kept = tuple(b for b in phi.bindings if b[0] != a)
            phi = Subst(kept if a2 == a else kept + ((a, TVar(a2)),))
            return ForallIntro(a2, walk(q_i, q_t.body, names, phi))
        if cls is QWeak:
            raise TermMismatch("weakening below the root is not supported")

        body_i = q_i.body
        cls_i = type(body_i)
        if cls is QApp and cls_i is QApp:
            sub_i = body_i.fun
            arr_i = sub_i.target if type(sub_i) is QSub else None
            if type(arr_i) is not Arrow or type(arr_i.cod) is not TVar:
                raise TermMismatch("skeletons type different terms")
            fun_i, arg_i, fun_t = sub_i.body, body_i.arg, q_t.fun
            if type(fun_t) is QSub:
                arr, fun_t = fun_t.target, fun_t.body
            else:
                arr = check_skeleton(fun_t).rtype
            if phi.bindings:
                arr = apply_subst(phi, arr)
            exp = walk(fun_i, fun_t, names, phi)
            bindings.append((fun_i.evar, exp))
            # check_skeleton(q_target) read this type as an arrow modulo
            # the theory, and renaming type variables keeps it one
            arr = as_arrow(arr)
            exp = walk(arg_i, q_t.arg, names, phi)
            bindings.extend(((arg_i.evar, exp), (arr_i.cod.name, arr.cod)))
        elif cls is QVar and cls_i is QVar:
            gamma = q_t.env.entries
            env = {names.get(y, y): t for y, t in gamma}
            if len(env) != len(gamma):
                raise TermMismatch("binder renaming collides with an environment entry")
            for xi, ti in body_i.env.entries:
                g = env.get(xi)
                if g is not None and type(ti) is TVar and ti.name not in first:
                    if phi.bindings:
                        g = apply_subst(phi, g)
                    bindings.append((ti.name, g))
                    first[ti.name] = g
        elif cls is QAbs and cls_i is QAbs:
            body_t = body_i.body
            exp = walk(body_t, q_t.body, {**names, q_t.binder: body_i.binder}, phi)
            bindings.append((body_t.evar, exp))
        else:
            raise TermMismatch("skeletons type different terms")
        return Id()

    bindings.append((q_init.evar, walk(q_init, root, {}, IOTA)))
    extra = ()
    if j_t.env.entries:
        free = fv(j_i.term)
        extra = tuple((x, t) for x, t in j_t.env.entries if x not in free)
    return Subst(tuple(bindings)), TypeEnv(extra)
