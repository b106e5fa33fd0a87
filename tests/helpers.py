"""Shared test helpers: a unification-based simple-type inferencer used as
an independent oracle, a corpus of closed terms with solved decorated
skeletons, two reduction chains, linear-scan and de Bruijn oracles for
substitution lookup, alpha-equivalence and call-by-value steps, counters
of fskel calls and of instances built, and a solvedness check that reads
no kept verdict."""

from __future__ import annotations

import importlib
import random
import sys

from fskel.solve import SubtypingRelation, solved
from fskel.surface import parse_skeleton
from fskel.syntax import (
    Abs, App, Arrow, Constraint, Expansion, FreshSupply, QAbs, QApp, QEVar,
    QForall, QSub, QVar, Skeleton, Subst, TVar, Term, Type, TypeEnv, Var,
    fresh_name, ftv,
)
from fskel.typecheck import check_skeleton


# ---------------------------------------------------------------------------
# Simple-type inference by first-order unification (independent of fskel's
# typing engine: no skeletons, no constraints, just plain unification).


class SimplyUntypable(Exception):
    pass


def _walk(t, sub):
    while isinstance(t, str) and t in sub:
        t = sub[t]
    return t


def _occurs(v, t, sub):
    t = _walk(t, sub)
    if isinstance(t, str):
        return t == v
    return _occurs(v, t[0], sub) or _occurs(v, t[1], sub)


def _unify(t1, t2, sub):
    t1, t2 = _walk(t1, sub), _walk(t2, sub)
    if isinstance(t1, str):
        if t1 == t2:
            return
        if _occurs(t1, t2, sub):
            raise SimplyUntypable
        sub[t1] = t2
        return
    if isinstance(t2, str):
        _unify(t2, t1, sub)
        return
    _unify(t1[0], t2[0], sub)
    _unify(t1[1], t2[1], sub)


def infer_simple(m: Term) -> dict:
    """Infer a simple type for every subterm of a closed term, or raise.

    Returns a map from subterm path (a tuple of child indices) to a resolved
    type tree (either a metavariable name or a (dom, cod) pair)."""
    sub: dict = {}
    counter = [0]
    types: dict[tuple, object] = {}

    def fresh():
        counter[0] += 1
        return f"m{counter[0]}"

    def go(m: Term, env: dict, path: tuple) -> object:
        match m:
            case Var(x):
                t = env[x]
            case Abs(x, body):
                v = fresh()
                t = (v, go(body, env | {x: v}, path + (0,)))
            case App(f, a):
                tf = go(f, env, path + (0,))
                ta = go(a, env, path + (1,))
                v = fresh()
                _unify(tf, (ta, v), sub)
                t = v
        types[path] = t
        return t

    go(m, {}, ())

    def resolve(t):
        t = _walk(t, sub)
        if isinstance(t, str):
            return t
        return (resolve(t[0]), resolve(t[1]))

    return {k: resolve(v) for k, v in types.items()}


def _to_type(t, names: dict) -> Type:
    if isinstance(t, str):
        if t not in names:
            names[t] = f"c{len(names)}"
        return TVar(names[t])
    return Arrow(_to_type(t[0], names), _to_type(t[1], names))


def skeleton_for(m: Term) -> Skeleton:
    """A solved decorated skeleton for a closed, simply-typable term.

    Every constraint produced is trivial: function positions carry literal
    arrow types, so no subtyping steps are needed."""
    types = infer_simple(m)
    names: dict = {}

    def go(m: Term, env: tuple, path: tuple) -> Skeleton:
        match m:
            case Var(x):
                return QVar(x, TypeEnv(env))
            case Abs(x, body):
                dom = _to_type(types[path][0], names)
                env2 = tuple(e for e in env if e[0] != x) + ((x, dom),)
                return QAbs(x, go(body, env2, path + (0,)))
            case App(f, a):
                return QApp(go(f, env, path + (0,)), go(a, env, path + (1,)))
        raise TypeError(m)

    return go(m, (), ())


def decorate(q: Skeleton, rng: random.Random, rounds: int = 2) -> Skeleton:
    """Wrap a skeleton in random decorations that keep its constraint
    solved under one-step instantiation."""
    for _ in range(rng.randrange(rounds + 1)):
        j = check_skeleton(q)
        match rng.randrange(4):
            case 0:
                a = fresh_name("g", ftv(q))
                q = QForall(a, q)
            case 1:
                q = QEVar(f"w{rng.randrange(2)}", ftv(j.env), q)
            case 2:
                q = QSub(q, j.rtype)  # reflexive subtyping step
            case 3:
                # introduce a dummy quantifier, then eliminate it
                a = fresh_name("g", ftv(q))
                q = QSub(QForall(a, q), j.rtype)
    return q


def closed_corpus() -> list[Term]:
    """At least 50 closed, simply-typable terms."""
    I = Abs("z", Var("z"))
    K = Abs("x", Abs("y", Var("x")))
    terms: list[Term] = [
        App(Abs("x", Var("y")), Abs("z", Var("z"))),  # discards its argument
        I,
        K,
        App(I, I),
        App(K, I),
        App(App(K, I), K),
        Abs("f", Abs("x", App(Var("f"), Var("x")))),
        App(Abs("f", Abs("x", App(Var("f"), Var("x")))), I),
        App(App(Abs("f", Abs("x", App(Var("f"), Var("x")))), I), K),
        Abs("x", App(I, Var("x"))),
        App(Abs("x", App(I, Var("x"))), K),
        App(Abs("x", App(Var("x"), I)), I),
    ]
    # the first entry has a free variable; close it under an outer binder
    terms[0] = Abs("y", terms[0])
    # generate the rest systematically: nested applications of closed combinators
    seeds = [I, K, Abs("f", Abs("x", App(Var("f"), Var("x"))))]
    for a in seeds:
        for b in seeds:
            terms.append(App(Abs("u", Var("u")), App(Abs("v", a), b)))
            terms.append(Abs("w", App(a, App(b, Var("w"))))
                         if a is not K else App(a, b))
            terms.append(App(App(K, a), b))
            terms.append(Abs("p", App(App(K, Var("p")), a)))
            terms.append(App(Abs("q", App(Var("q"), a)), I))
    out = []
    for t in terms:
        try:
            infer_simple(t)
        except SimplyUntypable:
            continue
        out.append(t)
    assert len(out) >= 50
    return out


# ---------------------------------------------------------------------------
# Reduction chains


def id_chain(n: int) -> Skeleton:
    """(\\u. u) @ ((\\u. u) @ ... @ (\\z. z)) at type c -> c."""
    text = "\\z. z<z: c>"
    for _ in range(n):
        text = f"(\\u. u<u: c -> c>) @ ({text})"
    return parse_skeleton(text)


def poly_chain(n: int) -> Skeleton:
    """((\\f. \\x. (f |> τ) @ (... @ x)) @ (all b. \\y. y)) @ (\\w. w): the
    identity f: all b. b -> b instantiated at τ = (c -> c) -> c -> c at each
    of its n uses."""
    env = "f: all b. b -> b, x: c -> c"
    text = f"x<{env}>"
    for _ in range(n):
        text = f"(f<{env}> |> (c -> c) -> c -> c) @ ({text})"
    return parse_skeleton(
        f"((\\f. \\x. {text}) @ (all b. \\y. y<y: b>)) @ (\\w. w<w: c>)")


def chain_target(n: int, wrap: bool = False) -> Skeleton:
    """\\f. \\x. f @ (... @ x), n applications, typed with f: all b. b -> b
    instantiated at c -> c at every use, under all g. if wrap."""
    env = "f: all b. b -> b, x: c -> c"
    body = f"x<{env}>"
    for _ in range(n):
        body = f"(f<{env}> |> (c -> c) -> c -> c) @ ({body})"
    return parse_skeleton(("all g. " if wrap else "") + f"\\f. \\x. {body}")


def carried_proofs(q: Skeleton) -> list:
    """The proof each |> of q carries, in pre-order, a shared node once per
    occurrence."""
    todo, out = [q], []
    while todo:
        node = todo.pop()
        if isinstance(node, QSub):
            out.append(node._proof)
        if isinstance(node, QApp):
            todo += (node.arg, node.fun)
        elif not isinstance(node, QVar):
            todo.append(node.body)
    return out


def skeleton_nodes(q: Skeleton) -> dict[int, Skeleton]:
    """Every distinct node object of q, by id()."""
    out: dict[int, Skeleton] = {}
    todo = [q]
    while todo:
        node = todo.pop()
        if id(node) in out:
            continue
        out[id(node)] = node
        if isinstance(node, QApp):
            todo += (node.fun, node.arg)
        elif not isinstance(node, QVar):
            todo.append(node.body)
    return out


# ---------------------------------------------------------------------------
# Oracles for substitution lookup, alpha-equivalence and call-by-value steps


def lookup_linear(phi: Subst, name: str, kind: type) -> Type | Expansion | None:
    """The first value of the given kind (Type or Expansion) that phi binds
    to name, by a scan of the bindings in order; None if there is none."""
    for bound, val in phi.bindings:
        if bound == name and isinstance(val, kind):
            return val
    return None


def de_bruijn(m: Term, bound: tuple[str, ...] = ()):
    """m with each bound variable replaced by its binder's distance and
    binder names dropped: two terms are alpha-equivalent iff these agree."""
    match m:
        case Var(x):
            if x in bound:
                return ("bound", bound[::-1].index(x))
            return ("free", x)
        case Abs(x, body):
            return ("abs", de_bruijn(body, bound + (x,)))
        case App(f, a):
            return ("app", de_bruijn(f, bound), de_bruijn(a, bound))
    raise TypeError(m)


def _db_shift(t, d: int, cutoff: int = 0):
    """De Bruijn form t with each index of a binder outside it (at least
    cutoff) moved by d."""
    tag = t[0]
    if tag == "bound":
        return ("bound", t[1] + d) if t[1] >= cutoff else t
    if tag == "abs":
        return ("abs", _db_shift(t[1], d, cutoff + 1))
    if tag == "app":
        return ("app", _db_shift(t[1], d, cutoff), _db_shift(t[2], d, cutoff))
    return t


def _db_subst(t, j: int, s):
    """De Bruijn form t with s for index j."""
    tag = t[0]
    if tag == "bound":
        return s if t[1] == j else t
    if tag == "abs":
        return ("abs", _db_subst(t[1], j + 1, _db_shift(s, 1)))
    if tag == "app":
        return ("app", _db_subst(t[1], j, s), _db_subst(t[2], j, s))
    return t


def cbv_step_de_bruijn(t):
    """One call-by-value step on a de Bruijn form (de_bruijn's output), or
    None: the function part steps first, the argument once the function
    part is a value, and an abstraction applied to a value contracts.
    Names play no part, so no binder can capture a variable."""
    if t[0] != "app":
        return None
    f, a = t[1], t[2]
    if f[0] == "abs" and a[0] != "app":
        return _db_shift(_db_subst(f[1], 0, _db_shift(a, 1)), -1)
    f2 = cbv_step_de_bruijn(f)
    if f2 is not None:
        return ("app", f2, a)
    if f[0] != "app":
        a2 = cbv_step_de_bruijn(a)
        if a2 is not None:
            return ("app", f, a2)
    return None


# ---------------------------------------------------------------------------
# Call counting


def count_calls(monkeypatch, names: list[str]) -> dict[str, int]:
    """Count the calls to each fskel function named "module.function" in
    names, under every name a loaded fskel module binds it to, so calls
    through any import (and a function's calls to itself) are counted."""
    calls = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items() if k == "fskel" or k.startswith("fskel.")]
    for qualified in names:
        module_name, name = qualified.split(".")
        real = getattr(importlib.import_module(f"fskel.{module_name}"), name)

        def counted(*args, _key=qualified, _real=real):
            calls[_key] += 1
            return _real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


def count_instances(monkeypatch, cls: type) -> list[int]:
    """Count the instances of cls built until monkeypatch is undone; the
    count is the list's one item."""
    built = [0]
    real = cls.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


# ---------------------------------------------------------------------------
# Solvedness, decided afresh


def constraint_nodes(c: Constraint) -> list[Constraint]:
    """Every node of c, walked on an explicit stack (a shared node once per
    occurrence)."""
    todo, out = [c], []
    while todo:
        node = todo.pop()
        out.append(node)
        todo += [v for name in node.__match_args__
                 if isinstance(v := getattr(node, name), Constraint)]
    return out


def memo_free_copy(c: Constraint) -> Constraint:
    """c rebuilt node by node, on an explicit stack, so that no node of the
    copy holds a kept verdict (a node shared in c is shared in the copy)."""
    made: dict[int, Constraint] = {}
    todo = [c]
    while todo:
        node = todo[-1]
        if id(node) in made:
            todo.pop()
            continue
        fields = [getattr(node, name) for name in node.__match_args__]
        below = [v for v in fields if isinstance(v, Constraint) and id(v) not in made]
        if below:
            todo += below
            continue
        todo.pop()
        made[id(node)] = type(node)(*(made[id(v)] if isinstance(v, Constraint) else v
                                      for v in fields))
    return made[id(c)]


def decide(c: Constraint, rel: SubtypingRelation) -> bool:
    """solved(c, rel) on a memo-free copy of c: every atom is decided, none
    read from a verdict kept in c (preserve records its reducts' verdict
    under F without deciding it)."""
    return solved(memo_free_copy(c), rel)
