"""Independent answer checks for the benchmark.

Nothing here calls fskel's algorithms: terms are compared by de Bruijn
levels, types by a canonical key modulo the equational theory (alpha
renaming, dummy quantifiers, reordering inside a quantifier block) found by
trying every block order, and call-by-value normal forms come from this
module's own evaluator.  Only fskel's data classes are shared.
"""

from __future__ import annotations

from itertools import permutations

from fskel.syntax import (
    Abs, And, App, Arrow, Atomic, EGuard, EVarApp, Exists, Forall, QAbs,
    QApp, QEVar, QForall, QSub, QVar, QWeak, TVar, Var,
)


# ---------------------------------------------------------------------------
# Terms


def term_key(m, bound=()) -> str:
    """De Bruijn-level key: equal keys iff the terms are alpha-equivalent."""
    if isinstance(m, Var):
        for level in range(len(bound) - 1, -1, -1):
            if bound[level] == m.name:
                return f"#{level}"
        return m.name
    if isinstance(m, Abs):
        return f"(\\{term_key(m.body, bound + (m.binder,))})"
    if isinstance(m, App):
        return f"({term_key(m.fun, bound)} {term_key(m.arg, bound)})"
    raise TypeError(m)


def term_fv(m) -> frozenset:
    if isinstance(m, Var):
        return frozenset({m.name})
    if isinstance(m, Abs):
        return term_fv(m.body) - {m.binder}
    return term_fv(m.fun) | term_fv(m.arg)


def _subst(x: str, v, m):
    """Capture-avoiding m[x := v]."""
    if isinstance(m, Var):
        return v if m.name == x else m
    if isinstance(m, App):
        return App(_subst(x, v, m.fun), _subst(x, v, m.arg))
    if m.binder == x:
        return m
    y, body = m.binder, m.body
    if y in term_fv(v):
        taken = term_fv(v) | term_fv(body) | {x}
        z = next(f"{y}'{i}" for i in range(len(taken) + 1) if f"{y}'{i}" not in taken)
        body, y = _subst(y, Var(z), body), z
    return Abs(y, _subst(x, v, body))


def _step(m):
    """One call-by-value step (variables and abstractions are values), or
    None at a normal form."""
    if not isinstance(m, App):
        return None
    f, a = m.fun, m.arg
    if isinstance(f, App):
        f2 = _step(f)
        return None if f2 is None else App(f2, a)
    if isinstance(a, App):
        a2 = _step(a)
        return None if a2 is None else App(f, a2)
    if isinstance(f, Abs):
        return _subst(f.binder, a, f.body)
    return None


def reducible(m) -> bool:
    return _step(m) is not None


def cbv_trace(m, limit: int = 10_000) -> list:
    """Every term of m's call-by-value reduction, m first, normal form last."""
    out = [m]
    while len(out) <= limit:
        nxt = _step(out[-1])
        if nxt is None:
            return out
        out.append(nxt)
    raise RuntimeError("reference evaluation did not terminate")


# ---------------------------------------------------------------------------
# Types


def _type_ftv(t) -> frozenset:
    if isinstance(t, TVar):
        return frozenset({t.name})
    if isinstance(t, Arrow):
        return _type_ftv(t.dom) | _type_ftv(t.cod)
    if isinstance(t, Forall):
        return _type_ftv(t.body) - {t.binder}
    return frozenset(t.forbidden) | _type_ftv(t.body)


def _name(a: str, bound) -> str:
    for level in range(len(bound) - 1, -1, -1):
        if bound[level] == a:
            return f"#{level}"
    return a


def type_key(t, bound=()) -> str:
    """Canonical key: equal keys iff the types are equal modulo alpha
    renaming, dummy quantifiers and reordering inside quantifier blocks."""
    if isinstance(t, TVar):
        return _name(t.name, bound)
    if isinstance(t, Arrow):
        return f"({type_key(t.dom, bound)}->{type_key(t.cod, bound)})"
    if isinstance(t, EVarApp):
        names = ",".join(sorted(_name(a, bound) for a in t.forbidden))
        return f"{t.evar}^{{{names}}}({type_key(t.body, bound)})"
    if not isinstance(t, Forall):
        raise TypeError(t)
    block = []
    while isinstance(t, Forall):
        block.append(t.binder)
        t = t.body
    free = _type_ftv(t)
    kept = [a for i, a in enumerate(block) if a not in block[i + 1:] and a in free]
    if not kept:
        return type_key(t, bound)
    return min(f"A{len(kept)}.{type_key(t, bound + order)}"
               for order in permutations(kept))


def types_equal(t1, t2) -> bool:
    return type_key(t1) == type_key(t2)


def envs_equal(e1, e2) -> bool:
    d1, d2 = dict(e1.entries), dict(e2.entries)
    return d1.keys() == d2.keys() and all(types_equal(d1[x], d2[x]) for x in d1)


# ---------------------------------------------------------------------------
# Sizes


def atoms(c) -> list:
    """The atomic constraints of c, left to right."""
    out, stack = [], [c]
    while stack:
        c = stack.pop()
        if isinstance(c, Atomic):
            out.append(c)
        elif isinstance(c, And):
            stack += [c.c2, c.c1]
        elif isinstance(c, (Exists, EGuard)):
            stack.append(c.body)
    return out


def nodes(q) -> int:
    """Number of skeleton nodes."""
    count, stack = 0, [q]
    while stack:
        q = stack.pop()
        count += 1
        if isinstance(q, QApp):
            stack += [q.fun, q.arg]
        elif isinstance(q, (QAbs, QForall, QEVar, QSub, QWeak)):
            stack.append(q.body)
        elif not isinstance(q, QVar):
            raise TypeError(q)
    return count
