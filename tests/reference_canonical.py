"""A reference canonicalizer for constraints, written from the string-key
rule and used as an oracle for fskel.syntax.canonical_constraint and
constraint_eq.

An item is one atom with the `ex` binders and guards above it. Its
canonical form drops each `ex` binder that is not free below it, renames
the others e0, e1, ... outermost first (each the least index not free in
the item, and never one used before), renames the guards and the atom by
the kept binders above them, and then makes every type canonical. The key
of an item is its repr with each variable set listed in sorted order.
The canonical constraint is the set of canonical items, one per key,
sorted by key and joined by right-nested And (Omega if there are none);
two constraints are equal when their sets of keys are.

Every item is built and keyed in full, by plain recursion. Only the type
functions canonical_type, ftv and fresh_name come from fskel.syntax; no
code of its canonical constraints is used. The renaming of a type by the
kept binders is this module's own _rename_type, not the substitution the
canonicalizer renames with.
"""

from __future__ import annotations

from fskel.syntax import (
    And, Arrow, Atomic, Constraint, EGuard, EVarApp, Exists, Forall, Omega, TVar, Type,
    canonical_type, fresh_name, ftv,
)


def _rename_type(t: Type, mapping: dict[str, str]) -> Type:
    """Apply a variable renaming to the free type variables of t. A binder
    named like a renamed variable shadows it and keeps its name; a binder
    that would capture a renamed variable's new name is renamed too."""
    match t:
        case TVar(a):
            return TVar(mapping.get(a, a))
        case Arrow(d, c):
            return Arrow(_rename_type(d, mapping), _rename_type(c, mapping))
        case Forall(a, body):
            inner = {k: v for k, v in mapping.items() if k != a}
            if a in inner.values():
                # the binder would capture a renamed variable: rename it too
                fresh = fresh_name(a, set(inner.values()) | ftv(body))
                inner[a] = fresh
                a = fresh
            return Forall(a, _rename_type(body, inner))
        case EVarApp(s, forbidden, body):
            return EVarApp(s, frozenset(mapping.get(a, a) for a in forbidden), _rename_type(body, mapping))
    raise TypeError(t)


def key(x) -> str:
    """The repr of a node, each frozenset listed in sorted order."""
    if isinstance(x, frozenset):
        return f"frozenset({{{', '.join(map(repr, sorted(x)))}}})" if x else "frozenset()"
    if isinstance(x, str):
        return repr(x)
    fields = ", ".join(f"{name}={key(getattr(x, name))}" for name in x.__match_args__)
    return f"{type(x).__name__}({fields})"


def part_keys(item: Constraint) -> list[str]:
    """The keys of an item's parts, outermost first: each binder's and
    guard's key up to its body, then the atom's key."""
    out = []
    while not isinstance(item, Atomic):
        if isinstance(item, Exists):
            out.append(f"Exists(binder={item.binder!r}, body=")
        else:
            out.append(f"EGuard(evar={item.evar!r}, forbidden={key(item.forbidden)}, "
                       f"witness={key(item.witness)}, body=")
        item = item.body
    return out + [key(item)]


def paths(c: Constraint, above: tuple = ()):
    """(the Exists and EGuard nodes above an atom, the atom) for every atom
    of c, left to right."""
    if isinstance(c, Atomic):
        yield above, c
    elif isinstance(c, And):
        yield from paths(c.c1, above)
        yield from paths(c.c2, above)
    elif isinstance(c, (Exists, EGuard)):
        yield from paths(c.body, above + (c,))
    elif not isinstance(c, Omega):
        raise TypeError(c)


def canonical_item(path: tuple, atom: Atomic) -> Constraint:
    # whether each binder is free below it; free ends as the item's ftv
    free = set(ftv(atom))
    kept = []
    for p in reversed(path):
        if isinstance(p, Exists):
            kept.append(p.binder in free)
            free.discard(p.binder)
        else:
            kept.append(False)
            free |= p.forbidden | ftv(p.witness)
    kept.reverse()
    mapping: dict[str, str] = {}
    prefix = []
    j = 0
    for p, keep in zip(path, kept):
        if isinstance(p, Exists):
            if keep:
                while f"e{j}" in free:
                    j += 1
                mapping[p.binder] = f"e{j}"
                prefix.append(f"e{j}")
                j += 1
            continue
        m = {a: b for a, b in mapping.items() if a in p.forbidden | ftv(p.witness)}
        prefix.append((p.evar, frozenset(m.get(a, a) for a in p.forbidden),
                       canonical_type(_rename_type(p.witness, m))))
    m = {a: b for a, b in mapping.items() if a in ftv(atom)}
    item: Constraint = Atomic(canonical_type(_rename_type(atom.lhs, m)),
                              canonical_type(_rename_type(atom.rhs, m)))
    for p in reversed(prefix):
        item = Exists(p, item) if isinstance(p, str) else EGuard(*p, item)
    return item


def items(c: Constraint) -> dict[str, Constraint]:
    """The canonical items of c by key, the first of each key kept."""
    out: dict[str, Constraint] = {}
    for path, atom in paths(c):
        item = canonical_item(path, atom)
        out.setdefault(key(item), item)
    return out


def canonical(c: Constraint) -> Constraint:
    by_key = items(c)
    out = None
    for k in sorted(by_key, reverse=True):
        out = by_key[k] if out is None else And(by_key[k], out)
    return Omega() if out is None else out


def equal(c1: Constraint, c2: Constraint) -> bool:
    return items(c1).keys() == items(c2).keys()
