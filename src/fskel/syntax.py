"""Core syntactic categories, free variables, and canonical forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Untyped lambda-term."""


@dataclass(frozen=True)
class Var(Term):
    """Term variable: x"""

    name: str


@dataclass(frozen=True)
class Abs(Term):
    """Abstraction: \\x. M"""

    binder: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    """Application: M @ N"""

    fun: Term
    arg: Term


def fv(m: Term) -> frozenset[str]:
    """Free term variables of a term."""
    match m:
        case Var(x):
            return frozenset({x})
        case Abs(x, body):
            return fv(body) - {x}
        case App(f, a):
            return fv(f) | fv(a)
    raise TypeError(m)


def term_alpha_eq(m1: Term, m2: Term) -> bool:
    """Alpha-equivalence of terms."""

    def go(m1: Term, m2: Term, env1: dict[str, int], env2: dict[str, int], depth: int) -> bool:
        match m1, m2:
            case Var(x), Var(y):
                if x in env1 or y in env2:
                    return env1.get(x) == env2.get(y)
                return x == y
            case Abs(x, b1), Abs(y, b2):
                return go(b1, b2, {**env1, x: depth}, {**env2, y: depth}, depth + 1)
            case App(f1, a1), App(f2, a2):
                return go(f1, f2, env1, env2, depth) and go(a1, a2, env1, env2, depth)
        return False

    return go(m1, m2, {}, {}, 0)


# ---------------------------------------------------------------------------
# Types


class Type:
    """System Fs type."""


@dataclass(frozen=True)
class TVar(Type):
    """Type variable: a"""

    name: str


@dataclass(frozen=True)
class Arrow(Type):
    """Function type: T1 -> T2"""

    dom: Type
    cod: Type


@dataclass(frozen=True)
class Forall(Type):
    """Universal quantifier: all a. T"""

    binder: str
    body: Type


@dataclass(frozen=True)
class EVarApp(Type):
    """E-variable application: s^{A} T"""

    evar: str
    forbidden: frozenset[str]
    body: Type


# ---------------------------------------------------------------------------
# Expansions


class Expansion:
    """Asymmetric expansion term."""


@dataclass(frozen=True)
class Id(Expansion):
    """Null expansion: id"""


@dataclass(frozen=True)
class ForallIntro(Expansion):
    """Quantifier introduction: all a. I (a is not a binder here)"""

    var: str
    rest: Expansion


@dataclass(frozen=True)
class EVarIntro(Expansion):
    """E-variable introduction: s^{A} I"""

    evar: str
    forbidden: frozenset[str]
    rest: Expansion


@dataclass(frozen=True)
class SubStep(Expansion):
    """Subtyping step: I |> T"""

    rest: Expansion
    target: Type


# ---------------------------------------------------------------------------
# Substitutions

Binding = tuple[str, Union[Type, Expansion]]


@dataclass(frozen=True)
class Subst:
    """Ordered list of bindings ended by the identity; first match wins."""

    bindings: tuple[Binding, ...] = ()

    def lookup_tvar(self, a: str) -> Type:
        for name, val in self.bindings:
            if name == a and isinstance(val, Type):
                return val
        return TVar(a)

    def lookup_evar(self, s: str) -> Expansion:
        for name, val in self.bindings:
            if name == s and isinstance(val, Expansion):
                return val
        return EVarIntro(s, frozenset(), Id())


IOTA = Subst()


# ---------------------------------------------------------------------------
# Constraints


class Constraint:
    """Subtyping constraint."""


@dataclass(frozen=True)
class Omega(Constraint):
    """Trivial constraint: omega"""


@dataclass(frozen=True)
class Atomic(Constraint):
    """Atomic constraint: T1 <= T2"""

    lhs: Type
    rhs: Type


@dataclass(frozen=True)
class And(Constraint):
    """Conjunction: C1 & C2"""

    c1: Constraint
    c2: Constraint


@dataclass(frozen=True)
class Exists(Constraint):
    """Existential binder: ex a. C"""

    binder: str
    body: Constraint


@dataclass(frozen=True)
class EGuard(Constraint):
    """E-variable guard: s^{A;T} C"""

    evar: str
    forbidden: frozenset[str]
    witness: Type
    body: Constraint


# ---------------------------------------------------------------------------
# Type environments


@dataclass(frozen=True)
class TypeEnv:
    """Ordered list of (term variable, type) pairs."""

    entries: tuple[tuple[str, Type], ...] = ()

    def well_formed(self) -> bool:
        names = [x for x, _ in self.entries]
        return len(names) == len(set(names))

    def lookup(self, x: str) -> Type | None:
        for name, t in self.entries:
            if name == x:
                return t
        return None

    def supp(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.entries)

    def remove(self, x: str) -> "TypeEnv":
        return TypeEnv(tuple(e for e in self.entries if e[0] != x))

    def extend(self, x: str, t: Type) -> "TypeEnv":
        return TypeEnv(self.entries + ((x, t),))

    def concat(self, other: "TypeEnv") -> "TypeEnv":
        return TypeEnv(self.entries + other.entries)


def env_eq(g1: TypeEnv, g2: TypeEnv) -> bool:
    """Environment equality: same support, pointwise type_eq (order-insensitive)."""
    if g1.supp() != g2.supp():
        return False
    return all(type_eq(t, g2.lookup(x)) for x, t in g1.entries)


# ---------------------------------------------------------------------------
# Skeletons


class Skeleton:
    """Proof term encoding a typing derivation."""


@dataclass(frozen=True)
class QVar(Skeleton):
    """Variable skeleton: x<ENV>"""

    var: str
    env: TypeEnv


@dataclass(frozen=True)
class QAbs(Skeleton):
    """Abstraction skeleton: \\x. Q"""

    binder: str
    body: Skeleton


@dataclass(frozen=True)
class QApp(Skeleton):
    """Application skeleton: Q1 @ Q2"""

    fun: Skeleton
    arg: Skeleton


@dataclass(frozen=True)
class QForall(Skeleton):
    """Quantifier skeleton: all a. Q"""

    binder: str
    body: Skeleton


@dataclass(frozen=True)
class QEVar(Skeleton):
    """E-variable skeleton: s^{A} Q"""

    evar: str
    forbidden: frozenset[str]
    body: Skeleton


@dataclass(frozen=True)
class QSub(Skeleton):
    """Subtyping skeleton: Q |> T"""

    body: Skeleton
    target: Type


@dataclass(frozen=True)
class QWeak(Skeleton):
    """Weakening skeleton: Q + ENV"""

    body: Skeleton
    extra: TypeEnv


# ---------------------------------------------------------------------------
# Free type variables


def ftv(subject) -> frozenset[str]:
    """Free type variables of any syntactic category (or a set/list of them)."""
    match subject:
        case TVar(a):
            return frozenset({a})
        case Arrow(d, c):
            return ftv(d) | ftv(c)
        case Forall(a, body):
            return ftv(body) - {a}
        case EVarApp(_, forbidden, body):
            return ftv(body) | forbidden
        case Id():
            return frozenset()
        case ForallIntro(a, rest):
            return ftv(rest) | {a}
        case EVarIntro(_, forbidden, rest):
            return ftv(rest) | forbidden
        case SubStep(rest, target):
            return ftv(rest) | ftv(target)
        case Subst(bindings):
            out: frozenset[str] = frozenset()
            for name, val in bindings:
                if isinstance(val, Type):
                    out |= {name} | ftv(val)
                else:
                    out |= ftv(val)
            return out
        case Omega():
            return frozenset()
        case Atomic(lhs, rhs):
            return ftv(lhs) | ftv(rhs)
        case And(c1, c2):
            return ftv(c1) | ftv(c2)
        case Exists(a, body):
            return ftv(body) - {a}
        case EGuard(_, forbidden, witness, body):
            return forbidden | ftv(witness) | ftv(body)
        case TypeEnv(entries):
            out = frozenset()
            for _, t in entries:
                out |= ftv(t)
            return out
        case QVar(_, env):
            return ftv(env)
        case QAbs(_, body):
            return ftv(body)
        case QApp(f, a):
            return ftv(f) | ftv(a)
        case QForall(a, body):
            return ftv(body) - {a}
        case QEVar(_, forbidden, body):
            return forbidden | ftv(body)
        case QSub(body, target):
            return ftv(body) | ftv(target)
        case QWeak(body, extra):
            return ftv(body) | ftv(extra)
        case frozenset() | set() | list() | tuple():
            out = frozenset()
            for item in subject:
                out |= ftv(item) if not isinstance(item, str) else frozenset({item})
            return out
    raise TypeError(f"ftv: unsupported subject {subject!r}")


def evars_of(subject) -> frozenset[str]:
    """All expansion variables occurring in a value (they are never bound)."""
    match subject:
        case EVarApp(s, _, body):
            return {s} | evars_of(body)
        case EVarIntro(s, _, rest):
            return {s} | evars_of(rest)
        case EGuard(s, _, witness, body):
            return {s} | evars_of(witness) | evars_of(body)
        case QEVar(s, _, body):
            return {s} | evars_of(body)
        case TVar(_) | Omega() | Id() | Var(_):
            return frozenset()
        case Arrow(d, c):
            return evars_of(d) | evars_of(c)
        case Forall(_, body) | Exists(_, body) | QForall(_, body) | QAbs(_, body):
            return evars_of(body)
        case ForallIntro(_, rest):
            return evars_of(rest)
        case SubStep(rest, target):
            return evars_of(rest) | evars_of(target)
        case Atomic(lhs, rhs):
            return evars_of(lhs) | evars_of(rhs)
        case And(c1, c2):
            return evars_of(c1) | evars_of(c2)
        case TypeEnv(entries):
            out: frozenset[str] = frozenset()
            for _, t in entries:
                out |= evars_of(t)
            return out
        case QVar(_, env):
            return evars_of(env)
        case QApp(f, a):
            return evars_of(f) | evars_of(a)
        case QSub(body, target):
            return evars_of(body) | evars_of(target)
        case QWeak(body, extra):
            return evars_of(body) | evars_of(extra)
        case Subst(bindings):
            out = frozenset()
            for _, val in bindings:
                out |= evars_of(val)
            return out
    raise TypeError(f"evars_of: unsupported subject {subject!r}")


# ---------------------------------------------------------------------------
# Fresh names


@dataclass(frozen=True)
class FreshSupply:
    """Per-family counters for fresh names; emitted names avoid a fixed set."""

    tvar_next: int = 0
    evar_next: int = 0
    avoid: frozenset[str] = frozenset()
    tvar_prefix: str = "a"
    evar_prefix: str = "s"

    def fresh_tvar(self) -> tuple[str, "FreshSupply"]:
        i = self.tvar_next
        while f"{self.tvar_prefix}{i}" in self.avoid:
            i += 1
        name = f"{self.tvar_prefix}{i}"
        return name, FreshSupply(i + 1, self.evar_next, self.avoid, self.tvar_prefix, self.evar_prefix)

    def fresh_evar(self) -> tuple[str, "FreshSupply"]:
        i = self.evar_next
        while f"{self.evar_prefix}{i}" in self.avoid:
            i += 1
        name = f"{self.evar_prefix}{i}"
        return name, FreshSupply(self.tvar_next, i + 1, self.avoid, self.tvar_prefix, self.evar_prefix)


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Smallest-index variant of base not in avoid."""
    if base not in avoid:
        return base
    i = 0
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


# ---------------------------------------------------------------------------
# Capture-avoiding renaming inside types (used by canonicalization)


def rename_type(t: Type, mapping: dict[str, str]) -> Type:
    """Apply a variable renaming to the free type variables of t."""
    match t:
        case TVar(a):
            return TVar(mapping.get(a, a))
        case Arrow(d, c):
            return Arrow(rename_type(d, mapping), rename_type(c, mapping))
        case Forall(a, body):
            inner = {k: v for k, v in mapping.items() if k != a}
            # a fixed renaming target colliding with the binder would capture;
            # canonicalization only ever renames into fresh names, so just guard.
            if a in inner.values():
                raise ValueError("rename_type: capture")
            return Forall(a, rename_type(body, inner))
        case EVarApp(s, forbidden, body):
            return EVarApp(s, frozenset(mapping.get(a, a) for a in forbidden), rename_type(body, mapping))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Canonical types


def _canon(t: Type, counter: list[int], avoid: frozenset[str]) -> Type:
    """Bottom-up normalization: dummy removal, block ordering, binder renaming."""
    match t:
        case TVar(_):
            return t
        case Arrow(d, c):
            return Arrow(_canon(d, counter, avoid), _canon(c, counter, avoid))
        case EVarApp(s, forbidden, body):
            return EVarApp(s, forbidden, _canon(body, counter, avoid))
        case Forall(_, _):
            pass
        case _:
            raise TypeError(t)

    # Collect the maximal quantifier block, canonicalizing the body below it.
    binders: list[str] = []
    cur: Type = t
    while isinstance(cur, Forall):
        binders.append(cur.binder)
        cur = cur.body
    body = _canon(cur, counter, avoid)

    # Drop dummies and shadowed binders, outermost first.
    free = ftv(body)
    kept: list[str] = []
    for i, a in enumerate(binders):
        if a in binders[i + 1:]:
            continue  # shadowed: never free in the rest
        if a in free:
            kept.append(a)

    if not kept:
        return body

    # Order binders by their free-occurrence positions in the body.
    occ: dict[str, list[int]] = {a: [] for a in kept}

    def walk(t2: Type, shadow: frozenset[str], idx: list[int]) -> None:
        here = idx[0]
        idx[0] += 1
        match t2:
            case TVar(a):
                if a in occ and a not in shadow:
                    occ[a].append(here)
            case Arrow(d, c):
                walk(d, shadow, idx)
                walk(c, shadow, idx)
            case Forall(a, b):
                walk(b, shadow | {a}, idx)
            case EVarApp(_, forbidden, b):
                for a in forbidden:
                    if a in occ and a not in shadow:
                        occ[a].append(here)
                walk(b, shadow, idx)

    walk(body, frozenset(), [0])
    order = sorted(range(len(kept)), key=lambda i: (tuple(sorted(occ[kept[i]])), i))
    ordered = [kept[i] for i in order]

    # Rename block binders to canonical fresh names, outermost first.
    mapping: dict[str, str] = {}
    fresh: list[str] = []
    for a in ordered:
        while True:
            cand = f"b{counter[0]}"
            counter[0] += 1
            if cand not in avoid:
                break
        mapping[a] = cand
        fresh.append(cand)
    body = rename_type(body, mapping)
    for name in reversed(fresh):
        body = Forall(name, body)
    return body


def canonical_type(t: Type) -> Type:
    """Canonical representative of t's equality class (alpha, adjacent-quantifier
    reordering, dummy-quantifier suppression)."""
    return _canon(t, [0], ftv(t))


def type_eq(t1: Type, t2: Type) -> bool:
    """Equality of types modulo the equational theory."""
    return t1 == t2 or canonical_type(t1) == canonical_type(t2)


# ---------------------------------------------------------------------------
# Canonical constraints

# A prefix element is ("ex", a) or ("guard", s, forbidden, witness).
PrefixItem = tuple
Item = tuple[tuple[PrefixItem, ...], "Atomic"]


def _items(c: Constraint) -> list[tuple[tuple[PrefixItem, ...], Atomic | None]]:
    match c:
        case Omega():
            return []
        case Atomic(_, _):
            return [((), c)]
        case And(c1, c2):
            return _items(c1) + _items(c2)
        case Exists(a, body):
            out = []
            for prefix, atom in _items(body):
                free = _item_ftv(prefix, atom)
                if a in free:
                    out.append(((("ex", a),) + prefix, atom))
                else:
                    out.append((prefix, atom))  # dummy binder dropped
            return out
        case EGuard(s, forbidden, witness, body):
            return [((("guard", s, forbidden, witness),) + prefix, atom) for prefix, atom in _items(body)]
    raise TypeError(c)


def _item_ftv(prefix: tuple[PrefixItem, ...], atom: Atomic | None) -> frozenset[str]:
    free = ftv(atom) if atom is not None else frozenset()
    for p in reversed(prefix):
        if p[0] == "ex":
            free = free - {p[1]}
        else:
            free = free | p[2] | ftv(p[3])
    return free


def _rename_item(prefix, atom, mapping: dict[str, str]):
    new_prefix = []
    mapping = dict(mapping)
    for p in prefix:
        if p[0] == "ex":
            new_prefix.append(("ex", mapping.get(p[1], p[1])))
        else:
            _, s, forbidden, witness = p
            new_prefix.append(("guard", s, frozenset(mapping.get(a, a) for a in forbidden), rename_type(witness, mapping)))
    new_atom = Atomic(rename_type(atom.lhs, mapping), rename_type(atom.rhs, mapping)) if atom else None
    return tuple(new_prefix), new_atom


def _canon_item(prefix, atom):
    # Canonicalize embedded types first (existential binders act as free names).
    prefix = tuple(
        p if p[0] == "ex" else ("guard", p[1], p[2], canonical_type(p[3]))
        for p in prefix
    )
    if atom is not None:
        atom = Atomic(canonical_type(atom.lhs), canonical_type(atom.rhs))
    # Canonically rename existential binders, left to right.
    mapping: dict[str, str] = {}
    used: set[str] = set(_item_ftv(prefix, atom))
    for p in prefix:
        if p[0] != "ex":
            continue
        j = 0
        while f"e{j}" in used:
            j += 1
        name = f"e{j}"
        used.add(name)
        mapping[p[1]] = name
    _, atom = _rename_item((), atom, mapping)
    # Rebuild prefix with the final mapping applied consistently.
    out_prefix = []
    cur_map: dict[str, str] = {}
    for p in prefix:
        if p[0] == "ex":
            out_prefix.append(("ex", mapping[p[1]]))
            cur_map[p[1]] = mapping[p[1]]
        else:
            rp, _ = _rename_item((p,), None, cur_map)
            out_prefix.append(rp[0])
    return tuple(out_prefix), atom


def _rebuild_item(prefix, atom) -> Constraint:
    c: Constraint = atom if atom is not None else Omega()
    for p in reversed(prefix):
        if p[0] == "ex":
            c = Exists(p[1], c)
        else:
            c = EGuard(p[1], p[2], p[3], c)
    return c


def canonical_items(c: Constraint) -> list:
    """Deduplicated, canonically renamed (prefix, atom) items of c."""
    items = [_canon_item(prefix, atom) for prefix, atom in _items(c)]
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def canonical_constraint(c: Constraint) -> Constraint:
    """Canonical representative of c's equality class."""
    items = canonical_items(c)
    if not items:
        return Omega()
    rebuilt = sorted((_rebuild_item(p, a) for p, a in items), key=_constraint_key)
    out = rebuilt[-1]
    for item in reversed(rebuilt[:-1]):
        out = And(item, out)
    return out


def _constraint_key(c: Constraint) -> str:
    return repr(c)


def constraint_eq(c1: Constraint, c2: Constraint) -> bool:
    """Equality of constraints modulo the equational theory."""
    return canonical_constraint(c1) == canonical_constraint(c2)
