"""Core syntactic categories, free variables, and canonical forms.

Every node class derives from `Node`: a frozen, slotted record whose
fields are its public slots and whose memo slots (slots named with a
leading `_`) hold facts computed from it at most once.

Types and terms are interned: `TVar`, `Arrow`, `Forall`, `EVarApp`, `Var`,
`Abs` and `App` nodes are built through one table keyed by the class and the
fields, which holds each node strongly and is swept by reference count
(`_sweep`), so there is one node per distinct type or term and `==` and
`hash` on them are identity. `copy`, `deepcopy` and `pickle` return the
interned node. A type node has five memo slots: its free variables
(`ftv`), its E-variables (`_type_evars`, read by `initial.allvar`), its
canonical form (`canonical_type`), its key (`_type_key`) and its text
(`surface.print_type`); a term node has two: its free variables (`fv`) and
its text (`surface.print_term`); an environment keeps its text. Each is
computed at most once, and each but the canonical form and an
environment's text is filled bottom-up by one walker, `_fill`; a type with
no `Forall` in it is marked its own canonical form when it is built.
Constraints, environments and skeletons are not interned; they compare by
structure. The canonical form of a constraint is its trie of items,
factored: one node per trie part, built anew by each call.
"""

from __future__ import annotations

import copy
import functools
from operator import attrgetter
from sys import getrefcount


# The value a memo slot holds from the moment its node is built until its
# fact is computed: None, but for the slots named here. A skeleton's `_neq`
# holds None for "no proof-carrying form", so its empty value is a sentinel;
# it holds NEQ_SELF when the node is its own form, so no node refers to
# itself. A QSub's `_proof` starts as None.
NEQ_UNSET = object()
NEQ_SELF = object()
MEMO_EMPTY = {"_solved": (), "_neq": NEQ_UNSET}


@functools.cache
def _maker(fields: tuple[str, ...], memo: tuple[str, ...], interned: bool,
           mark: str | None = None):
    """Compile a function that takes the fields' and memo slots' setters and
    the memo slots' empty values, and returns a node class's `__init__` and
    `_parts` (the tuple of its fields); classes with the same fields and
    memo slots share it. For an interned class it returns an interning
    `__new__` in place of `__init__`, with a fixed arity, and takes
    `_INTERN` after the empty values; given mark, the source of a new
    type's `_canonical` value, that slot starts with it."""
    values = {n: f"_empty_{n}" for n in memo}
    if mark is not None:
        values["_canonical"] = mark
    indent = "\n" + " " * (12 if interned else 8)
    stores = "".join(f"{indent}_set_{n}(self, {n})" for n in fields)
    stores += "".join(f"{indent}_set_{n}(self, {v})" for n, v in values.items())
    params = [f"_set_{n}" for n in fields + memo] + [f"_empty_{n}" for n in memo]
    args = "".join(f", {n}" for n in fields)
    if not interned:
        src = [f"    def __init__(self{args}):{stores or ' pass'}"]
    else:
        params += ["_get", "_new", "_table", "_limit", "_sweep", "_NO_FORALL"]
        src = [f"    def __new__(cls{args}):",
               f"        key = (cls{args},)",
               "        self = _get(key)",
               "        if self is None:",
               f"            self = _new(cls){stores}",
               "            _table[key] = self",
               "            if len(_table) > _limit[0]:",
               "                _sweep()",
               "        return self"]
    src = [f"def make({', '.join(params)}):", *src,
           f"    def _parts(self):\n        return ({''.join(f'self.{n}, ' for n in fields)})",
           f"    return {'__new__' if interned else '__init__'}, _parts"]
    ns: dict = {}
    exec("\n".join(src), ns)
    return ns["make"]


def _mark(cls: type, fields: tuple[str, ...]) -> str:
    """The source of a new type's `_canonical` value: _NO_FORALL when no
    Forall occurs in it (the fields its class states in `_kids` are so
    marked), else None. A class with fields that states no `_kids`, or
    names one that is not a field, is refused."""
    kids = cls.__dict__.get("_kids", ())
    if ("_kids" not in cls.__dict__ and fields
            or kids is not None and not set(kids) <= set(fields)):
        raise TypeError(f"type class {cls.__qualname__} must state `_kids`, "
                        "a tuple of its fields that hold types, or None")
    if kids is None:  # a Forall
        return "None"
    tests = " and ".join(f"{n}._canonical is _NO_FORALL" for n in kids)
    return f"_NO_FORALL if {tests} else None" if kids else "_NO_FORALL"


# Every node class, and every node class compared by structure (all but
# the interned types and terms), each with `tuple`: the containers that
# `_fold` and the structural `==` and `hash` enter. And the interned
# classes, whose nodes `_sweep` deletes.
_NODES: set[type] = {tuple}
_STRUCTURAL: set[type] = {tuple}
_INTERNED: set[type] = set()

# CPython's tuple hash (xxHash64, as since 3.8), so that a node hashes as
# the tuple of its fields does without hashing its parts recursively.
_MASK = (1 << 64) - 1
_P1, _P2, _P5 = 11400714785074694791, 14029467366897019727, 2870177450012600261


def _tuple_hash(lanes: list[int]) -> int:
    acc = _P5
    for lane in lanes:
        acc = (acc + (lane & _MASK) * _P2) & _MASK
        acc = (((acc << 31) | (acc >> 33)) * _P1) & _MASK
    acc = (acc + (len(lanes) ^ _P5 ^ 3527539)) & _MASK
    if acc == _MASK:
        return 1546275796
    return acc - (1 << 64) if acc >> 63 else acc


class Node:
    """A frozen, slotted record: the base of every node class.

    A subclass lists its fields in its own `__slots__`; a slot whose name
    starts with `_` is a memo slot, not a field. When a subclass is defined
    it gets, once: `__match_args__` (its fields); an `__init__` that stores
    each field through its slot's member descriptor and each memo slot's
    empty value (`MEMO_EMPTY`, else None), so a memo slot starts empty when
    its node is built and reading it is a plain attribute read. A class
    compared by identity, a type or a term, gets an interning `__new__` of
    its own arity in place of `__init__`: it looks the fields up in the
    table and builds a missing node there, a type's `_canonical` slot
    marked from its children's (`_mark`), and sweeps the table once it has
    outgrown its bound (`_sweep`). `_defaults` holds values for the last
    fields, as a function's defaults do. A node has the dataclass repr and
    refuses assignment.

    Every node but an interned type or term compares by structure: `==`
    walks both nodes on one explicit stack, entering the fields of nodes
    and the items of tuples (the entries of an environment, the bindings
    of a substitution) and comparing anything else, a type too, by its own
    `==`; `hash` is that of the tuple of the node's fields, as a dataclass
    has it, computed bottom-up on an explicit stack, with each shared part
    hashed once. `copy` rebuilds a node from its fields, so a copy starts
    with empty memo slots; `pickle` hands the pickler the node's parts in
    post-order, each shared part once, and rebuilds them in a loop; repr
    and deep copy walk an explicit stack too. So a node of any depth has
    all of these.

    A node class is final: defining a class derived from one raises
    TypeError, unless the base is one of the categories declared with
    `final=False` (Term, Type, Expansion, Constraint, Skeleton and, in
    reduction, SubtypeSkeleton), which have no fields. So
    `type(n) is C` decides exactly what the class pattern `C(...)` decides,
    and the walkers a reduction step enters dispatch on `cls = type(n)`
    with an `if cls is C` chain, most frequent class first. A `match` on
    class patterns makes an isinstance call for every case that fails and
    reads `__match_args__` for every capture: in a walker over the seven
    skeleton classes, on CPython 3.11, that was 0.9-1.4 µs per QVar, QApp
    or QSub node, against 0.15-0.2 µs for the chain."""

    __slots__ = ()
    _final = False
    _defaults = None

    def __init_subclass__(cls, final=True):
        super().__init_subclass__()
        for base in cls.__bases__:
            if getattr(base, "_final", False):
                raise TypeError(f"cannot derive {cls.__qualname__} from {base.__qualname__}: "
                                "a node class is final unless declared with final=False")
        fields = tuple(n for n in cls.__dict__.get("__slots__", ()) if n[0] != "_")
        memo = tuple(n for k in reversed(cls.__mro__) for n in k.__dict__.get("__slots__", ())
                     if n[0] == "_")
        interned = cls.__eq__ is object.__eq__  # a type or a term
        mark = _mark(cls, fields) if "_canonical" in memo else None  # a type
        cls._final = final
        _NODES.add(cls)
        if interned:
            _INTERNED.add(cls)
        elif cls.__eq__ is Node.__eq__:
            _STRUCTURAL.add(cls)
        cls.__match_args__ = fields
        setters = (getattr(cls, n).__set__ for n in fields + memo)
        make = _maker(fields, memo, interned, mark)
        init, parts = make(*setters, *(MEMO_EMPTY.get(n) for n in memo),
                           *(_INTERN if interned else ()))
        init.__defaults__ = cls._defaults
        name = "__new__" if interned else "__init__"
        init.__qualname__ = f"{cls.__qualname__}.{name}"
        parts.__qualname__ = f"{cls.__qualname__}._parts"
        setattr(cls, name, staticmethod(init) if interned else init)
        cls._parts = parts

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # each pair on the stack has one class, a structural one
        todo = [(self, other)]
        while todo:
            v1, v2 = todo.pop()
            if type(v1) is tuple:
                if len(v1) != len(v2):
                    return False
                pairs = zip(v1, v2)
            else:
                pairs = zip(v1._parts(), v2._parts())
            for p1, p2 in pairs:
                if p1 is not p2:
                    cls = type(p1)
                    if cls is not type(p2):
                        return False
                    if cls in _STRUCTURAL:
                        todo.append((p1, p2))
                    elif p1 != p2:
                        return False
        return True

    def __hash__(self):
        return _fold(self, _hash_of, hash, {}, _STRUCTURAL)

    def __repr__(self):
        return _fold(self, _repr_of, repr, {})

    def __copy__(self):
        return type(self)(*self._parts())

    def __deepcopy__(self, memo):
        return _fold(self, _copy_of, lambda v: copy.deepcopy(v, memo), memo)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __reduce__(self):
        # the parts in post-order: (class, indices of the parts' entries),
        # or (None, value) for a leaf; tuple is the class of a tuple
        code: list[tuple] = []

        def entry(cls, parts) -> int:
            code.append((cls, parts))
            return len(code) - 1

        _fold(self, lambda v, parts: entry(type(v), parts), lambda v: entry(None, v), {})
        return _decode, (code,)


def _fold(root: Node, build, leaf, done: dict, inner: set[type] = _NODES):
    """build(v, the results of v's parts) at root, computed bottom-up on an
    explicit stack: the parts of a node whose class is in inner are its
    fields, those of a tuple its items, and anything else is a leaf, whose
    result is leaf(v). done maps the id of a node or tuple already folded
    to its result, so a part that is shared is folded once."""
    results: list = []
    todo: list = [(root, False)]
    while todo:
        v, ready = todo.pop()
        if ready:
            k = len(results) - (len(v) if type(v) is tuple else len(v.__match_args__))
            done[id(v)] = result = build(v, results[k:])
            del results[k:]
            results.append(result)
        elif type(v) not in inner:
            results.append(leaf(v))
        elif id(v) in done:
            results.append(done[id(v)])
        else:
            todo.append((v, True))
            todo += ((p, False) for p in reversed(v if type(v) is tuple else v._parts()))
    return results[0]


def _hash_of(v, lanes: list[int]) -> int:
    return _tuple_hash(lanes)


def _decode(code: list):
    """The node whose parts Node.__reduce__ listed in code, rebuilt entry
    by entry: types through the intern table."""
    built: list = []
    for cls, parts in code:
        if cls is None:
            built.append(parts)
        elif cls is tuple:
            built.append(tuple([built[i] for i in parts]))
        else:
            built.append(cls(*[built[i] for i in parts]))
    return built[-1]


def _repr_of(v, texts: list[str]) -> str:
    if type(v) is tuple:
        return f"({', '.join(texts)}{',' if len(texts) == 1 else ''})"
    fields = ", ".join(f"{name}={text}" for name, text in zip(v.__match_args__, texts))
    return f"{type(v).__qualname__}({fields})"


def _copy_of(v, parts: list):
    return tuple(parts) if type(v) is tuple else type(v)(*parts)


# ---------------------------------------------------------------------------
# The intern table


# Every type and term node is interned: the table maps (class, *fields) to
# the one node with those fields, which it holds strongly, so a node
# outlives its last holder elsewhere until the next sweep, and a node built
# again meanwhile is the very one. Its key holds the node's parts.
_TYPES: dict[tuple, Node] = {}
# The table's size past which the next node built sweeps it.
_limit = [4096]


def _table_alone() -> int:
    """What sys.getrefcount reads, in `_sweep`'s loop, for a node that no
    one but the table holds: the count is the interpreter's to define (the
    reference the call's argument takes, for one), so it is measured."""
    table = {0: object()}
    node = table.get(0)
    return getrefcount(node)


_TABLE_ALONE = _table_alone()


def _sweep() -> None:
    """Delete every entry whose node no one but the table holds, then set
    the bound to twice the entries left (at least 4096), so a sweep costs
    amortized O(1) per node built. Entries go newest first: a node's parts
    were built before it, so once its entry and the key that holds them are
    gone, the same pass finds the parts held by no one else and deletes
    them too. A type's canonical form may be newer than the type; it is
    looked at again, with the parts it held, when the type is deleted."""
    table = _TYPES
    get = table.get
    keys = list(table)
    again: list[Node] = []  # released by a node deleted, and maybe passed
    while keys or again:
        if again:
            key = None
            node = again.pop()
        else:
            key = keys.pop()
            node = get(key)
            if node is None:  # deleted with a node in `again`
                continue
        if getrefcount(node) != _TABLE_ALONE:
            continue
        if key is None:
            key = (type(node), *node._parts())
            again += (p for p in node._parts() if type(p) in _INTERNED)
        del table[key]
        if isinstance(node, Type) and isinstance(node._canonical, Type):
            again.append(node._canonical)
    _limit[0] = max(2 * len(table), 4096)


# The `_canonical` slot of a node that is its own canonical form (the node
# itself there would be a reference cycle), and of one with no Forall in it,
# which is so by construction and lets its parents be marked in turn.
_IS_CANONICAL = object()
_NO_FORALL = object()
# What an interning constructor takes besides setters and empty values.
_INTERN = (_TYPES.get, object.__new__, _TYPES, _limit, _sweep, _NO_FORALL)


# ---------------------------------------------------------------------------
# Terms


class Term(Node, final=False):
    """Untyped lambda-term. Nodes are interned, so `==` and `hash` are
    identity, and copies rebuild through the table. The memo slots hold
    pure functions of the node, each computed at most once: its free
    variables (`fv`) and its text (`surface.print_term`)."""

    __slots__ = ("_fv", "_text")

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Var(Term):
    """Term variable: x"""

    __slots__ = ("name",)


class Abs(Term):
    """Abstraction: \\x. M"""

    __slots__ = ("binder", "body")


class App(Term):
    """Application: M @ N"""

    __slots__ = ("fun", "arg")


def fv(m: Term) -> frozenset[str]:
    """Free term variables of a term, kept in its memo slot."""
    free = _get_fv(m)
    return _fill(m, _get_fv, _fv_of) if free is None else free


def _fv_of(m: Term) -> None:
    cls = type(m)
    if cls is App:
        free = m.fun._fv | m.arg._fv
    elif cls is Var:
        free = frozenset((m.name,))
    else:
        free = m.body._fv - {m.binder}
    _set_fv(m, free)


# Read through the descriptor, so that a node that is not a term raises
# TypeError.
_get_fv, _set_fv = Term._fv.__get__, Term._fv.__set__


def term_alpha_eq(m1: Term, m2: Term) -> bool:
    """Alpha-equivalence of terms. A subterm shared by both sides is equal
    to itself at once while every binder above it has the same name on both
    sides (same is then True: the two binder maps are equal)."""

    def go(m1: Term, m2: Term, env1: dict[str, int], env2: dict[str, int], depth: int,
           same: bool) -> bool:
        if same and m1 is m2:
            return True
        cls = type(m1)
        if cls is not type(m2):
            return False
        if cls is Abs:
            x, y = m1.binder, m2.binder
            return go(m1.body, m2.body, {**env1, x: depth}, {**env2, y: depth}, depth + 1,
                      same and x == y)
        if cls is App:
            return (go(m1.fun, m2.fun, env1, env2, depth, same)
                    and go(m1.arg, m2.arg, env1, env2, depth, same))
        if cls is Var:
            x, y = m1.name, m2.name
            if x in env1 or y in env2:
                return env1.get(x) == env2.get(y)
            return x == y
        return False

    return go(m1, m2, {}, {}, 0, True)


# ---------------------------------------------------------------------------
# Types


class Type(Node, final=False):
    """System Fs type. Nodes are interned, so `==` and `hash` are identity,
    and copies rebuild through the table. The memo slots hold pure
    functions of the node, each computed at most once: its free variables
    (`ftv`), its E-variables (`_type_evars`, read by `initial.allvar`),
    its canonical form (`canonical_type`), its key (`_type_key`) and its
    text (`surface.print_type`). Each type class with fields
    states `_kids`, those that hold types, from which a new node's
    no-Forall mark is read (`_mark`); Forall states None, as no Forall is
    so marked."""

    __slots__ = ("_ftv", "_evars", "_canonical", "_key", "_text")

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class TVar(Type):
    """Type variable: a"""

    __slots__ = ("name",)
    _kids = ()


class Arrow(Type):
    """Function type: T1 -> T2"""

    __slots__ = ("dom", "cod")
    _kids = ("dom", "cod")


class Forall(Type):
    """Universal quantifier: all a. T"""

    __slots__ = ("binder", "body")
    _kids = None


class EVarApp(Type):
    """E-variable application: s^{A} T"""

    __slots__ = ("evar", "forbidden", "body")
    _kids = ("body",)


# ---------------------------------------------------------------------------
# Expansions


class Expansion(Node, final=False):
    """Asymmetric expansion term."""

    __slots__ = ()


class Id(Expansion):
    """Null expansion: id"""

    __slots__ = ()


class ForallIntro(Expansion):
    """Quantifier introduction: all a. I (a is not a binder here)"""

    __slots__ = ("var", "rest")


class EVarIntro(Expansion):
    """E-variable introduction: s^{A} I"""

    __slots__ = ("evar", "forbidden", "rest")


class SubStep(Expansion):
    """Subtyping step: I |> T"""

    __slots__ = ("rest", "target")


# ---------------------------------------------------------------------------
# Substitutions

Binding = tuple[str, Type | Expansion]


class Subst(Node):
    """Ordered list of bindings ended by the identity; first match wins. Its
    memo slot holds its index by name, built on first lookup."""

    __slots__ = ("bindings", "_by_name")
    _defaults = ((),)

    def _index(self) -> tuple[dict[str, Type], dict[str, Expansion]]:
        """The first type and the first expansion bound to each name."""
        index = self._by_name
        if index is None:
            types: dict[str, Type] = {}
            exps: dict[str, Expansion] = {}
            for name, val in self.bindings:
                if isinstance(val, Type):
                    types.setdefault(name, val)
                elif isinstance(val, Expansion):
                    exps.setdefault(name, val)
            index = types, exps
            object.__setattr__(self, "_by_name", index)
        return index


IOTA = Subst()


# ---------------------------------------------------------------------------
# Constraints


class Constraint(Node, final=False):
    """Subtyping constraint. Its memo slot holds the relations under which
    every atom below the node holds: () when the node is built, then the
    relations solve.solved found, and REL_F on the constraint of a reduct
    that reduction.preserve returns, which holds under F by construction.
    Constraints are not interned: they compare by structure, as every node
    but a type or a term does."""

    __slots__ = ("_solved",)


class Omega(Constraint):
    """Trivial constraint: omega"""

    __slots__ = ()


class Atomic(Constraint):
    """Atomic constraint: T1 <= T2"""

    __slots__ = ("lhs", "rhs")


class And(Constraint):
    """Conjunction: C1 & C2"""

    __slots__ = ("c1", "c2")


class Exists(Constraint):
    """Existential binder: ex a. C"""

    __slots__ = ("binder", "body")


class EGuard(Constraint):
    """E-variable guard: s^{A;T} C"""

    __slots__ = ("evar", "forbidden", "witness", "body")


# ---------------------------------------------------------------------------
# Type environments


class TypeEnv(Node):
    """Ordered list of (term variable, type) pairs. Its memo slot holds the
    text of its entries (`surface.print_type_env`)."""

    __slots__ = ("entries", "_text")
    _defaults = ((),)

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

    def concat(self, other: "TypeEnv") -> "TypeEnv":
        return TypeEnv(self.entries + other.entries)


def env_eq(g1: TypeEnv, g2: TypeEnv) -> bool:
    """Environment equality: same support, pointwise type_eq (order-insensitive)."""
    if g1.entries == g2.entries:
        return True
    if g1.supp() != g2.supp():
        return False
    return all(type_eq(t, g2.lookup(x)) for x, t in g1.entries)


# ---------------------------------------------------------------------------
# Skeletons


class Skeleton(Node, final=False):
    """Proof term encoding a typing derivation. Its memo slots hold facts
    that are pure functions of the node's subtree, each computed at most
    once and dropped with the node: the node's judgement
    (typecheck.check_skeleton), its proof-carrying form (reduction.to_neq:
    the skeleton with each redundant |> dropped and each target replaced by
    the end of its proof; NEQ_SELF when that is the node itself, None below
    a weakening) and its type and expansion variables (initial.allvar,
    which initial_skeleton stores on the skeleton it builds).
    Each starts empty when the node is built: None, and NEQ_UNSET for the
    form. A node holds a form only once every atom of its constraint was
    decided under F, or was built by a reduction step whose reduct
    reduction.preserve then certified, which is why the constraint of a
    reduct that preserve returns holds REL_F by construction. A QSub also
    keeps the subtyping proof of its step (see QSub)."""

    __slots__ = ("_judgement", "_neq", "_allvar")


class QVar(Skeleton):
    """Variable skeleton: x<ENV>"""

    __slots__ = ("var", "env")


class QAbs(Skeleton):
    """Abstraction skeleton: \\x. Q"""

    __slots__ = ("binder", "body")


class QApp(Skeleton):
    """Application skeleton: Q1 @ Q2"""

    __slots__ = ("fun", "arg")


class QForall(Skeleton):
    """Quantifier skeleton: all a. Q"""

    __slots__ = ("binder", "body")


class QEVar(Skeleton):
    """E-variable skeleton: s^{A} Q"""

    __slots__ = ("evar", "forbidden", "body")


class QSub(Skeleton):
    """Subtyping skeleton: Q |> T. Its `_proof` memo slot holds the proof of
    the step, from Q's type to T, once one is known: the Inst that
    reduction's elaboration settled, or the proof a reduction step built
    the node with; None until then."""

    __slots__ = ("body", "target", "_proof")


class QWeak(Skeleton):
    """Weakening skeleton: Q + ENV"""

    __slots__ = ("body", "extra")


# ---------------------------------------------------------------------------
# Free type variables


def ftv(subject) -> frozenset[str]:
    """Free type variables of a type, expansion, substitution, constraint,
    environment or skeleton."""
    cls = type(subject)
    if cls is TypeEnv:
        out = frozenset()
        for _, t in subject.entries:
            out |= _type_ftv(t)
        return out
    if isinstance(subject, Type):
        return _type_ftv(subject)
    if cls is Subst:
        out: frozenset[str] = frozenset()
        for name, val in subject.bindings:
            if isinstance(val, Type):
                out |= {name} | ftv(val)
            else:
                out |= ftv(val)
        return out
    if cls is Id:
        return frozenset()
    if cls is ForallIntro:
        return ftv(subject.rest) | {subject.var}
    if cls is EVarIntro:
        return ftv(subject.rest) | subject.forbidden
    if cls is SubStep:
        return ftv(subject.rest) | ftv(subject.target)
    if cls is Omega:
        return frozenset()
    if cls is Atomic:
        return ftv(subject.lhs) | ftv(subject.rhs)
    if cls is And:
        return ftv(subject.c1) | ftv(subject.c2)
    if cls is Exists:
        return ftv(subject.body) - {subject.binder}
    if cls is EGuard:
        return subject.forbidden | ftv(subject.witness) | ftv(subject.body)
    if cls is QVar:
        return ftv(subject.env)
    if cls is QAbs:
        return ftv(subject.body)
    if cls is QApp:
        return ftv(subject.fun) | ftv(subject.arg)
    if cls is QForall:
        return ftv(subject.body) - {subject.binder}
    if cls is QEVar:
        return subject.forbidden | ftv(subject.body)
    if cls is QSub:
        return ftv(subject.body) | ftv(subject.target)
    if cls is QWeak:
        return ftv(subject.body) | ftv(subject.extra)
    raise TypeError(f"ftv: unsupported subject {subject!r}")


def _type_ftv(t: Type) -> frozenset[str]:
    free = t._ftv
    return _fill(t, _get_ftv, _ftv_of) if free is None else free


def _type_evars(t: Type) -> frozenset[str]:
    """The E-variables of a type, kept in its memo slot."""
    found = t._evars
    return _fill(t, _get_evars, _evars_of) if found is None else found


def _fill(t: Type | Term, get, fill):
    """get(t), once fill(u), which stores u's memo from its parts', has run
    on t and on each part of t whose memo is None: bottom-up on an explicit
    stack, so a type or a term of any depth has it. Every bottom-up fact of
    a type or a term is filled here: its free variables (`ftv`, `fv`), its
    E-variables, its key (`_type_key`) and its text (`surface`)."""
    todo = [t]
    while todo:
        u = todo[-1]
        if get(u) is not None:
            todo.pop()
            continue
        cls = type(u)
        if cls is Arrow:
            parts = (u.dom, u.cod)
        elif cls is App:
            parts = (u.fun, u.arg)
        elif cls is TVar or cls is Var:
            parts = ()
        elif cls is Forall or cls is EVarApp or cls is Abs:
            parts = (u.body,)
        else:
            raise TypeError(u)
        missing = [p for p in parts if get(p) is None]
        if missing:
            todo += missing
        else:
            todo.pop()
            fill(u)
    return get(t)


def _ftv_of(t: Type) -> None:
    cls = type(t)
    if cls is Arrow:
        free = t.dom._ftv | t.cod._ftv
    elif cls is TVar:
        free = frozenset((t.name,))
    elif cls is Forall:
        free = t.body._ftv - {t.binder}
    else:
        free = t.body._ftv | t.forbidden
    _set_ftv(t, free)


def _evars_of(t: Type) -> None:
    cls = type(t)
    if cls is Arrow:
        found = t.dom._evars | t.cod._evars
    elif cls is TVar:
        found = frozenset()
    elif cls is Forall:
        found = t.body._evars
    else:
        found = t.body._evars | {t.evar}
    _set_evars(t, found)


_get_ftv, _get_evars = attrgetter("_ftv"), attrgetter("_evars")
_set_ftv, _set_evars = Type._ftv.__set__, Type._evars.__set__


# ---------------------------------------------------------------------------
# Fresh names


class FreshSupply(Node):
    """Per-family counters for fresh names; emitted names avoid a fixed set."""

    __slots__ = ("tvar_next", "evar_next", "avoid", "tvar_prefix", "evar_prefix")
    _defaults = (0, 0, frozenset(), "a", "s")

    def next_name(self, prefix: str, i: int) -> tuple[str, int]:
        """The first name prefix<j> with j >= i that is not avoided, and
        j + 1: the counter to pass for the name after it."""
        while f"{prefix}{i}" in self.avoid:
            i += 1
        return f"{prefix}{i}", i + 1


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Smallest-index variant of base not in avoid."""
    if base not in avoid:
        return base
    i = 0
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


# ---------------------------------------------------------------------------
# Canonical types


def _canon(t: Type, counter: list[int], avoid: frozenset[str]) -> Type:
    """Bottom-up normalization: dummy removal, block ordering, binder renaming."""
    if t._canonical is _NO_FORALL:
        return t
    match t:
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
    free = _type_ftv(body)
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
    from .expansion import apply_subst
    fresh: list[str] = []
    for _ in ordered:
        while True:
            cand = f"b{counter[0]}"
            counter[0] += 1
            if cand not in avoid:
                break
        fresh.append(cand)
    body = apply_subst(Subst(tuple((a, TVar(b)) for a, b in zip(ordered, fresh))), body)
    for name in reversed(fresh):
        body = Forall(name, body)
    return body


def canonical_type(t: Type) -> Type:
    """Canonical representative of t's equality class (alpha, adjacent-quantifier
    reordering, dummy-quantifier suppression). It is kept in t's memo slot,
    and the canonical form, its own canonical form, is marked as such; a
    type with no Forall in it was marked so when it was built. Inner blocks
    are named first, and a block's binders are renamed by apply_subst, whose
    binder rule the inner binders follow: canonical_type of
    all b0. (all c. c) -> b0 is all b1. (all b0. b0) -> b1."""
    c = t._canonical
    if c is None:
        c = _canon(t, [0], _type_ftv(t))
        if c._canonical is None:
            object.__setattr__(c, "_canonical", _IS_CANONICAL)
        if c is not t:
            object.__setattr__(t, "_canonical", c)
        return c
    return t if c is _IS_CANONICAL or c is _NO_FORALL else c


def type_eq(t1: Type, t2: Type) -> bool:
    """Equality of types modulo the equational theory."""
    return t1 is t2 or canonical_type(t1) is canonical_type(t2)


def as_arrow(t: Type) -> Arrow | None:
    """The arrow t equals modulo the equational theory (t itself when it is
    one), or None: how an application rule reads its function part's type."""
    if isinstance(t, Arrow):
        return t
    c = canonical_type(t)
    return c if isinstance(c, Arrow) else None


# ---------------------------------------------------------------------------
# Canonical constraints
#
# An item is one atom with the ex binders and guards above it. A canonical item
# drops each ex binder not free below it, renames the others e<j> left to right
# (least j not free in the item) and holds canonical types. The items of c form
# a trie: a dict per distinct prefix maps each part extending it (a guard (s,
# forbidden, canonical witness), a renamed binder) to the longer prefix's dict,
# and each atom (canonical lhs, canonical rhs) to None. Items are ordered by their
# parts' keys, none a proper prefix of another: so by kind, atoms, guards, binders
# (At < EG < Ex), then by key, built only for two or more siblings of one kind.
# The walk is linear in c, plus Θ(prefix) per item below an ex binder. The
# representative is the trie itself, factored: one node per trie part, so on
# an n-chain n guards, not the n²/2 of repeating each atom under its whole
# prefix. The CLI prints the text of that flattened form, which the digests
# of bench/cli/cases.json pin, straight from the representative
# (surface.print_flattened): no node of the flattened form is built.


def _vars_key(vs: frozenset[str]) -> str:
    return f"frozenset({{{', '.join(map(repr, sorted(vs)))}}})" if vs else "frozenset()"


def _type_key(t: Type) -> str:
    key = t._key
    return _fill(t, _get_key, _key_of) if key is None else key


def _key_of(t: Type) -> None:
    cls = type(t)
    if cls is Arrow:
        key = f"Arrow(dom={t.dom._key}, cod={t.cod._key})"
    elif cls is TVar:
        key = f"TVar(name={t.name!r})"
    elif cls is Forall:
        key = f"Forall(binder={t.binder!r}, body={t.body._key})"
    else:
        key = f"EVarApp(evar={t.evar!r}, forbidden={_vars_key(t.forbidden)}, body={t.body._key})"
    _set_key(t, key)


_get_key, _set_key = attrgetter("_key"), Type._key.__set__


def _guard_key(s: str, forbidden: frozenset[str], witness: Type) -> str:
    return f"EGuard(evar={s!r}, forbidden={_vars_key(forbidden)}, witness={_type_key(witness)}, body="


_KEYS = (lambda p: f"Atomic(lhs={_type_key(p[0])}, rhs={_type_key(p[1])})",
         lambda p: _guard_key(*p), lambda a: f"Exists(binder={a!r}, body=")


def _insert_under_ex(trie: dict, path: list, atom: Atomic) -> None:
    """Insert the item of an atom below an ex binder into the trie from its
    root: rename binders first, then canonicalize the types they occur in."""
    free, path, j = set(ftv(atom)), list(path), 0  # free: the item's ftv once the loop ends
    for i in reversed(range(len(path))):
        p = path[i]
        if type(p) is not str:
            free |= p[1] | _type_ftv(p[3])
        elif p in free:
            free.discard(p)
        else:
            path[i] = None  # not free below: dropped
    from .expansion import apply_subst
    mapping: dict[str, str] = {}

    def canon(t: Type) -> Type:
        m = tuple((a, TVar(b)) for a, b in mapping.items() if a in _type_ftv(t))
        return canonical_type(apply_subst(Subst(m), t) if m else t)

    for p in path:
        if type(p) is str:
            while f"e{j}" in free:
                j += 1
            mapping[p] = name = f"e{j}"
            trie = trie.setdefault(name, {})
            j += 1
        elif p is not None:
            forbidden = frozenset(mapping.get(a, a) for a in p[1])
            trie = trie.setdefault((p[0], forbidden, canon(p[3])), {})
    trie[canon(atom.lhs), canon(atom.rhs)] = None


def _trie(c: Constraint) -> dict:
    """The trie of c's canonical items, by one walk with the path on an explicit
    stack: a guard's witness is canonicalized once, its node made at the first atom."""
    path: list = []  # ex binders; guards (s, forbidden, canonical witness, witness)
    nodes: list[dict] = [{}]  # nodes[i]: the trie node of path[:i], if that holds no ex binder
    stack: list[tuple[Constraint, int, bool]] = [(c, 0, True)]  # node, depth, no ex above
    while stack:
        node, d, plain = stack.pop()
        del path[d:], nodes[d + 1:]
        cls = type(node)
        if cls is Atomic and not plain:
            _insert_under_ex(nodes[0], path, node)
        elif cls is Atomic:
            for i in range(len(nodes) - 1, d):
                nodes.append(nodes[i].setdefault(path[i][:3], {}))
            nodes[d][canonical_type(node.lhs), canonical_type(node.rhs)] = None
        elif cls is And:
            stack += ((node.c2, d, plain), (node.c1, d, plain))
        elif cls is EGuard:
            path.append((node.evar, node.forbidden, canonical_type(node.witness), node.witness))
            stack.append((node.body, d + 1, plain))
        elif cls is Exists:
            path.append(node.binder)
            stack.append((node.body, d + 1, False))
        elif cls is not Omega:
            raise TypeError(node)
    return nodes[0]


def canonical_constraint(c: Constraint) -> Constraint:
    """Canonical representative of c's equality class: the trie of its
    canonical items, factored. A trie node is the right-nested And of its
    children in key order (Omega for an empty root); a guard part wraps its
    child's rendering in an EGuard, a binder part in an Exists. So the output
    has one node per trie part and one And per sibling after the first;
    surface.print_flattened prints it with each item under its whole prefix.
    Built bottom-up on an explicit stack: a node's children are rendered
    onto `out`, in order, then joined."""
    root = _trie(c)
    if not root:
        return Omega()
    out: list[Constraint] = []
    stack: list = [(None, root, 0)]  # part, its trie node, its children's count once rendered
    while stack:
        part, node, k = stack.pop()
        if not k:  # first visit: render the atoms, then the other children in turn
            kinds: tuple[list, list, list] = ([], [], [])  # atoms (pairs), guards (triples), binders
            for p in node:
                kinds[2 if type(p) is str else len(p) - 2].append(p)
            for parts, key in zip(kinds, _KEYS):
                if len(parts) > 1:
                    parts.sort(key=key)
            out += (Atomic(*p) for p in kinds[0])
            stack.append((part, node, len(node)))
            stack += ((p, node[p], 0) for p in reversed(kinds[2]))
            stack += ((p, node[p], 0) for p in reversed(kinds[1]))
            continue
        body = out.pop()
        for _ in range(k - 1):
            body = And(out.pop(), body)
        out.append(body if part is None else Exists(part, body) if type(part) is str
                   else EGuard(*part, body))
    return out[0]


def constraint_eq(c1: Constraint, c2: Constraint) -> bool:
    """Equality of constraints modulo the equational theory: equal tries."""
    todo = [(_trie(c1), _trie(c2))]
    while todo:
        n1, n2 = todo.pop()
        if n1.keys() != n2.keys():
            return False
        todo += ((child, n2[p]) for p, child in n1.items() if child is not None)
    return True
