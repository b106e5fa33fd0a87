"""Interned types and terms: one node per distinct type or term, held in one
table that a sweep clears of the nodes nothing else holds, with a type's free
variables, canonical form and key kept in memo slots of the node."""

import copy
import gc
import pickle
import random

import pytest

from fskel import syntax
from fskel.surface import parse_skeleton, parse_type
from fskel.syntax import (
    Abs, App, Arrow, EVarApp, Forall, QAbs, QVar, TVar, TypeEnv, Var, _canon, _type_key,
    canonical_type, ftv,
)
from fskel.typecheck import check_skeleton
from generators import random_type
from helpers import count_calls


def test_built_and_parsed_types_are_one_object():
    built = Arrow(EVarApp("s", frozenset({"b", "a"}), TVar("a")),
                  Forall("c", Arrow(TVar("c"), TVar("b"))))
    assert parse_type("s^{a,b} a -> all c. c -> b") is built
    assert parse_type("(s^{b,a} a) -> (all c. (c -> b))") is built
    assert TVar("a") is TVar("a") and TVar("a") is not TVar("b")
    assert built == parse_type("s^{a,b} a -> all c. c -> b")
    assert built != Arrow(TVar("a"), TVar("b"))
    assert hash(built) == hash(parse_type("s^{a,b} a -> all c. c -> b"))
    with pytest.raises(TypeError):
        Arrow(TVar("a"))


def test_copies_are_the_interned_object():
    t = parse_type("all a. s^{a,b} (a -> b) -> a")
    fields = repr(t)
    for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert copied is t
    assert repr(t) == fields  # a copy leaves the shared node's fields alone
    q = parse_skeleton("\\x. x<x: all a. a -> a>")
    copied = copy.deepcopy(q)
    assert copied == q and copied is not q
    assert copied.body.env.entries[0][1] is q.body.env.entries[0][1]


def test_facts_are_kept_on_the_node():
    t = parse_type("all a. all z. s^{a} (a -> b)")
    c = canonical_type(t)
    assert c is parse_type("all b0. s^{b0} (b0 -> b)")
    assert t._canonical is c and canonical_type(c) is c
    assert c._canonical is not c  # a sentinel: no reference cycle
    assert ftv(t) is ftv(t) and ftv(t) == {"b"}
    assert _type_key(c) is _type_key(parse_type("all b0. s^{b0} (b0 -> b)"))


def test_canon_runs_once_per_distinct_type(monkeypatch):
    texts = ["all a. a -> b", "all a. all b. b -> a -> c", "s^{a} (all c. c)", "a -> a",
             "all a. all a. a"]

    def canon_calls(chosen):
        types = [parse_type(text) for text in chosen]  # alive until the return
        calls = count_calls(monkeypatch, ["syntax._canon"])
        for t in types:
            canonical_type(t)
        repeat = calls["syntax._canon"]
        for t in types:
            assert canonical_type(t) is canonical_type(canonical_type(t))
        monkeypatch.undo()
        assert calls["syntax._canon"] == repeat  # nothing computed twice
        return repeat

    rng = random.Random(5)
    assert canon_calls(texts) > len(texts)
    assert canon_calls([rng.choice(texts) for _ in range(200)] + texts) == canon_calls(texts)


def test_canonical_form_is_its_own_canonical_form():
    # what lets canonical_type mark its result canonical without checking
    rng = random.Random(17)
    for _ in range(2000):
        t = random_type(rng, ["a", "b", "b0", "b1"], 5)
        c = canonical_type(t)
        assert _canon(c, [0], ftv(c)) is c


def _named_ids(text: str) -> set[int]:
    """The ids of the table's nodes that show text in a name: the table
    lists a node's parts before it."""
    named = set()
    for key, node in syntax._TYPES.items():
        if any(id(f) in named or isinstance(f, (str, frozenset)) and text in repr(f)
               for f in key[1:]):
            named.add(id(node))
    return named


def test_table_is_swept_and_slots_make_no_cycle():
    gc.disable()
    try:
        t = Arrow(Forall("a", Forall("z", TVar("a"))), TVar("interning_only"))
        canonical_type(t)
        ftv(t), _type_key(t), _type_key(t._canonical)
        syntax._sweep()
        form = t._canonical
        assert form is not t and syntax._TYPES[(Arrow, *form._parts())] is form
        del form
        del t
        # one sweep deletes t and, though it is newer than t, t's canonical
        # form, which only t's memo slot held, with the parts it held
        syntax._sweep()
        assert len(_named_ids("interning_only")) == 0
        # no memo slot holds its own node: a canonical form held here is
        # left alone with its leaf, and goes at the sweep after its release
        c = canonical_type(Arrow(Forall("a", Forall("z", TVar("a"))), TVar("interning_only")))
        syntax._sweep()
        assert len(_named_ids("interning_only")) == 2
        del c
        syntax._sweep()
        assert len(_named_ids("interning_only")) == 0
    finally:
        gc.enable()


# Names no other test uses, so every node built over them starts fresh here
# and no canonical_type call elsewhere has touched its `_canonical` slot.
_OWN = ("own_a", "own_b", "own_c")


def _own_type(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return TVar(rng.choice(_OWN))
    match rng.randrange(4):
        case 0 | 1:
            return Arrow(_own_type(rng, depth - 1), _own_type(rng, depth - 1))
        case 2:
            return Forall(rng.choice(_OWN), _own_type(rng, depth - 1))
        case _:
            forbidden = frozenset(rng.sample(_OWN, rng.randrange(3)))
            return EVarApp(rng.choice(("s", "r")), forbidden, _own_type(rng, depth - 1))


def _rebuilt(t):
    """t built afresh, bottom-up, from its fields' values."""
    if type(t) is TVar:
        return TVar(t.name)
    if type(t) is Arrow:
        return Arrow(_rebuilt(t.dom), _rebuilt(t.cod))
    if type(t) is Forall:
        return Forall(t.binder, _rebuilt(t.body))
    return EVarApp(t.evar, frozenset(t.forbidden), _rebuilt(t.body))


def _has_forall(t) -> bool:
    if type(t) is Forall:
        return True
    return any(_has_forall(f) for f in t._parts() if isinstance(f, syntax.Type))


def test_generated_constructors_intern_mark_and_drop():
    rng = random.Random(1101)
    gc.disable()
    try:
        kept = []
        for _ in range(600):
            t = _own_type(rng, 6)
            # equal fields give the same node, however they are passed
            assert _rebuilt(t) is t and type(t)(*t._parts()) is t
            # the mark: None exactly where a Forall occurs
            if _has_forall(t):
                assert t._canonical is None
            else:
                assert t._canonical is syntax._NO_FORALL
            for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
                assert copied is t
            kept.append(t)
        assert _named_ids("own_")
        # a dead node's entry is removed at the next sweep, and only its own
        leaf = TVar("own_dead")
        t = Arrow(leaf, leaf)
        key = (Arrow, leaf, leaf)
        alive = syntax._TYPES[key] is t
        del t
        syntax._sweep()
        assert alive and key not in syntax._TYPES and TVar("own_dead") is leaf
        del kept, copied, key, leaf
        syntax._sweep()
        assert len(_named_ids("own_")) == 0
    finally:
        gc.enable()


def test_each_type_class_states_the_fields_its_mark_reads():
    # the no-Forall mark reads the fields a class states, so they must be
    # exactly those that hold types (a Forall states None: never marked)
    seen = {}
    rng = random.Random(24)
    for _ in range(300):
        t = _own_type(rng, 4)
        held = tuple(n for n in type(t).__match_args__
                     if isinstance(getattr(t, n), syntax.Type))
        seen.setdefault(type(t), set()).add(held)
    assert set(seen) == {TVar, Arrow, Forall, EVarApp}
    for cls, helds in seen.items():
        assert helds == {("body",) if cls is Forall else cls._kids}
    assert Forall._kids is None
    # a type class that states none, or names a non-field, is refused
    # before it is counted as a node class
    nodes = set(syntax._NODES)
    with pytest.raises(TypeError, match="_kids"):
        class Unstated(syntax.Type):
            __slots__ = ("left", "right")
    with pytest.raises(TypeError, match="_kids"):
        class Misnamed(syntax.Type):
            __slots__ = ("left", "right")
            _kids = ("dom", "cod")
    assert syntax._NODES == nodes


# ---------------------------------------------------------------------------
# Sweeps: a node anything but the table holds is kept; one nothing else
# holds is gone after one sweep.

_SW = ("sw_a", "sw_b", "sw_c")


def _sw_type(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return TVar(rng.choice(_SW))
    match rng.randrange(4):
        case 0 | 1:
            return Arrow(_sw_type(rng, depth - 1), _sw_type(rng, depth - 1))
        case 2:
            return Forall(rng.choice(_SW), _sw_type(rng, depth - 1))
        case _:
            forbidden = frozenset(rng.sample(_SW, rng.randrange(3)))
            return EVarApp("sw_s", forbidden, _sw_type(rng, depth - 1))


def _sw_term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(_SW))
    if rng.random() < 0.4:
        return Abs(rng.choice(_SW), _sw_term(rng, depth - 1))
    return App(_sw_term(rng, depth - 1), _sw_term(rng, depth - 1))


def _grow(rng: random.Random, roots: list) -> None:
    """Append to roots 20 holders of fresh or rebuilt nodes: a type or
    term held as a local is; a part held only by a parent's field and key;
    a canonical form held only by its type's memo slot; a term and types
    held only by a skeleton's judgement, or by a judgement alone."""
    for _ in range(20):
        kind = rng.randrange(5)
        if kind == 0:
            roots.append(_sw_type(rng, 4))
        elif kind == 1:
            roots.append(_sw_term(rng, 4))
        elif kind == 2:
            t = _sw_type(rng, 3)
            roots.append(Arrow(t, t) if rng.random() < 0.5 else App(_sw_term(rng, 3), Var("sw_a")))
        elif kind == 3:
            t = Forall("sw_a", Arrow(TVar("sw_a"), _sw_type(rng, 3)))
            canonical_type(t)
            roots.append(t)
        else:
            x = rng.choice(_SW)
            q = QAbs(x, QVar(x, TypeEnv(((x, _sw_type(rng, 3)),))))
            roots.append(q if rng.random() < 0.5 else check_skeleton(q))
            check_skeleton(q)


def _reachable(roots: list) -> dict[int, object]:
    """Every interned node that roots hold, by id: through fields (and
    tuples), a type's canonical form and a skeleton's judgement."""
    held, todo = {}, list(roots)
    while todo:
        v = todo.pop()
        if type(v) is tuple:
            todo += v
        elif isinstance(v, syntax.Node):
            if type(v) in syntax._INTERNED:
                if id(v) in held:
                    continue
                held[id(v)] = v
            todo += v._parts()
            if isinstance(v, syntax.Type) and isinstance(v._canonical, syntax.Type):
                todo.append(v._canonical)
            if isinstance(v, syntax.Skeleton) and v._judgement is not None:
                todo.append(v._judgement)
    return held


def _check_sweep(roots: list) -> None:
    """Sweep, then check the table against what roots hold; the nodes
    this reads are let go on return, before the next sweep."""
    syntax._sweep()
    held = _reachable(roots)
    for node in held.values():
        key = (type(node), *node._parts())
        assert syntax._TYPES[key] is node and type(node)(*node._parts()) is node
    # nothing that only the table held is left: every node over these names
    # that is still there is held from here
    assert _named_ids("sw_") <= held.keys()
    # the sweep left only live entries, and the next comes at twice those
    size = len(syntax._TYPES)
    assert syntax._limit[0] == max(2 * size, 4096)
    syntax._sweep()
    assert len(syntax._TYPES) == size
    for m in (r for r in roots if isinstance(r, syntax.Term)):
        for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert copied is m


def test_sweeps_keep_held_nodes_and_drop_the_rest():
    rng = random.Random(2912)
    roots: list = []
    auto = 0  # sweeps set off by a node built
    for step in range(30):
        _grow(rng, roots)
        size = len(syntax._TYPES)
        for i in range(rng.randrange(1500)):  # garbage
            Arrow(TVar(f"sw_g{step}_{i}"), TVar("sw_a")), App(Var(f"sw_g{i}"), Var("sw_b"))
            auto += len(syntax._TYPES) < size
            size = len(syntax._TYPES)
            assert size <= syntax._limit[0]
        roots = [r for r in roots if rng.random() < 0.7]
        _check_sweep(roots)
    assert auto >= 3
    roots.clear()
    syntax._sweep()
    assert _named_ids("sw_") == set()
