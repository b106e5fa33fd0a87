"""Interned types: one node per distinct type, held in a weak table, with its
free variables, canonical form and key kept in memo slots of the node."""

import copy
import gc
import pickle
import random
import weakref

import pytest

from fskel import syntax
from fskel.surface import parse_skeleton, parse_type
from fskel.syntax import (
    Arrow, EVarApp, Forall, TVar, _canon, _type_key, canonical_type, ftv,
)
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


def test_table_is_weak_and_slots_make_no_cycle():
    gc.disable()
    try:
        before = len(syntax._TYPES)
        t = Arrow(Forall("a", Forall("z", TVar("a"))), TVar("interning_only"))
        c = canonical_type(t)
        assert c is not t
        ftv(t), _type_key(t), _type_key(c)
        assert len(syntax._TYPES) > before
        refs = [weakref.ref(t), weakref.ref(c)]
        del t, c
        assert [r() for r in refs] == [None, None]
        assert len(syntax._TYPES) == before
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
        before = len(syntax._TYPES)
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
        assert len(syntax._TYPES) > before
        # a dead node's entry is removed, and only its own
        leaf = TVar("own_dead")
        t = Arrow(leaf, leaf)
        key = (Arrow, leaf, leaf)
        alive = syntax._TYPES[key]() is t
        del t
        assert alive and key not in syntax._TYPES and TVar("own_dead") is leaf
        del kept, copied, key, leaf
        assert len(syntax._TYPES) == before
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
