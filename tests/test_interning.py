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
