"""Solvedness, the two subtyping relations, and System F erasure."""

import copy
import random
from collections import Counter

import pytest

from generators import random_type
from fskel.solve import (
    RELATIONS, SubtypingRelation, check_system_f, erase_evars, leq_eq, leq_f,
    leq_f_witness, solved,
)
from fskel.surface import parse_constraint, parse_skeleton, parse_type
from fskel.syntax import (
    And, Atomic, EGuard, Exists, Omega, Subst, TVar, Arrow, Forall, type_eq,
)
from fskel.expansion import apply_subst


def T(s):
    return parse_type(s)


def test_leq_f_reflexive():
    assert leq_f(T("a -> b"), T("a -> b"))
    assert leq_f(T("all a. a"), T("all b. b"))


def test_leq_f_instantiation():
    assert leq_f(T("all a. a"), T("b -> b"))
    assert leq_f(T("all a. a -> a"), T("b -> b"))
    assert leq_f(T("all a. a -> a"), T("(all a. a -> a) -> all a. a -> a"))


def test_leq_f_single_step_only():
    # two eliminations would be needed
    assert not leq_f(T("all a. all b. a -> b"), T("c -> c"))
    # but one elimination from a two-quantifier block works
    assert leq_f(T("all a. all b. a -> b"), T("all b. c -> b"))


def test_leq_f_respects_quantifier_block_order():
    assert leq_f(T("all a. all b. a -> b"), T("all a. a -> c"))


def test_leq_f_negative():
    assert not leq_f(T("a"), T("b"))
    assert not leq_f(T("a -> a"), T("b -> b"))
    assert not leq_f(T("b -> b"), T("all a. a -> a"))


def test_leq_f_dummy_elimination():
    assert leq_f(T("all a. b -> b"), T("b -> b"))


def test_leq_f_witness_verifies():
    t1, t2 = T("all a. a -> a"), T("b -> b")
    a, body, x = leq_f_witness(t1, t2)
    assert type_eq(apply_subst(Subst(((a, x),)), body), t2)


def test_leq_eq():
    assert leq_eq(T("all a. all b. a -> b"), T("all b. all a. b -> a"))
    assert not leq_eq(T("all a. a"), T("b"))


def test_solved_under_both_relations():
    c = parse_constraint("(all a. a) <= b -> b & omega")
    assert solved(c, RELATIONS["F"])
    assert not solved(c, RELATIONS["EQ"])
    refl = parse_constraint("ex a. s^{b; c} (b -> b <= b -> b)")
    assert solved(refl, RELATIONS["EQ"])


def _counting(rel):
    """rel, with a Counter of the (lhs, rhs) pairs it was asked to decide."""
    asked = Counter()

    def decide(t1, t2):
        asked[t1, t2] += 1
        return rel.decide(t1, t2)

    return SubtypingRelation(rel.name, decide), asked


def _atoms(c):
    """Every atom of c, left to right, repeats included."""
    match c:
        case Omega():
            return []
        case Atomic(lhs, rhs):
            return [(lhs, rhs)]
        case And(c1, c2):
            return _atoms(c1) + _atoms(c2)
        case Exists(_, body) | EGuard(_, _, _, body):
            return _atoms(body)
    raise TypeError(c)


def test_solved_decides_each_distinct_atom_once():
    inst = Atomic(T("all a. a -> a"), T("(c -> c) -> c -> c"))
    c = Omega()
    for i in range(3000):  # deeper than the interpreter's recursion limit
        atom = inst if i % 2 else copy.deepcopy(inst)  # equal, not identical
        c = And(Exists("a", atom), c) if i % 3 else EGuard("s", frozenset(), TVar("a"), And(c, atom))
    rel, asked = _counting(RELATIONS["F"])
    assert solved(c, rel)
    assert asked == Counter({(inst.lhs, inst.rhs): 1})


def test_solved_stops_at_the_first_failing_atom():
    c = parse_constraint("a <= b & (all a. a) <= c & a <= b & d <= e")
    rel, asked = _counting(RELATIONS["F"])
    assert not solved(c, rel)
    assert asked == Counter({(T("a"), T("b")): 1})


def test_solved_agrees_with_conjunction_over_atoms():
    rng = random.Random(20121101)
    tvars = ["a", "b", "c"]

    def pair():
        t = random_type(rng, tvars, 3)
        match rng.randrange(3):
            case 0:  # holds under both relations
                return t, copy.deepcopy(t)
            case 1:  # one elimination: holds under F
                return Forall("a", Arrow(TVar("a"), t)), Arrow(random_type(rng, tvars, 2), t)
        return t, random_type(rng, tvars, 3)

    def constraint(pool, depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return Atomic(*copy.deepcopy(rng.choice(pool))) if r < 0.27 else Omega()
        if r < 0.7:
            return And(constraint(pool, depth - 1), constraint(pool, depth - 1))
        if r < 0.85:
            return Exists(rng.choice(tvars), constraint(pool, depth - 1))
        return EGuard("s", frozenset(tvars[:1]), rng.choice(pool)[0], constraint(pool, depth - 1))

    outcomes = Counter()
    for _ in range(300):
        pool = [pair() for _ in range(rng.randrange(1, 5))]
        c = constraint(pool, 6)
        atoms = _atoms(c)
        for base in RELATIONS.values():
            rel, asked = _counting(base)
            got = solved(c, rel)
            assert got == all(base.decide(l, r) for l, r in atoms)
            assert max(asked.values(), default=0) <= 1
            if got:
                assert set(asked) == set(atoms)
            outcomes[base.name, got] += 1
    # both verdicts occur under both relations
    assert len(outcomes) == 4, outcomes


def test_erase_evars():
    q = parse_skeleton("s^{} (\\x. t^{a} x<x: a>)")
    q2 = erase_evars(q)
    from fskel.syntax import QAbs
    assert isinstance(q2, QAbs)


def test_erase_evars_under_a_weakening():
    q2 = erase_evars(parse_skeleton("(s^{a} x<x: a>) + {y: t^{} b}"))
    assert q2 == parse_skeleton("x<x: a> + {y: b}")


def test_check_system_f_accepts_valid():
    assert check_system_f(parse_skeleton("\\x. x<x: a>"))
    assert check_system_f(parse_skeleton("all a. \\x. x<x: a>"))
    assert check_system_f(parse_skeleton("x<x: all a. a> |> b -> b"))
    assert check_system_f(parse_skeleton(
        "(\\x. x<x: a, y: a>) @ y<y: a>"))
    assert check_system_f(parse_skeleton("x<x: a> + {y: b}"))


def test_check_system_f_reads_the_function_type_modulo_equality():
    assert check_system_f(parse_skeleton("(all d. \\z. z<z: c, y: c>) @ y<y: c>"))
    assert check_system_f(parse_skeleton("(x<x: c -> c, y: c> |> all d. c -> c) @ y<x: c -> c, y: c>"))


@pytest.mark.parametrize("text", [
    "x<x: a, x: b>",                                # malformed environment
    "x<y: a>",                                      # unbound variable
    "\\z. x<y: a>",                               # below an abstraction
    "\\z. x<x: a>",                               # binder not in the environment
    "x<y: a> @ x<x: a>",                            # below an application
    "(\\z. z<z: a>) @ y<y: a>",                    # environments of other supports
    "f<f: a -> a, x: b> @ x<f: a -> a, x: c>",      # environments of other types
    "x<x: a> @ x<x: a>",                            # function part not an arrow
    "f<f: a -> a, x: b> @ x<f: a -> a, x: b>",      # domain mismatch
    "all b. x<y: a>",                               # below a quantifier
    "all a. x<x: a>",                               # quantified variable escapes
    "x<y: a> |> a",                                 # below a subtyping step
    "x<x: a> |> b",                                 # not one elimination
    "x<y: a> + {z: b}",                             # below a weakening
    "x<x: a> + {x: b}",                             # weakening re-binds
    "s^{a} x<x: a>",                                # an E-variable node
])
def test_check_system_f_rejects(text):
    assert not check_system_f(parse_skeleton(text))


def test_check_system_f_rejects_invalid():
    assert not check_system_f(parse_skeleton("x<y: a>"))
    assert not check_system_f(parse_skeleton("s^{a} x<x: a>"))
    assert not check_system_f(parse_skeleton("x<x: a> |> b"))
    assert not check_system_f(parse_skeleton("all a. x<x: a>"))
    assert not check_system_f(parse_skeleton("x<x: a> + {x: b}"))
