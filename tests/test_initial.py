"""Initial skeleton generation, rename equivalence, derived substitutions."""

import random

import pytest

from fskel.expansion import apply_subst, judgements_agree
from generators import random_subst_for, random_term, random_valid_skeleton
from fskel.initial import (
    TermMismatch, allvar, derive_substitution, initial_skeleton, reflexive,
    rename_equiv, uniquify,
)
from fskel.surface import (
    parse_constraint, parse_skeleton, parse_term, print_skeleton,
    print_type_env,
)
from fskel.syntax import FreshSupply, QWeak, TVar, TypeEnv
from fskel.typecheck import check_skeleton, relevant


def test_free_variables_get_distinct_type_variables():
    q, theta, _ = initial_skeleton(parse_term("x @ y"), FreshSupply())
    assert print_type_env(theta) == "{x: a0, y: a1}"
    j = check_skeleton(q)
    assert relevant(q)
    assert j.env == theta


def test_single_variable():
    q, theta, _ = initial_skeleton(parse_term("x"), FreshSupply())
    assert print_skeleton(q) == "s0^{a0} x<x: a0>"


def test_abstraction_numbering():
    q, _, _ = initial_skeleton(parse_term("\\x. y"), FreshSupply())
    assert print_skeleton(q) == "s1^{a1} (\\x. s0^{a0,a1} y<x: a0, y: a1>)"


def test_all_variables_fresh_and_disjoint():
    m = parse_term("(\\x. x @ x) @ (\\y. y)")
    q, _, _ = initial_skeleton(m, FreshSupply())
    j = check_skeleton(q)
    assert j.term == m
    assert relevant(q)


def test_duplicate_binders_are_uniquified():
    m = parse_term("(\\x. x) @ (\\x. x)")
    q, _, _ = initial_skeleton(m, FreshSupply())
    j = check_skeleton(q)
    assert judgements_agree(j, check_skeleton(q))
    u = uniquify(m)
    names = set()

    def walk(t):
        from fskel.syntax import Abs, App
        match t:
            case Abs(x, b):
                names.add(x)
                walk(b)
            case App(f, a):
                walk(f)
                walk(a)
    walk(u)
    assert len(names) == 2


def test_rename_equiv_between_supplies():
    m = parse_term("\\x. x @ y")
    q1, _, _ = initial_skeleton(m, FreshSupply())
    q2, _, _ = initial_skeleton(m, FreshSupply(tvar_prefix="t", evar_prefix="u"))
    phi = rename_equiv(q1, q2)
    assert phi is not None
    assert apply_subst(phi, q2) == q1


def test_rename_equiv_rejects_different_terms():
    q1, _, _ = initial_skeleton(parse_term("\\x. x"), FreshSupply())
    q2, _, _ = initial_skeleton(parse_term("\\x. \\y. x"), FreshSupply())
    assert rename_equiv(q1, q2) is None


def test_reflexive_predicate():
    assert reflexive(parse_constraint("omega"))
    assert reflexive(parse_constraint("a <= a & omega"))
    assert reflexive(parse_constraint("ex a. (all b. b -> a) <= all c. c -> a"))
    assert not reflexive(parse_constraint("a <= b"))
    assert not reflexive(parse_constraint("(all a. a) <= b"))


def test_derive_substitution_identity_target():
    q, _, _ = initial_skeleton(parse_term("\\x. x @ x"), FreshSupply())
    sigma, gamma = derive_substitution(q, q)
    assert not gamma.entries
    assert judgements_agree(check_skeleton(apply_subst(sigma, q)),
                            check_skeleton(q))


def test_derive_substitution_decorated_target():
    q, _, _ = initial_skeleton(parse_term("\\x. x @ x"), FreshSupply())
    sig = "[a0 := all a. a -> a, a1 := all a. a -> a, s0 := id, s1 := id," \
          " s2 := id |> b -> b, s3 := all b. id]"
    from fskel.surface import parse_subst
    qt = apply_subst(parse_subst(sig), q)
    sigma, gamma = derive_substitution(q, qt)
    assert not gamma.entries
    assert judgements_agree(check_skeleton(apply_subst(sigma, q)),
                            check_skeleton(qt))


def test_derive_substitution_weakened_target():
    q, _, _ = initial_skeleton(parse_term("\\x. x"), FreshSupply())
    qt = QWeak(q, TypeEnv((("z", TVar("c")),)))
    sigma, gamma = derive_substitution(q, qt)
    q1 = apply_subst(sigma, q)
    if gamma.entries:
        q1 = QWeak(q1, gamma)
    assert judgements_agree(check_skeleton(q1), check_skeleton(qt))


def test_derive_substitution_rejects_other_terms():
    q1, _, _ = initial_skeleton(parse_term("\\x. x"), FreshSupply())
    q2, _, _ = initial_skeleton(parse_term("\\x. x @ x"), FreshSupply())
    with pytest.raises(TermMismatch):
        derive_substitution(q1, q2)


def test_allvar():
    q = parse_skeleton("s^{a} x<x: a>")
    assert allvar(q) == {"s", "a"}
