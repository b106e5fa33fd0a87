"""Expansion and substitution application."""

import random

import pytest

from fskel.expansion import (
    apply_exp_cons, apply_exp_skel, apply_exp_type, apply_subst,
    judgements_agree, property_expansion_sound, property_subst_sound,
)
from generators import random_expansion, random_subst_for, random_valid_skeleton
from fskel.surface import (
    parse_constraint, parse_expansion, parse_skeleton, parse_subst,
    parse_type, parse_type_env,
)
from fskel.syntax import (
    EVarApp, IOTA, Subst, constraint_eq, env_eq, ftv, type_eq,
)
from fskel.typecheck import check_skeleton


def T(s):
    return parse_type(s)


def test_quantifier_expansion_on_type():
    i = parse_expansion("all b. id")
    got = apply_exp_type(i, frozenset({"a1", "a2"}), T("((a1 -> a2) -> b) -> b"))
    assert type_eq(got, T("all b. ((a1 -> a2) -> b) -> b"))


def test_sub_step_expansion_on_type():
    i = parse_expansion("id |> b -> b")
    got = apply_exp_type(i, frozenset(), T("all a. a -> a"))
    assert type_eq(got, T("b -> b"))


def test_evar_expansion_keeps_wrapper():
    i = parse_expansion("s^{} (all b. id)")
    got = apply_exp_type(i, frozenset({"a"}), T("a"))
    assert type_eq(got, T("s^{a} (all b. a)"))


def test_sub_step_expansion_on_constraint():
    tau = "all a. a -> a"
    c0 = parse_constraint(f"({tau}) <= ({tau}) -> {tau}")
    got = apply_exp_cons(parse_expansion("id |> b -> b"), frozenset(), T(tau), c0)
    want = parse_constraint(f"({tau}) <= b -> b & ({tau}) <= ({tau}) -> {tau}")
    assert constraint_eq(got, want)


def test_identity_substitution_is_identity():
    rng = random.Random(21)
    for _ in range(100):
        q = random_valid_skeleton(rng)
        assert apply_subst(IOTA, q) == q


def test_substitute_tvar_under_evar_grows_forbidden_set():
    phi = parse_subst("[a := a1 -> a2]")
    got = apply_subst(phi, T("s^{a} ((a -> b) -> b)"))
    assert type_eq(got, T("s^{a1,a2} (((a1 -> a2) -> b) -> b)"))


def test_null_expansion_deletes_evar():
    phi = parse_subst("[s := id]")
    got = apply_subst(phi, T("s^{a} (s^{a} b -> b)"))
    assert type_eq(got, T("b -> b"))


def test_self_expansion_keeps_evar():
    phi = parse_subst("[s := s^{} (all b. id)]")
    got = apply_subst(phi, T("s^{a} a"))
    assert type_eq(got, T("s^{a} (all b. a)"))


def test_substitution_avoids_capture_in_quantifier():
    phi = parse_subst("[a := b]")
    got = apply_subst(phi, T("all b. b -> a"))
    assert type_eq(got, T("all c. c -> b"))


def test_substitution_into_expansions():
    phi = parse_subst("[a := b, s := all c. id]")
    got = apply_subst(phi, parse_expansion("all c. s0^{a} (id |> a -> c)"))
    assert got == parse_expansion("all c. s0^{b} (id |> b -> c)")
    assert apply_subst(phi, parse_expansion("id")) == parse_expansion("id")


def test_substitution_renames_an_existential_binder_it_would_capture():
    got = apply_subst(parse_subst("[a := b]"), parse_constraint("ex b. a <= b"))
    assert got.binder != "b"
    assert constraint_eq(got, parse_constraint("ex c. b <= c"))


def test_first_binding_wins():
    phi = parse_subst("[a := b, a := c]")
    assert type_eq(apply_subst(phi, T("a")), T("b"))


def test_expansion_precondition_enforced():
    q = parse_skeleton("x<x: a>")
    with pytest.raises(ValueError):
        property_expansion_sound(q, parse_expansion("id"), frozenset())


def test_expansion_soundness_on_skeleton():
    q = parse_skeleton("s^{a} (\\x. x<x: a -> b, y: a> @ y<x: a -> b, y: a>)")
    j = check_skeleton(q)
    i = parse_expansion("all b. id")
    q2 = apply_exp_skel(i, ftv(j.env), q)
    j2 = check_skeleton(q2)
    assert env_eq(j2.env, j.env)
    assert type_eq(j2.rtype, apply_exp_type(i, ftv(j.env), j.rtype))


def test_judgements_agree_is_alpha_insensitive():
    j1 = check_skeleton(parse_skeleton("\\x. x<x: a>"))
    j2 = check_skeleton(parse_skeleton("\\y. y<y: a>"))
    assert judgements_agree(j1, j2)
