"""Skeleton validation: the typing rules and their error cases."""

import pytest

from fskel.surface import parse_constraint, parse_skeleton, parse_type, parse_type_env
from fskel.syntax import constraint_eq, env_eq, type_eq
from fskel.typecheck import SkeletonError, check_skeleton, relevant


def J(text):
    return check_skeleton(parse_skeleton(text))


def test_variable_leaf():
    j = J("x<x: a, y: b>")
    assert env_eq(j.env, parse_type_env("{x: a, y: b}"))
    assert type_eq(j.rtype, parse_type("a"))
    assert constraint_eq(j.constraint, parse_constraint("omega"))


def test_variable_missing_from_env():
    with pytest.raises(SkeletonError):
        J("x<y: b>")


def test_duplicate_env_entries_rejected():
    with pytest.raises(SkeletonError):
        J("x<x: a, x: b>")


def test_abstraction_pops_binder():
    j = J("\\x. x<x: a, y: b>")
    assert env_eq(j.env, parse_type_env("{y: b}"))
    assert type_eq(j.rtype, parse_type("a -> a"))


def test_abstraction_requires_binder_in_env():
    with pytest.raises(SkeletonError):
        J("\\x. y<y: b>")


def test_application_structural_arrow():
    j = J("(x<x: a -> b, y: a> ) @ y<x: a -> b, y: a>")
    assert type_eq(j.rtype, parse_type("b"))


def test_application_env_mismatch():
    with pytest.raises(SkeletonError):
        J("x<x: a -> b> @ y<y: a>")
    with pytest.raises(SkeletonError):
        J("x<x: a -> b, y: a> @ y<x: b -> b, y: a>")


def test_application_requires_arrow_head():
    with pytest.raises(SkeletonError):
        J("x<x: all a. a> @ y<x: all a. a, y: b>")


def test_application_domain_mismatch():
    with pytest.raises(SkeletonError):
        J("x<x: a -> b, y: c> @ y<x: a -> b, y: c>")


def test_quantifier_rule():
    j = J("all a. x<x: b>")
    assert type_eq(j.rtype, parse_type("all a. b"))
    with pytest.raises(SkeletonError):
        J("all a. x<x: a>")  # quantified variable free in the environment


def test_quantifier_constraint_is_existential():
    j = J("all a. (x<x: b> |> a)")
    assert constraint_eq(j.constraint, parse_constraint("ex a. b <= a"))


def test_evar_rule_forbidden_set():
    j = J("s^{a} x<x: a>")
    assert type_eq(j.rtype, parse_type("s^{a} a"))
    with pytest.raises(SkeletonError):
        J("s^{} x<x: a>")  # environment variable escapes the forbidden set


def test_subtyping_node():
    j = J("x<x: all a. a> |> b -> b")
    assert type_eq(j.rtype, parse_type("b -> b"))
    assert constraint_eq(j.constraint,
                         parse_constraint("(all a. a) <= b -> b"))


def test_weakening_node():
    j = J("x<x: a> + {y: b}")
    assert env_eq(j.env, parse_type_env("{x: a, y: b}"))
    with pytest.raises(SkeletonError):
        J("x<x: a> + {x: b}")  # overlapping supports


def test_rtype_tenv_relevant():
    q = parse_skeleton("x<x: a, y: b>")
    assert type_eq(check_skeleton(q).rtype, parse_type("a"))
    assert env_eq(check_skeleton(q).env, parse_type_env("{x: a, y: b}"))
    assert not relevant(q)
    assert relevant(parse_skeleton("x<x: a>"))
