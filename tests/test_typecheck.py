"""Skeleton validation: the typing rules and their error cases."""

import pytest

from fskel.surface import parse_constraint, parse_skeleton, parse_type, parse_type_env
from fskel.syntax import constraint_eq, env_eq, type_eq
from fskel.typecheck import (
    DomainMismatch, EnvMismatch, EscapingVariable, ForbiddenSetTooSmall, MalformedEnv,
    NotAnArrow, SkeletonError, SupportOverlap, UnboundVariable, check_skeleton, relevant,
)


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


@pytest.mark.parametrize("text, error, message", [
    ("x<x: a, x: b>", MalformedEnv, "environment of x mentions a variable twice"),
    ("x<y: b>", UnboundVariable, "x not in its environment"),
    ("\\x. y<y: b>", UnboundVariable, "abstraction binder x not in the body environment"),
    ("x<x: a -> b> @ y<y: a>", EnvMismatch,
     "application premises carry different environments"),
    ("x<x: b, y: b> @ y<x: b, y: b>", NotAnArrow, "function part does not have an arrow type"),
    ("x<x: a -> b, y: c> @ y<x: a -> b, y: c>", DomainMismatch,
     "argument type does not match the function domain"),
    ("all a. x<x: a>", EscapingVariable, "a is free in the environment"),
    ("s^{b} x<x: a>", ForbiddenSetTooSmall,
     "s: environment variables ['a'] missing from the forbidden set"),
    ("x<x: a> + {y: b, y: c}", MalformedEnv, "weakening environment mentions a variable twice"),
    ("x<x: a> + {x: b}", SupportOverlap, "weakening re-binds ['x']"),
])
def test_each_rule_raises_its_own_error(text, error, message):
    with pytest.raises(SkeletonError) as e:
        J(text)
    assert type(e.value) is error and str(e.value) == message
