"""Call-by-value evaluation, subtyping proofs, the head-exposing
transformation, and the subject-reduction engine."""

import random

import pytest

from fskel import reduction
from fskel.expansion import judgements_agree
from fskel.generators import random_neq_decoration
from fskel.reduction import (
    BadSubProof, DummyElim, DummyIn, EVarCong, FunCong, Inst, NAbs, NotAStep,
    NotSolved, NSub, QuantComm, QuantCong, cbv_step, check_neq,
    check_subproof, from_neq, invert_subproof, is_value, preserve, step_neq,
    subst_term, sz, to_neq, transform_T,
)
from fskel.surface import parse_skeleton, parse_term, parse_type, print_term
from fskel.syntax import Abs, App, Var, env_eq, type_eq
from fskel.typecheck import check_skeleton


def T(s):
    return parse_type(s)


# ---------------------------------------------------------------------------
# Terms


def test_subst_term_capture_avoiding():
    m = parse_term("\\y. x @ y")
    got = subst_term("x", parse_term("y"), m)
    # the binder must be renamed away from the free y being substituted
    assert isinstance(got, Abs) and got.binder != "y"
    assert got.body == App(Var("y"), Var(got.binder))


def test_cbv_leftmost_then_argument():
    m = parse_term("((\\x. x) @ (\\y. y)) @ ((\\z. z) @ (\\w. w))")
    s1 = cbv_step(m)
    assert print_term(s1) == "(\\y. y) @ ((\\z. z) @ (\\w. w))"
    s2 = cbv_step(s1)
    assert print_term(s2) == "(\\y. y) @ (\\w. w)"
    s3 = cbv_step(s2)
    assert print_term(s3) == "\\w. w"
    assert cbv_step(s3) is None


def test_cbv_no_reduction_under_lambda():
    assert cbv_step(parse_term("\\x. (\\y. y) @ x")) is None


def test_cbv_argument_must_be_value():
    m = parse_term("(\\x. x) @ (y @ z)")
    assert cbv_step(m) is None  # stuck: argument is a non-value normal form


def test_values():
    assert is_value(Var("x"))
    assert is_value(parse_term("\\x. x"))
    assert not is_value(parse_term("x @ y"))


# ---------------------------------------------------------------------------
# Subtyping proofs


def test_inst_proof():
    p = Inst(T("all a. a -> a"), T("b"))
    lhs, rhs, tag = check_subproof(p)
    assert type_eq(lhs, T("all a. a -> a"))
    assert type_eq(rhs, T("b -> b"))
    assert tag == "regular"


def test_quantifier_commutation_proof():
    p = QuantComm(T("all a. all b. a -> b"))
    lhs, rhs, tag = check_subproof(p)
    assert type_eq(rhs, T("all b. all a. a -> b"))
    assert tag == "equality"


def test_dummy_proofs():
    lhs, rhs, tag = check_subproof(DummyIn("c", T("a")))
    assert type_eq(lhs, T("a")) and type_eq(rhs, T("all c. a"))
    assert tag == "equality"
    lhs, rhs, _ = check_subproof(DummyElim("c", T("a")))
    assert type_eq(lhs, T("all c. a")) and type_eq(rhs, T("a"))
    with pytest.raises(BadSubProof):
        check_subproof(DummyElim("a", T("a")))  # not a dummy


def test_fun_cong_contravariant():
    p = FunCong(DummyElim("c", T("a")), DummyIn("c", T("b")))
    lhs, rhs, tag = check_subproof(p)
    assert type_eq(lhs, T("a -> b"))
    assert type_eq(rhs, T("(all c. a) -> all c. b"))
    assert tag == "equality"


def test_fun_cong_requires_equality_premises():
    with pytest.raises(BadSubProof):
        check_subproof(FunCong(Inst(T("all a. a"), T("b")), DummyIn("c", T("b"))))


def test_invert_equality_proofs():
    p = DummyIn("c", T("a"))
    lhs, rhs, _ = check_subproof(p)
    lhs2, rhs2, _ = check_subproof(invert_subproof(p))
    assert type_eq(lhs, rhs2) and type_eq(rhs, lhs2)
    with pytest.raises(BadSubProof):
        invert_subproof(Inst(T("all a. a"), T("b")))


# ---------------------------------------------------------------------------
# Proof-carrying skeletons


def _example():
    return parse_skeleton(
        "(\\x. y<x: a -> a, y: b>) @ (\\z. z<y: b, z: a>)")


def test_to_neq_round_trip():
    q = _example()
    n = to_neq(q)
    m, env, t = check_neq(n)
    j = check_skeleton(q)
    assert m == j.term and env_eq(env, j.env) and type_eq(t, j.rtype)
    q2 = from_neq(n)
    assert judgements_agree(check_skeleton(q2), j)


def test_to_neq_requires_solved():
    q = parse_skeleton("x<x: a> |> b")
    with pytest.raises(NotSolved):
        to_neq(q)


def test_transformation_preserves_judgement():
    rng = random.Random(31)
    n = to_neq(_example())
    for _ in range(300):
        n2 = n
        for _ in range(rng.randrange(4)):
            n2 = random_neq_decoration(rng, n2)
        m, env, t = check_neq(n2)
        t2 = transform_T(n2)
        m_, env_, t_ = check_neq(t2)
        assert m_ == m and env_eq(env_, env) and type_eq(t_, t)
        assert sz(t2) <= sz(n2)


def test_sz_base_cases():
    n = to_neq(_example())
    assert sz(n) >= 1
    fun = n.fun if hasattr(n, "fun") else None
    assert isinstance(fun, NAbs) and sz(fun) == 1


def test_step_neq_beta():
    n = to_neq(_example())
    n2 = step_neq(n)
    m, env, t = check_neq(n2)
    assert m == Var("y")
    assert type_eq(t, T("b"))


def test_preserve_rejects_wrong_reduct():
    q = _example()
    with pytest.raises(NotAStep):
        preserve(q, parse_term("\\w. w"))


def test_preserve_alpha_equivalent_reduct():
    q = _example()
    j = check_skeleton(q)
    m2 = cbv_step(j.term)
    q2 = preserve(q, m2)
    j2 = check_skeleton(q2)
    assert env_eq(j2.env, j.env) and type_eq(j2.rtype, j.rtype)


def test_binder_collision_renamed_during_substitution():
    # K-style combinator whose argument reuses the crossed binder's name
    q = parse_skeleton(
        "((\\x. \\y. x<x: a -> a, y: b>) @ (\\y. y<y: a>)) + {}")
    q = q.body  # drop the no-op weakening wrapper
    j = check_skeleton(q)
    m2 = cbv_step(j.term)
    q2 = preserve(q, m2)
    j2 = check_skeleton(q2)
    assert env_eq(j2.env, j.env) and type_eq(j2.rtype, j.rtype)


def _id_chain(n):
    """(\\u. u) @ ((\\u. u) @ ... @ (\\z. z)) at type c -> c."""
    text = "\\z. z<z: c>"
    for _ in range(n):
        text = f"(\\u. u<u: c -> c>) @ ({text})"
    return parse_skeleton(text)


def test_preserve_judges_once_per_step(monkeypatch):
    # every call is counted, including check_neq's calls to itself, so any
    # re-check of a subtree would make the counts grow with the chain
    counts = []
    for n in (8, 16):
        calls = {"check_skeleton": 0, "solved": 0, "check_neq": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(reduction, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(reduction, name, counted)
        q = _id_chain(n)
        preserve(q, cbv_step(check_skeleton(q).term))
        monkeypatch.undo()
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["check_skeleton"] == counts[0]["solved"] == 1


def _poly_chain(n):
    """((\\f. \\x. (f |> τ) @ (... @ x)) @ (all b. \\y. y)) @ (\\w. w): the
    identity f: all b. b -> b instantiated at τ = (c -> c) -> c -> c at each
    of its n uses."""
    env = "f: all b. b -> b, x: c -> c"
    text = f"x<{env}>"
    for _ in range(n):
        text = f"(f<{env}> |> (c -> c) -> c -> c) @ ({text})"
    return parse_skeleton(
        f"((\\f. \\x. {text}) @ (all b. \\y. y<y: b>)) @ (\\w. w<w: c>)")


def test_preserve_searches_one_witness_per_distinct_step(monkeypatch):
    # the n subtyping steps of the chain are all the same judgement
    counts = []
    for n in (8, 16):
        calls = [0]

        def counted(*args, _real=reduction.leq_f_witness):
            calls[0] += 1
            return _real(*args)

        monkeypatch.setattr(reduction, "leq_f_witness", counted)
        q = _poly_chain(n)
        j = check_skeleton(q)
        q2 = preserve(q, cbv_step(j.term))
        monkeypatch.undo()
        j2 = check_skeleton(q2)
        assert env_eq(j2.env, j.env) and type_eq(j2.rtype, j.rtype)
        counts.append(calls[0])
    assert counts[0] == counts[1] == 1


def _const_chain(k):
    """(\\x. \\y1. ... \\yk. x) @ (\\z. z)"""
    env = ", ".join(["x: c -> c"] + [f"y{i}: c" for i in range(1, k + 1)])
    text = f"x<{env}>"
    for i in range(k, 0, -1):
        text = f"\\y{i}. {text}"
    return parse_skeleton(f"(\\x. {text}) @ (\\z. z<z: c>)")


def test_subst_redex_reads_binder_types_without_typing(monkeypatch):
    # every call is counted, including check_neq's calls to itself
    counts = []
    for k in (4, 8, 16):
        calls = [0]

        def counted(*args, _real=reduction.check_neq):
            calls[0] += 1
            return _real(*args)

        monkeypatch.setattr(reduction, "check_neq", counted)
        q = _const_chain(k)
        j = check_skeleton(q)
        q2 = preserve(q, cbv_step(j.term))
        monkeypatch.undo()
        j2 = check_skeleton(q2)
        assert j2.term == cbv_step(j.term)
        assert env_eq(j2.env, j.env) and type_eq(j2.rtype, j.rtype)
        counts.append(calls[0])
    assert counts[0] == counts[1] == counts[2]
