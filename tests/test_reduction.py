"""Call-by-value evaluation, subtyping proofs, the head-exposing
transformation, and the subject-reduction engine."""

import hashlib
import importlib.util
import random
import re
import sys
import types
from pathlib import Path

import pytest

from fskel import reduction, syntax
from fskel.expansion import judgements_agree
from generators import (
    decorate_dummies_inside, random_neq_decoration, random_term, random_type,
)
from helpers import (
    carried_proofs, cbv_step_de_bruijn, constraint_nodes, count_calls, count_instances,
    de_bruijn, decide, id_chain, poly_chain, skeleton_nodes,
)
from reference_subst import binders, free_vars, substitute
from test_acceptance import _decorated_neq_starts, _reduction_cases
from fskel.reduction import (
    BadSubProof, DummyElim, DummyIn, EVarCong, FunCong, Inst, NeqError, NotAStep,
    NotSolved, QuantComm, QuantCong, cbv_step, check_neq, check_subproof, from_neq,
    is_value, preserve, proved, step_neq, subst_neq, subst_term, sz, to_neq,
    transform_T,
)
from fskel.solve import RELATIONS
from fskel.surface import (
    parse_skeleton, parse_term, parse_type, print_skeleton, print_term,
)
from fskel.syntax import (
    NEQ_SELF, NEQ_UNSET, Abs, App, Arrow, Forall, QAbs, QApp, QEVar, QForall, QSub,
    QVar, QWeak, Subst, TVar, TypeEnv, Var, env_eq, ftv, type_eq,
)
from fskel.typecheck import Judgement, SkeletonError, check_skeleton

REL_F = RELATIONS["F"]


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
    rebound = parse_term("\\x. x")
    assert subst_term("x", parse_term("y"), rebound) is rebound


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


def _term_names(m):
    """Every variable and binder name of m."""
    if isinstance(m, Var):
        return {m.name}
    if isinstance(m, Abs):
        return {m.binder} | _term_names(m.body)
    return _term_names(m.fun) | _term_names(m.arg)


def _shadows(m, bound=frozenset()):
    """Whether some binder of m is crossed again below itself."""
    if isinstance(m, Var):
        return False
    if isinstance(m, Abs):
        return m.binder in bound or _shadows(m.body, bound | {m.binder})
    return _shadows(m.fun, bound) or _shadows(m.arg, bound)


def test_cbv_step_agrees_with_a_de_bruijn_stepper():
    # the binders are x0..x3 and so are most free names, so an argument's
    # free variable often meets a binder of the body it is substituted into
    rng = random.Random(20121101)
    free = ["x0", "x1", "x2", "x3", "y"]
    seen = dict.fromkeys(("terms", "steps", "stuck", "shadowed", "renamed"), 0)
    for _ in range(2500):
        m = random_term(rng, rng.randrange(2, 12), free)
        if rng.random() < 0.7:
            x = f"x{rng.randrange(4)}"
            arg = (Var(rng.choice(free)) if rng.random() < 0.5
                   else random_term(rng, rng.randrange(1, 6), free))
            m = App(Abs(x, m), arg)
        seen["terms"] += 1
        seen["shadowed"] += _shadows(m)
        for _ in range(4):  # a random term may not terminate
            got, want = cbv_step(m), cbv_step_de_bruijn(de_bruijn(m))
            if want is None:
                assert got is None, print_term(m)
                seen["stuck"] += isinstance(m, App)
                break
            assert got is not None and de_bruijn(got) == want, print_term(m)
            seen["steps"] += 1
            seen["renamed"] += bool(_term_names(got) - _term_names(m))
            m = got
    assert seen["terms"] >= 2000 and seen["steps"] >= 2000, seen
    assert min(seen["stuck"], seen["shadowed"]) >= 200 and seen["renamed"] >= 30, seen


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


@pytest.mark.parametrize("p", [
    DummyIn("a", T("a")),
    DummyElim("a", T("a")),
    EVarCong("s", frozenset(), Inst(T("all a. a"), T("b"))),
    Inst(T("a"), T("b")),
    QuantComm(T("all a. a")),
])
def test_malformed_proofs_are_rejected(p):
    with pytest.raises(BadSubProof):
        check_subproof(p)


# ---------------------------------------------------------------------------
# Proof-carrying skeletons: skeletons whose |> carry their proofs


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


@pytest.mark.parametrize("source, marked", [("all b. b -> b", True), ("all b. b", False)])
def test_preserve_checks_the_certificate_of_each_rebuilt_step(source, marked):
    # a |> that a step rebuilds, and that is not its own form, is certified
    # by its Inst proof: the body's judged type must equal the proof's
    # source. A form is planted on the skeleton so that the step rebuilds
    # such a |> over a body judged at all b. b -> b, with a proof from
    # `source`.
    app = parse_skeleton("(\\x. x<x: b -> b>) @ (\\z. z<z: b>)")
    q = QSub(QForall("b", app), parse_type("c -> c"))
    j = check_skeleton(q)
    planted = proved(to_neq(QForall("b", app)), Inst(parse_type(source), parse_type("c")))
    object.__setattr__(q, "_neq", planted)
    contractum = app.arg._judgement.constraint
    if marked:
        q2 = preserve(q, cbv_step(j.term))
        c2 = check_skeleton(q2).constraint
        assert q2.body.body is app.arg and c2.c1.body is contractum
        assert all(REL_F in c._solved for c in constraint_nodes(c2))
        assert decide(c2, REL_F)
    else:
        with pytest.raises(NotSolved):
            preserve(q, cbv_step(j.term))
        assert all(REL_F not in c._solved
                   for c in constraint_nodes(j.constraint) + [contractum])


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
    assert isinstance(fun, QAbs) and sz(fun) == 1


def test_step_neq_beta():
    n = to_neq(_example())
    n2 = step_neq(n)
    m, env, t = check_neq(n2)
    assert m == Var("y")
    assert type_eq(t, T("b"))
    with pytest.raises(NotAStep):
        step_neq(n2)


def _env(**types):
    return TypeEnv(tuple((x, T(t)) for x, t in types.items()))


def test_step_exposes_an_abstraction_under_a_dummy_elimination():
    # the function part's proof starts at all d. (c0 -> c0) -> c0 -> c0,
    # which equals the abstraction's type
    c = T("c0 -> c0")
    n = QApp(proved(QAbs("z", QVar("z", _env(z="c0 -> c0"))), DummyElim("d", Arrow(c, c))),
             QAbs("z0", QVar("z0", _env(z0="c0"))))
    _, env, t = check_neq(n)
    assert type_eq(t, c)
    m2, env2, t2 = check_neq(step_neq(n))
    assert print_term(m2) == "\\z0. z0" and env_eq(env2, env) and type_eq(t2, t)


def test_transform_instantiates_the_binder_under_a_dummy():
    # the Inst's binder is the real all a, not the dummy all d above it
    tau = T("all a. a -> a")
    n = proved(proved(QForall("a", QAbs("y", QVar("y", _env(y="a")))), DummyElim("d", tau)),
               Inst(T("all b0. b0 -> b0"), tau))
    _, env, t = check_neq(n)
    n2 = transform_T(n)
    _, env2, t2 = check_neq(n2)
    assert isinstance(n2, QAbs) and env_eq(env2, env) and type_eq(t2, t)


def test_transform_instantiates_the_binder_the_proof_names():
    # all a. all b. (a -> b) -> a -> b, with b eliminated: the Inst names the
    # binders of the canonical block, with b0 standing for b
    env = "f: a -> b, x: a"
    q = parse_skeleton(f"all a. all b. \\f. \\x. f<{env}> @ x<{env}>")
    n = proved(to_neq(q), Inst(T("all b1. all b0. (b0 -> b1) -> b0 -> b1"), T("c")))
    _, env0, t = check_neq(n)
    n2 = transform_T(n)
    _, env2, t2 = check_neq(n2)
    assert isinstance(n2, QForall) and n2.binder == "a" and isinstance(n2.body, QAbs)
    assert env_eq(env2, env0) and type_eq(t2, T("all a. (a -> c) -> a -> c"))


def test_transform_pushes_a_quantifier_congruence_into_the_block():
    # all a. all b. ... <= all b. ((all a. a -> a) -> b) -> ..., by
    # instantiating a under the quantifier b
    env = "f: a -> b, x: a"
    q = parse_skeleton(f"all a. all b. \\f. \\x. f<{env}> @ x<{env}>")
    proof = QuantCong("b", Inst(T("all a. (a -> b) -> a -> b"), T("all a. a -> a")))
    n = proved(proved(to_neq(q), QuantComm(T("all a. all b. (a -> b) -> a -> b"))), proof)
    _, env0, t = check_neq(n)
    n2 = transform_T(n)
    _, env2, t2 = check_neq(n2)
    assert isinstance(n2, QForall) and isinstance(n2.body, QAbs)
    assert env_eq(env2, env0) and type_eq(t2, t)


def test_transform_drops_every_equality_step():
    n = to_neq(_example()).fun
    _, env, t = check_neq(n)
    steps = [DummyIn("d", t), FunCong(DummyElim("d", t.dom), DummyIn("d", t.cod))]
    for p in steps:
        assert transform_T(proved(n, p)) is n
    assert transform_T(proved(n, Inst(Forall("e", t), T("c")))) is n  # dummy binder


def test_transform_keeps_a_step_with_no_quantifier_to_take():
    # the variable's own type is quantified: there is no QForall to push into
    tau = T("all a. a -> a")
    n = proved(QVar("f", TypeEnv((("f", tau),))), Inst(tau, T("c")))
    assert transform_T(n) == n


def _carrying(body, target, proof):
    """body |> target, carrying proof whatever its end."""
    n = QSub(body, target)
    object.__setattr__(n, "_proof", proof)
    return n


@pytest.mark.parametrize("n, message", [
    (QVar("x", TypeEnv((("x", T("a")), ("x", T("b"))))), "mentions a variable twice"),
    (QVar("x", _env(y="a")), "x not in its environment"),
    (QAbs("z", QVar("x", _env(x="a"))), "binder z not in the body environment"),
    (QApp(QVar("f", _env(f="a -> a")), QVar("x", _env(x="a"))), "different environments"),
    (QApp(QVar("x", _env(x="a")), QVar("x", _env(x="a"))), "not have an arrow type"),
    (QApp(QVar("f", _env(f="a -> a", x="b")), QVar("x", _env(f="a -> a", x="b"))),
     "does not match the function domain"),
    (QForall("a", QVar("x", _env(x="a"))), "a is free in the environment"),
    (QEVar("s", frozenset(), QVar("x", _env(x="a"))), "forbidden set too small"),
    (proved(QVar("x", _env(x="a")), Inst(T("all b. b"), T("a"))), "does not start at"),
    (QSub(QVar("x", _env(x="a")), T("all d. a")), "carries no proof"),
    # the target must be the very type the proof ends at, not one equal to it
    (_carrying(QVar("x", _env(x="a")), T("all e. a"), DummyIn("d", T("a"))),
     "does not end at"),
    (_carrying(QVar("x", _env(x="a")), T("b"), DummyIn("d", T("a"))), "does not end at"),
])
def test_check_neq_rejects(n, message):
    with pytest.raises(NeqError, match=message):
        check_neq(n)


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
    for text, reduct in [
        # K-style combinator whose argument reuses the crossed binder's name
        ("(\\x. \\y. x<x: a -> a, y: b>) @ (\\y. y<y: a>)", "\\y_0. \\y. y"),
        # two crossed binders clash, each renamed on the way down
        ("(\\x. \\y. \\z. x<x: a -> d -> a, y: b, z: c>) @ (\\y. \\z. y<y: a, z: d>)",
         "\\y_0. \\z_0. \\y. \\z. y"),
    ]:
        q = parse_skeleton(text)
        j = check_skeleton(q)
        m2 = cbv_step(j.term)
        q2 = preserve(q, m2)
        j2 = check_skeleton(q2)
        assert env_eq(j2.env, j.env) and type_eq(j2.rtype, j.rtype)
        assert print_term(j2.term) == reduct


def test_argument_under_an_evar_is_moved_below_a_binder():
    # the argument's E-variable forbids b, the type of the crossed binder y
    q = parse_skeleton(
        "(\\x. \\y. x<x: s^{b} (a -> a), y: b>) @ (s^{b} (\\z. z<z: a>))")
    j = check_skeleton(q)
    j2 = check_skeleton(preserve(q, cbv_step(j.term)))
    assert print_term(j2.term) == "\\y. \\z. z"
    assert env_eq(j2.env, j.env) and type_eq(j2.rtype, j.rtype)


def test_preserve_judges_once_per_step(monkeypatch):
    # every call is counted, including check_neq's calls to itself, so any
    # re-check of a subtree would make the counts grow with the chain; the
    # caller has checked q, so preserve's one typing pass is of its reduct,
    # and the caller's check of the result only reads it
    counts = []
    for n in (8, 16):
        q = id_chain(n)
        m_next = cbv_step(check_skeleton(q).term)
        calls = count_calls(monkeypatch, [
            "typecheck._judge", "solve.solved", "reduction.check_neq",
            "reduction.cbv_step"])
        check_skeleton(preserve(q, m_next))
        monkeypatch.undo()
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["typecheck._judge"] == 1
    assert counts[0]["solve.solved"] == 0
    assert counts[0]["reduction.cbv_step"] == 0


def test_one_redex_search_per_step(monkeypatch):
    # the step finds the redex on the proof-carrying skeleton: the term is
    # stepped by neither preserve nor step_neq, and preserve compares the
    # caller's reduct once with the term of its own reduct's judgement
    counts = []
    for n in (8, 16):
        q = id_chain(n)
        j = check_skeleton(q)
        m_next = cbv_step(j.term)
        old = skeleton_nodes(q)
        calls = count_calls(monkeypatch, [
            "reduction.cbv_step", "syntax.term_alpha_eq", "reduction.check_neq",
            "typecheck._judge"])
        built = count_instances(monkeypatch, Judgement)
        q2 = preserve(q, m_next)
        check_skeleton(q2)
        monkeypatch.undo()
        new = [i for i in skeleton_nodes(q2) if i not in old]
        assert built[0] == len(new)
        n_neq = to_neq(q)
        stepping = count_calls(monkeypatch, ["reduction.cbv_step"])
        step_neq(n_neq)
        monkeypatch.undo()
        counts.append((calls, stepping))
    assert counts[0] == counts[1]
    calls, stepping = counts[0]
    assert calls == {"reduction.cbv_step": 0, "syntax.term_alpha_eq": 1,
                     "reduction.check_neq": 0, "typecheck._judge": 1}
    assert stepping == {"reduction.cbv_step": 0}


def _built_inside(monkeypatch, name, classes):
    """Count the instances of classes built inside calls to the reduction
    function name, its calls to itself included once, until monkeypatch is
    undone; the count is the list's one item."""
    counters = [count_instances(monkeypatch, c) for c in classes]
    real = getattr(reduction, name)
    inside, depth = [0], [0]

    def wrapped(*args):
        before = sum(c[0] for c in counters)
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                inside[0] += sum(c[0] for c in counters) - before

    monkeypatch.setattr(reduction, name, wrapped)
    return inside


SKELETONS = (QVar, QAbs, QApp, QForall, QEVar, QSub, QWeak)


def test_a_step_builds_its_path_once(monkeypatch):
    # the first step marks the path to its redex and the contractum as
    # their own forms, so the second step's elaboration builds nothing;
    # the step builds the n - 2 new path nodes, the contractum being the
    # argument's own skeleton, and nothing else builds a skeleton node
    for n in (8, 16):
        q = id_chain(n)
        q = preserve(q, cbv_step(check_skeleton(q).term))
        m_next = cbv_step(check_skeleton(q).term)
        assert all(node._neq is NEQ_SELF for node in skeleton_nodes(q).values())
        old = skeleton_nodes(q)
        elaborated = _built_inside(monkeypatch, "_elaborate", SKELETONS)
        stepped = _built_inside(monkeypatch, "_step_at", SKELETONS)
        built = [count_instances(monkeypatch, c) for c in SKELETONS]
        q2 = preserve(q, m_next)
        monkeypatch.undo()
        new = [i for i in skeleton_nodes(q2) if i not in old]
        assert elaborated[0] == 0
        assert stepped[0] == n - 2
        assert sum(c[0] for c in built) == len(new) == n - 2


def test_step_neq_builds_only_its_reduct(monkeypatch):
    # a step builds its reduct and nothing to flatten: over whole runs, and
    # on decorated starts, every node step_neq builds, but for the
    # intermediate nodes of T, is a node of its result
    starts = [to_neq(chain(n)) for chain in (id_chain, poly_chain) for n in (8, 16)]
    starts += list(_decorated_neq_starts(random.Random(29), 40))
    steps = 0
    for n in starts:
        while cbv_step(check_neq(n)[0]) is not None:
            inside = _built_inside(monkeypatch, "step_neq", SKELETONS)
            in_t = _built_inside(monkeypatch, "transform_T", SKELETONS)
            n2 = reduction.step_neq(n)
            monkeypatch.undo()
            old = skeleton_nodes(n)
            assert inside[0] - in_t[0] == len([i for i in skeleton_nodes(n2) if i not in old])
            n = n2
            steps += 1
    assert steps >= 40


def _rebuilt(n):
    """A proof-carrying n with every node but its leaves built again: empty
    memo slots, the same proofs."""
    cls = type(n)
    if cls is QVar:
        return n
    if cls is QSub:
        return proved(_rebuilt(n.body), n._proof)
    if cls is QApp:
        return QApp(_rebuilt(n.fun), _rebuilt(n.arg))
    return cls(*(getattr(n, f) for f in cls.__match_args__[:-1]), _rebuilt(n.body))


def _sorted_sets(text: str) -> str:
    """A repr with each frozenset's items sorted, so it is the same under
    any hash seed."""
    return re.sub(r"frozenset\(\{([^}]*)\}\)",
                  lambda m: "{" + ", ".join(sorted(m[1].split(", "))) + "}", text)


# sha256 of the lines test_transform_T_judges_new_blocks_without_check_neq
# hashes, recorded from a transform_T that typed a QForall block no typing
# pass had judged with check_neq, a full re-check of its proofs
UNJUDGED_T_DIGEST = "5953e2bb3a2c4215e184e83375d078f84cdbeddfb22b8ceba959845b16bd86e0"


def test_transform_T_judges_new_blocks_without_check_neq(monkeypatch):
    # the skeletons T is called on while 1,000 decorated starts are stepped,
    # each rebuilt so that no typing pass has judged it: T reads the type of
    # a QForall block's body from check_skeleton, which judges only the
    # new nodes, and never re-checks the proofs below it
    inputs = []
    real = reduction.transform_T

    def recording(q):
        inputs.append(_rebuilt(q))
        return real(q)

    monkeypatch.setattr(reduction, "transform_T", recording)
    for n in _decorated_neq_starts(random.Random(28), 1000):
        for _ in range(30):
            if cbv_step(check_neq(n)[0]) is None:
                break
            n = step_neq(n)
    monkeypatch.undo()
    calls = count_calls(monkeypatch, ["reduction.check_neq", "typecheck._judge"])
    digest = hashlib.sha256()
    judged = 0
    for q in inputs:
        before = calls["typecheck._judge"]
        t = transform_T(q)
        judged += calls["typecheck._judge"] > before
        line = print_skeleton(t) + " " + _sorted_sets(repr(carried_proofs(t)))
        digest.update(line.encode() + b"\n")
    assert len(inputs) == 1774 and judged == 61
    assert calls["reduction.check_neq"] == 0
    assert digest.hexdigest() == UNJUDGED_T_DIGEST


@pytest.mark.parametrize("chain", [id_chain, poly_chain])
def test_only_the_input_is_elaborated(monkeypatch, chain):
    # the input is its own form: elaboration builds no node and settles
    # each distinct |> once; every node a step builds is marked as its own
    # form, the |> nodes of the substituted polymorphic function included,
    # so no later elaboration settles or builds anything
    for n in (8, 16):
        q = chain(n)
        made = _built_inside(monkeypatch, "_elaborate", SKELETONS)
        settled = count_calls(monkeypatch, ["reduction._sub_step"])
        j = check_skeleton(q)
        q = preserve(q, cbv_step(j.term))
        first = settled["reduction._sub_step"]
        j = check_skeleton(q)
        while (m := cbv_step(j.term)) is not None:
            q = preserve(q, m)
            j = check_skeleton(q)
        monkeypatch.undo()
        assert made[0] == 0
        assert first == (chain is poly_chain) == settled["reduction._sub_step"]


def _forms_are_elaborated(q, old=()):
    """Every node of q, but those whose ids are in old, that keeps a form
    keeps the one elaborating a fresh parse of it makes, with the same
    proofs; the number of such nodes."""
    kept = 0
    for i, node in skeleton_nodes(q).items():
        n = node._neq
        if i in old or n is None or n is NEQ_UNSET:
            continue
        form = node if n is NEQ_SELF else n
        fresh = to_neq(parse_skeleton(print_skeleton(node)))
        assert form == fresh and carried_proofs(form) == carried_proofs(fresh)
        kept += 1
    return kept


def test_forms_kept_by_a_step_are_the_elaborated_ones():
    # the starts of the seeded properties on decorated skeletons: skeletons
    # decorated at every depth with |> carrying proofs of every kind, and
    # skeletons with dummy quantifiers and steps between equal types
    # inside, each elaborated and reduced by preserve to normal form
    starts = list(_decorated_neq_starts(random.Random(1013), 150))
    rng = random.Random(1014)
    cases = _reduction_cases()
    while len(starts) < 300:
        try:
            q = decorate_dummies_inside(rng, rng.choice(cases), 0.15)
            if decide(check_skeleton(q).constraint, REL_F):
                starts.append(q)
        except SkeletonError:
            pass
    kept = [0, 0]
    for i, q in enumerate(starts):
        if i < 150:
            to_neq(q)
            kept[0] += _forms_are_elaborated(q)
        j = check_skeleton(q)
        while (m := cbv_step(j.term)) is not None:
            q2 = preserve(q, m)
            j = check_skeleton(q2)
            kept[1] += _forms_are_elaborated(q2, skeleton_nodes(q))
            q = q2
    assert kept[0] >= 1_000 and kept[1] >= 1_000


def test_preserve_searches_one_witness_per_distinct_step(monkeypatch):
    # the n subtyping steps of the chain are all the same judgement
    counts = []
    for n in (8, 16):
        q = poly_chain(n)
        j = check_skeleton(q)
        calls = count_calls(monkeypatch, ["solve._witness"])
        q2 = preserve(q, cbv_step(j.term))
        monkeypatch.undo()
        j2 = check_skeleton(q2)
        assert env_eq(j2.env, j.env) and type_eq(j2.rtype, j.rtype)
        counts.append(calls["solve._witness"])
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


def _clash_chain(k):
    """(\\x. \\y1. ... \\yk. x) @ (\\y1. ... \\yk. y1): every binder that
    the substitution crosses clashes with a name of the argument."""
    ys = [f"y{i}" for i in range(1, k + 1)]
    entries = ", ".join(f"{y}: c" for y in ys)
    body = f"x<x: {' -> '.join(['c'] * (k + 1))}, {entries}>"
    arg = f"y1<{entries}>"
    for y in reversed(ys):
        body, arg = f"\\{y}. {body}", f"\\{y}. {arg}"
    return parse_skeleton(f"(\\x. {body}) @ ({arg})")


def test_subst_redex_reads_each_name_set_once(monkeypatch):
    # every call is counted, including _term_names' calls to itself; the
    # names below each body node are read once per redex, so the calls grow
    # linearly with the k binders renamed
    counts = []
    for k in (4, 8, 16, 32):
        q = _clash_chain(k)
        j = check_skeleton(q)
        calls = count_calls(monkeypatch, ["reduction._term_names"])
        q2 = preserve(q, cbv_step(j.term))
        monkeypatch.undo()
        renamed = "".join(f"\\y{i}_0. " for i in range(1, k + 1))
        inner = "".join(f"\\y{i}. " for i in range(1, k + 1))
        assert print_term(check_skeleton(q2).term) == f"{renamed}{inner}y1"
        counts.append(calls["reduction._term_names"])
    assert counts[3] - counts[2] == 2 * (counts[2] - counts[1]) == 4 * (counts[1] - counts[0])


# ---------------------------------------------------------------------------
# Type substitution into proofs


def test_substitution_renames_a_quantifier_congruence_binder_away_from_its_proof():
    # b is free in the image, so QuantCong's b is renamed; b_0 is free in the
    # inner proof, so the new name must not be b_0
    env = TypeEnv((("x", TVar("d")), ("y", TVar("b")), ("z", TVar("b_0"))))
    n = proved(QForall("b", QForall("d", QAbs("x", QAbs("y", QVar("z", env))))),
               QuantCong("b", Inst(T("all d. d -> b -> b_0"), TVar("c"))))
    assert type_eq(check_neq(n)[2], T("all b. c -> b -> b_0"))
    _, _, t = check_neq(subst_neq("c", TVar("b"), n))
    assert type_eq(t, T("all b_1. b -> b_1 -> b_0"))


def _proofs_in(n):
    """The proof of every |> in n."""
    while not isinstance(n, QVar):
        if isinstance(n, QSub):
            yield n._proof
        if isinstance(n, QApp):
            yield from _proofs_in(n.fun)
        n = n.arg if isinstance(n, QApp) else n.body


def _quant_cong_vars(p):
    match p:
        case QuantCong(b, inner):
            return [b] + _quant_cong_vars(inner)
        case FunCong(p1, p2):
            return _quant_cong_vars(p1) + _quant_cong_vars(p2)
        case EVarCong(_, _, inner):
            return _quant_cong_vars(inner)
    return []


def _nest(rng, p, names, equalities):
    """p under one more proof node: a QuantCong, FunCong or EVarCong over
    it, or an Inst or a QuantComm from one of its ends."""
    t1, t2, tag = check_subproof(p)
    match rng.randrange(5):
        case 0:
            return QuantCong(rng.choice(names), p)
        case 1 if tag == "equality":
            return FunCong(rng.choice(equalities), p)
        case 2 if tag == "equality":
            return EVarCong("u0", frozenset(rng.sample(names, 2)), p)
        case 3:
            # the decorations seldom make one
            return QuantComm(Forall(rng.choice(names), Forall(rng.choice(names), t1)))
        case 4:
            # an instance that puts names of the pool free in the proof
            a = rng.choice(sorted(ftv(t2)) or names)
            return Inst(Forall(a, t2), random_type(rng, names, 2))
    return QuantCong(rng.choice(names), p)


def test_type_substitution_into_proofs_agrees_with_the_reference():
    # proofs of every constructor, from the decorations' proofs; the
    # substituted variable, the image's variables and the binders added
    # come from names that clash with each other and with the proofs' own
    # binders, so QuantCong binders are renamed
    rng = random.Random(1019)
    pool = {"b", "b_0", "d", "d_0"}
    proofs = [p for n in _decorated_neq_starts(rng, 300) for p in _proofs_in(n)]
    equalities = [p for p in proofs if check_subproof(p)[2] == "equality"]
    kinds, renamed = set(), 0
    for _ in range(3_000):
        p = rng.choice(proofs)
        for _ in range(rng.randrange(4)):
            p = _nest(rng, p, sorted(pool | binders(check_subproof(p)[0], Forall)), equalities)
        t1, t2, tag = check_subproof(p)
        names = sorted(pool | free_vars(t1) | free_vars(t2)
                       | binders(t1, Forall) | binders(t2, Forall))
        a = rng.choice(names)
        x = random_type(rng, names, rng.randrange(3))
        p2 = subst_neq(a, x, p)
        s1, s2, tag2 = check_subproof(p2)
        phi = Subst(((a, x),))
        assert tag2 == tag
        assert type_eq(s1, substitute(phi, t1)) and type_eq(s2, substitute(phi, t2))
        kinds.add(type(p).__name__)
        renamed += sum(b != b2 for b, b2 in zip(_quant_cong_vars(p), _quant_cong_vars(p2)))
    assert kinds == {"Inst", "QuantComm", "DummyIn", "DummyElim", "FunCong",
                     "EVarCong", "QuantCong"}
    assert renamed >= 30, renamed


def _bench_inputs():
    """The benchmark's input builder, bench/inputs.py, which imports no fskel."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_preserve_compares_an_interned_reduct_at_its_root(monkeypatch):
    # A reduct's judged term and the term cbv_step built are one interned
    # node unless a binder was renamed, so term_alpha_eq inside preserve
    # returns at the root: over the seed-1 reduce_nf block it enters at most
    # 1.2 pairs of terms per step (about 13 when terms were not interned).
    go = next(c for c in syntax.term_alpha_eq.__code__.co_consts
              if isinstance(c, types.CodeType) and c.co_name == "go")
    pairs = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is go:
            pairs[0] += 1

    real = reduction.term_alpha_eq

    def counted(m1, m2):
        sys.setprofile(profile)
        try:
            return real(m1, m2)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(reduction, "term_alpha_eq", counted)
    steps = 0
    for op in _bench_inputs().reduce_nf(1, 1)[0]:
        q = parse_skeleton(op["skeleton"])
        m = check_skeleton(q).term
        while (nxt := cbv_step(m)) is not None:
            q = preserve(q, nxt)
            m = check_skeleton(q).term
            steps += 1
    assert steps > 800 and pairs[0] <= 1.2 * steps
