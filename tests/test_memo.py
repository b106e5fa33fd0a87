"""Facts kept in the memo slots of immutable nodes: judgements, proof-carrying
forms, solvedness verdicts and substitution indexes. Each is a pure
function of its node, so a memoized node must behave like a fresh one."""

import copy
import pickle

import pytest

from fskel.expansion import apply_subst
from fskel.initial import derive_substitution, initial_skeleton
from fskel.reduction import (
    NestedWeakening, NotSolved, cbv_step, from_neq, preserve, to_neq,
)
from fskel.solve import (
    REL_EQ, REL_F, SubtypingRelation, leq_eq, leq_f, record_solved, solved,
)
from fskel.surface import parse_constraint, parse_skeleton, parse_subst, parse_type
from fskel.syntax import NEQ_UNSET, And, Atomic, FreshSupply, Subst, TypeEnv
from fskel.typecheck import Judgement, SkeletonError, check_skeleton
from helpers import (
    constraint_nodes, count_instances, decide, id_chain, poly_chain, skeleton_nodes,
)


@pytest.mark.parametrize("chain", [id_chain, poly_chain])
@pytest.mark.parametrize("n", [8, 16])
def test_check_after_preserve_judges_only_unshared_nodes(monkeypatch, chain, n):
    q = chain(n)
    j = check_skeleton(q)
    shared = 0
    while (m := cbv_step(j.term)) is not None:
        # preserve judges its reduct, so the caller's check only reads it
        built = count_instances(monkeypatch, Judgement)
        q2 = preserve(q, m)
        j = check_skeleton(q2)
        monkeypatch.undo()
        old = skeleton_nodes(q)
        new = [node for i, node in skeleton_nodes(q2).items() if i not in old]
        shared += len(skeleton_nodes(q2)) - len(new)
        assert built[0] == len(new)
        q = q2
    # every function part off the path to a redex is shared, not rebuilt
    assert shared >= 2 * n


def _counting(rel, calls):
    """rel's decide, counting its calls in calls[rel.name]."""
    real = rel.decide

    def decide(t1, t2):
        calls[rel.name] += 1
        return real(t1, t2)

    return decide


@pytest.mark.parametrize("chain", [id_chain, poly_chain])
@pytest.mark.parametrize("n", [8, 16])
def test_a_reduct_is_solved_under_f_by_construction(chain, n):
    # preserve records its reduct's constraint as solved under F, so solved
    # decides no atom there; under EQ it decides as before, and deciding
    # every atom of a memo-free copy agrees
    calls = {"F": 0, "EQ": 0}
    q = chain(n)
    j = check_skeleton(q)
    steps = atoms = 0
    while (m := cbv_step(j.term)) is not None:
        q = preserve(q, m)
        j = check_skeleton(q)
        assert REL_F in j.constraint._solved
        before = dict(calls)
        for rel in (REL_F, REL_EQ):
            object.__setattr__(rel, "decide", _counting(rel, calls))
        try:
            ok_f, ok_eq = solved(j.constraint, REL_F), solved(j.constraint, REL_EQ)
        finally:
            for rel, real in ((REL_F, leq_f), (REL_EQ, leq_eq)):
                object.__setattr__(rel, "decide", real)
        has_atom = any(isinstance(c, Atomic) for c in constraint_nodes(j.constraint))
        assert ok_f and calls["F"] == before["F"]
        assert ok_eq == decide(j.constraint, REL_EQ)
        assert (calls["EQ"] > before["EQ"]) == has_atom
        assert decide(j.constraint, REL_F)
        steps += 1
        atoms += has_atom
    assert steps >= n and (atoms > 0) == (chain is poly_chain)


def test_faithful_skeleton_comes_back_from_its_form():
    q = parse_skeleton("(\\x. x<x: c -> c>) @ (\\z. z<z: c>)")
    assert from_neq(to_neq(q)) is q
    # a redundant |> is dropped, and a proof ending at a type that is equal
    # to the target but not the target itself keeps the type it ends at
    for text, expected in [
        ("(\\z. z<z: c>) |> c -> c", "\\z. z<z: c>"),
        ("x<x: all b. b -> b> |> all z. c -> c", "x<x: all b. b -> b> |> c -> c"),
    ]:
        q = parse_skeleton(text)
        assert from_neq(to_neq(q)) == parse_skeleton(expected)


def _every_memo(q):
    """Fill every memo slot of q and of the facts about it."""
    j = check_skeleton(q)
    to_neq(q)
    assert solved(j.constraint, REL_F)
    return j


@pytest.mark.parametrize("text", [
    "(\\f. \\x. (f<f: all b. b -> b, x: c> |> c -> c) @ x<f: all b. b -> b, x: c>)"
    " @ (all b. \\y. y<y: b>)",
    "all a. s^{} \\x. x<x: a>",
])
def test_memoized_node_equals_a_fresh_parse(text):
    q = parse_skeleton(text)
    j = _every_memo(q)
    fresh = parse_skeleton(text)
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
    assert j == check_skeleton(fresh) and hash(j) == hash(check_skeleton(fresh))
    for copied in (copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert copied == q and repr(copied) == repr(q)
        # a copy starts with empty slots
        assert copied._judgement is None and copied._neq is NEQ_UNSET
        assert check_skeleton(copied) == j
    for node in (j.constraint, j.rtype, j.term, j.env):
        assert pickle.loads(pickle.dumps(node)) == node == copy.deepcopy(node)


def test_memoized_subst_equals_a_fresh_one():
    text = "[a := b -> b, s := all c. id, a := c]"
    phi = parse_subst(text)
    a = parse_type("a")
    assert apply_subst(phi, a) == parse_type("b -> b")
    fresh = parse_subst(text)
    assert phi == fresh and hash(phi) == hash(fresh) and repr(phi) == repr(fresh)
    for copied in (copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
        assert copied == phi and apply_subst(copied, a) == parse_type("b -> b")
    assert Subst() == Subst(()) and apply_subst(Subst(), a) == a


def test_solved_verdict_is_kept_per_relation():
    c = parse_constraint("all a. a -> a <= c -> c")
    assert solved(c, REL_F) is True
    assert solved(c, REL_EQ) is False
    rejects = SubtypingRelation("F", lambda t1, t2: False)
    assert solved(c, rejects) is False
    assert solved(c, REL_F) is True and solved(c, REL_EQ) is False
    # a chain 2,000 deep is walked on an explicit stack, and again once the
    # verdicts are kept
    deep = c
    for _ in range(2000):
        deep = And(c, deep)
    assert solved(deep, REL_F) is True and solved(deep, REL_F) is True
    assert solved(deep, REL_EQ) is False and solved(deep, rejects) is False


def test_solved_decides_only_atoms_not_kept(monkeypatch):
    c = parse_constraint("all a. a -> a <= c -> c & all b. b <= c -> c")
    decide = []
    counting = SubtypingRelation("F", lambda t1, t2: decide.append(t1) is None)
    assert solved(c, counting) and len(decide) == 2
    assert solved(And(c, c), counting) and len(decide) == 2


def test_a_recorded_verdict_is_read_and_kept_per_relation():
    c = parse_constraint("all a. a -> a <= c -> c & all b. b <= c -> c")
    decided = []
    counting = SubtypingRelation("F", lambda t1, t2: decided.append(t1) is None)
    record_solved(c, counting)
    # every node holds one shared verdict, read without deciding an atom
    assert len({id(node._solved) for node in constraint_nodes(c)}) == 1
    assert solved(c, counting) and solved(And(c, c), counting) and decided == []
    # another relation still decides, and its verdict is kept beside it
    assert solved(c, REL_F) and c._solved == (counting, REL_F)
    assert solved(c, REL_EQ) is False and REL_EQ not in c._solved


def test_errors_are_raised_again_on_a_second_call():
    invalid = parse_skeleton("(\\x. x<x: c>) @ y<y: c -> c>")
    unsolved = parse_skeleton("(\\x. x<x: c -> c> |> b) @ (\\y. y<y: c>)")
    weakened = parse_skeleton("(\\x. x<x: c -> c> + {w: b}) @ (\\z. z<z: c, w: b>)")
    for _ in range(2):
        with pytest.raises(SkeletonError):
            check_skeleton(invalid)
    for q in (unsolved, weakened):
        m = cbv_step(check_skeleton(q).term)
        error = NotSolved if q is unsolved else NestedWeakening
        for _ in range(2):
            with pytest.raises(error):
                to_neq(q)
            with pytest.raises(error):
                preserve(q, m)


def test_derive_substitution_reuses_the_callers_judgements(monkeypatch):
    target = parse_skeleton(
        "(\\f. \\x. f<f: c -> c, x: c> @ x<f: c -> c, x: c>) @ (\\y. y<y: c>)")
    q0, _, _ = initial_skeleton(check_skeleton(target).term, FreshSupply())
    check_skeleton(q0)
    built = count_instances(monkeypatch, Judgement)
    sigma, gamma = derive_substitution(q0, target)
    assert built[0] == 0
    monkeypatch.undo()
    assert gamma == TypeEnv()
    # a target not checked before is typed, the initial skeleton is not
    target2 = parse_skeleton(
        "(\\f. \\x. f<f: c -> c, x: c> @ x<f: c -> c, x: c>) @ (\\y. y<y: c>)")
    built = count_instances(monkeypatch, Judgement)
    assert derive_substitution(q0, target2) == (sigma, gamma)
    assert built[0] == len(skeleton_nodes(target2))


def test_weakened_root_is_stepped_and_shares_the_rest():
    q = parse_skeleton("((\\x. x<x: c -> c>) @ (\\z. z<z: c>)) + {w: b}")
    j = check_skeleton(q)
    q2 = preserve(q, cbv_step(j.term))
    assert q2.extra == q.extra and q2.body is q.body.arg
    assert check_skeleton(q2).env == j.env
