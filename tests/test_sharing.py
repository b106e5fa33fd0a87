"""Sharing on the inference path: equal leaf texts read as one leaf, each
distinct node is built and judged once, and no node is hashed by its
structure on the way."""

import re

import pytest

from fskel.expansion import apply_subst
from fskel.initial import derive_substitution, initial_skeleton
from fskel.reduction import cbv_step, preserve
from fskel.solve import REL_F, solved
from fskel.surface import parse_skeleton, parse_term, print_skeleton
from fskel.syntax import (
    FreshSupply, Node, QVar, TypeEnv, canonical_constraint, canonical_type,
)
from fskel.typecheck import Judgement, check_skeleton
from helpers import chain_target, count_instances, poly_chain, skeleton_nodes


def _chain(n: int) -> str:
    """\\f. \\x. f @ (... @ x) with n applications."""
    body = "x"
    for _ in range(n):
        body = f"f @ ({body})"
    return f"\\f. \\x. {body}"


def _leaves(q) -> list:
    return [v for v in skeleton_nodes(q).values() if type(v) is QVar]


@pytest.mark.parametrize("n", [10, 40])
def test_a_printed_chain_reads_back_with_one_leaf_per_text(monkeypatch, n):
    q, _, _ = initial_skeleton(parse_term(_chain(n)), FreshSupply())
    text = print_skeleton(q)
    q2 = parse_skeleton(text)
    assert q2 == q
    # n + 1 leaves of two texts, f<...> and x<...>, in one environment
    assert len(re.findall(r"\w+<[^>]*>", text)) == n + 1
    assert len(set(re.findall(r"\w+<[^>]*>", text))) == 2
    assert len(_leaves(q)) == len(_leaves(q2)) == 2
    # the one environment keeps its text, made once, for every leaf
    assert print_skeleton(q2) == text
    assert len({id(v.env) for v in _leaves(q2)}) == 1
    assert _leaves(q2)[0].env._text == text[text.index("<") + 1:text.index(">")]
    built = count_instances(monkeypatch, Judgement)
    check_skeleton(q2)
    assert built[0] == len(skeleton_nodes(q2))
    monkeypatch.undo()
    # a substitution maps each distinct leaf once, so its image shares too
    sigma, _ = derive_substitution(q2, chain_target(n))
    assert len(_leaves(apply_subst(sigma, q2))) == 2


def test_the_inference_path_hashes_no_node_by_structure(monkeypatch):
    # a table keyed by a skeleton or an environment would walk it on every
    # lookup; the tables on this path key by identity or by interned type
    calls = [0]
    real = Node.__hash__

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(Node, "__hash__", counted)
    hash(QVar("x", TypeEnv()))
    assert calls[0] == 1  # the patch reaches the node classes
    calls[0] = 0
    for n in (10, 20, 40, 80):
        for target in (chain_target(n), chain_target(n, True)):
            q, _, _ = initial_skeleton(parse_term(_chain(n)), FreshSupply())
            q2 = parse_skeleton(print_skeleton(q))
            j = check_skeleton(q2)
            canonical_type(j.rtype)
            canonical_constraint(j.constraint)
            assert solved(j.constraint, REL_F) is False
            sigma, _ = derive_substitution(q2, target)
            j3 = check_skeleton(apply_subst(sigma, q2))
            canonical_type(j3.rtype)
            canonical_constraint(j3.constraint)
            assert solved(j3.constraint, REL_F) is True
    q = poly_chain(8)
    while (nxt := cbv_step(check_skeleton(q).term)) is not None:
        q = preserve(q, nxt)
    assert calls[0] == 0
