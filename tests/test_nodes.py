"""The protocol every fskel node class keeps: its repr, its equality and
hash, positional matching, copies that start with empty memo slots, frozen
fields, and final classes, on which the walkers dispatch by exact class.
Also what `import fskel` costs: no dataclass machinery."""

import ast
import copy
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from fskel import initial, reduction, solve, surface, syntax, typecheck
from fskel.syntax import (
    Abs, And, App, Arrow, Atomic, Constraint, EGuard, EVarApp, EVarIntro, Exists,
    Forall, ForallIntro, FreshSupply, Id, Node, Omega, QAbs, QApp, QEVar, QForall,
    QSub, QVar, QWeak, Skeleton, SubStep, Subst, TVar, Type, TypeEnv, Var,
)

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent
MODULES = [importlib.import_module(f"fskel.{path.stem}")
           for path in sorted((SRC / "fskel").glob("*.py")) if path.stem != "__init__"]

A, B = TVar("a"), TVar("b")
AB = Arrow(A, B)
ENV = TypeEnv((("x", A),))
ATOM = Atomic(A, B)
QX = QVar("x", ENV)
NX = QVar("x", ENV)
INST = reduction.Inst(Forall("a", A), B)

# How each class compares: by identity (interned types and terms), or by its fields,
# on an explicit stack, with the hash of the tuple of its fields (as a
# dataclass with eq=True did) for every other class, constraints too.
FIELDS, IDENTITY = "fields", "identity"

# (factory, how it compares, its repr); a factory builds a fresh node.
CASES = [
    (lambda: Var("x"), IDENTITY, "Var(name='x')"),
    (lambda: Abs("x", Var("x")), IDENTITY, "Abs(binder='x', body=Var(name='x'))"),
    (lambda: App(Var("f"), Var("x")), IDENTITY, "App(fun=Var(name='f'), arg=Var(name='x'))"),
    (lambda: TVar("a"), IDENTITY, "TVar(name='a')"),
    (lambda: Arrow(A, B), IDENTITY, "Arrow(dom=TVar(name='a'), cod=TVar(name='b'))"),
    (lambda: Forall("a", A), IDENTITY, "Forall(binder='a', body=TVar(name='a'))"),
    (lambda: EVarApp("s", frozenset({"b"}), A), IDENTITY,
     "EVarApp(evar='s', forbidden=frozenset({'b'}), body=TVar(name='a'))"),
    (lambda: Id(), FIELDS, "Id()"),
    (lambda: ForallIntro("a", Id()), FIELDS, "ForallIntro(var='a', rest=Id())"),
    (lambda: EVarIntro("s", frozenset({"a"}), Id()), FIELDS,
     "EVarIntro(evar='s', forbidden=frozenset({'a'}), rest=Id())"),
    (lambda: SubStep(Id(), A), FIELDS, "SubStep(rest=Id(), target=TVar(name='a'))"),
    (lambda: Subst((("a", B), ("s", Id()))), FIELDS,
     "Subst(bindings=(('a', TVar(name='b')), ('s', Id())))"),
    (lambda: Omega(), FIELDS, "Omega()"),
    (lambda: Atomic(A, B), FIELDS, "Atomic(lhs=TVar(name='a'), rhs=TVar(name='b'))"),
    (lambda: And(ATOM, Omega()), FIELDS,
     "And(c1=Atomic(lhs=TVar(name='a'), rhs=TVar(name='b')), c2=Omega())"),
    (lambda: Exists("a", ATOM), FIELDS,
     "Exists(binder='a', body=Atomic(lhs=TVar(name='a'), rhs=TVar(name='b')))"),
    (lambda: EGuard("s", frozenset({"b"}), A, Omega()), FIELDS,
     "EGuard(evar='s', forbidden=frozenset({'b'}), witness=TVar(name='a'), body=Omega())"),
    (lambda: TypeEnv((("x", A),)), FIELDS, "TypeEnv(entries=(('x', TVar(name='a')),))"),
    (lambda: QVar("x", ENV), FIELDS,
     "QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),)))"),
    (lambda: QAbs("y", QX), FIELDS,
     "QAbs(binder='y', body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))))"),
    (lambda: QApp(QX, QX), FIELDS,
     "QApp(fun=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))), "
     "arg=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))))"),
    (lambda: QForall("b", QX), FIELDS,
     "QForall(binder='b', body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))))"),
    (lambda: QEVar("s", frozenset({"a"}), QX), FIELDS,
     "QEVar(evar='s', forbidden=frozenset({'a'}), "
     "body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))))"),
    (lambda: QSub(QX, A), FIELDS,
     "QSub(body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))), "
     "target=TVar(name='a'))"),
    (lambda: QWeak(QX, TypeEnv((("y", B),))), FIELDS,
     "QWeak(body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))), "
     "extra=TypeEnv(entries=(('y', TVar(name='b')),)))"),
    (lambda: FreshSupply(1, 2, frozenset({"a0"})), FIELDS,
     "FreshSupply(tvar_next=1, evar_next=2, avoid=frozenset({'a0'}), tvar_prefix='a', "
     "evar_prefix='s')"),
    (lambda: reduction.Inst(Forall("a", A), B), FIELDS,
     "Inst(source=Forall(binder='a', body=TVar(name='a')), arg=TVar(name='b'))"),
    (lambda: reduction.QuantComm(Forall("a", Forall("b", AB))), FIELDS,
     "QuantComm(source=Forall(binder='a', body=Forall(binder='b', "
     "body=Arrow(dom=TVar(name='a'), cod=TVar(name='b')))))"),
    (lambda: reduction.DummyIn("c", A), FIELDS, "DummyIn(var='c', body=TVar(name='a'))"),
    (lambda: reduction.DummyElim("c", A), FIELDS, "DummyElim(var='c', body=TVar(name='a'))"),
    (lambda: reduction.FunCong(INST, INST), FIELDS,
     "FunCong(dom_proof=Inst(source=Forall(binder='a', body=TVar(name='a')), "
     "arg=TVar(name='b')), cod_proof=Inst(source=Forall(binder='a', "
     "body=TVar(name='a')), arg=TVar(name='b')))"),
    (lambda: reduction.EVarCong("s", frozenset(), INST), FIELDS,
     "EVarCong(evar='s', forbidden=frozenset(), proof=Inst(source=Forall(binder='a', "
     "body=TVar(name='a')), arg=TVar(name='b')))"),
    (lambda: reduction.QuantCong("c", INST), FIELDS,
     "QuantCong(var='c', proof=Inst(source=Forall(binder='a', body=TVar(name='a')), "
     "arg=TVar(name='b')))"),
    (lambda: typecheck.Judgement(Var("x"), ENV, A, Omega()), FIELDS,
     "Judgement(term=Var(name='x'), env=TypeEnv(entries=(('x', TVar(name='a')),)), "
     "rtype=TVar(name='a'), constraint=Omega())"),
    (lambda: solve.SubtypingRelation("EQ", solve.leq_eq), FIELDS,
     f"SubtypingRelation(name='EQ', decide={solve.leq_eq!r})"),
    (lambda: initial._AVar("x", "s0"), FIELDS, "_AVar(var='x', evar='s0')"),
    (lambda: initial._AAbs("x", initial._AVar("x", "s0"), "s1"), FIELDS,
     "_AAbs(binder='x', body=_AVar(var='x', evar='s0'), evar='s1')"),
    (lambda: initial._AApp(initial._AVar("f", "s0"), initial._AVar("x", "s1"), "a0", "s2"),
     FIELDS,
     "_AApp(fun=_AVar(var='f', evar='s0'), arg=_AVar(var='x', evar='s1'), tvar='a0', "
     "evar='s2')"),
]

# The nodes a reduction step builds, under the names of the proof-carrying
# classes they replaced: the benchmark's names for QVar, QAbs and QApp, a
# |> built with its proof, and what elaboration makes of a quantifier and
# an E-variable node (the very node, holding its form).
FORMS = [
    ("NVar", lambda: reduction.NVar("x", ENV),
     "QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),)))"),
    ("NAbs", lambda: reduction.NAbs("y", NX),
     "QAbs(binder='y', body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))))"),
    ("NApp", lambda: reduction.NApp(NX, NX),
     "QApp(fun=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))), "
     "arg=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))))"),
    ("NForall", lambda: reduction.to_neq(QForall("b", QVar("x", ENV))),
     "QForall(binder='b', body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))))"),
    ("NEVar", lambda: reduction.to_neq(QEVar("s", frozenset({"a"}), QVar("x", ENV))),
     "QEVar(evar='s', forbidden=frozenset({'a'}), "
     "body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))))"),
    ("NSub", lambda: reduction.proved(NX, INST),
     "QSub(body=QVar(var='x', env=TypeEnv(entries=(('x', TVar(name='a')),))), "
     "target=TVar(name='b'))"),
]
IDS = [case[2].split("(")[0] for case in CASES] + [name for name, _, _ in FORMS]
CASES += [(make, FIELDS, text) for _, make, text in FORMS]


def _fields(node):
    return tuple(getattr(node, name) for name in type(node).__match_args__)


def _memo_slots(cls):
    """The memo slots of cls: every slot that is not a field."""
    names = {n for k in cls.__mro__ for n in getattr(k, "__slots__", ())}
    return sorted(n for n in names - set(cls.__match_args__) if n != "__weakref__")


def _destructure(node):
    """The node's fields by a positional class pattern."""
    C = type(node)
    match len(C.__match_args__), node:
        case 0, C():
            return ()
        case 1, C(a):
            return (a,)
        case 2, C(a, b):
            return (a, b)
        case 3, C(a, b, c):
            return (a, b, c)
        case 4, C(a, b, c, d):
            return (a, b, c, d)
        case 5, C(a, b, c, d, e):
            return (a, b, c, d, e)
    raise AssertionError(node)


def test_every_node_class_is_covered():
    classes = {type(make()) for make, _, _ in CASES}
    assert len(classes) == len(CASES) - len(FORMS) == 38
    modules = (syntax, reduction, typecheck, solve, initial)
    with_fields = {v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__
                   and getattr(v, "__match_args__", ())}
    assert with_fields <= classes


@pytest.mark.parametrize("make, eq, text", CASES, ids=IDS)
def test_repr_eq_hash_and_match(make, eq, text):
    node, fresh = make(), make()
    assert repr(node) == text
    assert _destructure(node) == _fields(node)
    assert node == fresh and not node != fresh and hash(node) == hash(fresh)
    assert (node is fresh) == (eq == IDENTITY)
    assert node != object() and node != _fields(node)
    if eq == FIELDS:
        assert hash(node) == hash(_fields(node))


@pytest.mark.parametrize("make, eq, text", CASES, ids=IDS)
def test_copies_start_with_empty_memo_slots(make, eq, text):
    node = make()
    memo = _memo_slots(type(node))
    if eq != IDENTITY:
        for name in memo:
            object.__setattr__(node, name, lambda: None)  # cannot be pickled
    for copied in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert type(copied) is type(node) and copied == node and repr(copied) == text
        if eq == IDENTITY:
            assert copied is node
        else:
            assert copied is not node
            empty = [syntax.MEMO_EMPTY.get(name) for name in memo]
            assert [getattr(copied, name) for name in memo] == empty


@pytest.mark.parametrize("make, eq, text", CASES, ids=IDS)
def test_fields_are_frozen(make, eq, text):
    node = make()
    for name in type(node).__match_args__:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert repr(node) == text


@pytest.mark.parametrize("make, eq, text", CASES, ids=IDS)
def test_other_names_are_frozen_too(make, eq, text):
    # a slots=True dataclass raised TypeError here: its frozen __setattr__
    # and __delattr__ name the class as it was before slots were added
    node = make()
    for name in ("other", *_memo_slots(type(node))):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)


def test_repr_and_deepcopy_follow_any_depth():
    # 2,000 levels: a right-nested And, a guard chain, and deep nodes held in
    # the tuple fields of an environment and a substitution
    n = 2000
    conj, guards, arrow, expansion = ATOM, ATOM, A, Id()
    for i in range(n):
        conj = And(ATOM, conj)
        guards = EGuard(f"s{i}", frozenset({"a"}), AB, guards)
        arrow = Arrow(B, arrow)
        expansion = EVarIntro("s", frozenset({"b"}), expansion)
    atom_text = repr(ATOM)
    cases = [
        (conj, f"And(c1={atom_text}, c2=" * n + atom_text + ")" * n),
        (guards, "".join(f"EGuard(evar='s{i}', forbidden=frozenset({{'a'}}), witness={AB!r}, body="
                         for i in reversed(range(n))) + atom_text + ")" * n),
        (TypeEnv((("x", arrow), ("y", A))),
         "TypeEnv(entries=(('x', " + "Arrow(dom=TVar(name='b'), cod=" * n + "TVar(name='a')"
         + ")" * n + "), ('y', TVar(name='a'))))"),
        (Subst((("s", expansion),)),
         "Subst(bindings=(('s', " + "EVarIntro(evar='s', forbidden=frozenset({'b'}), rest=" * n
         + "Id()" + ")" * n + "),))"),
    ]
    for node, text in cases:
        assert repr(node) == text
        copied = copy.deepcopy(node)
        assert type(copied) is type(node) and copied is not node and repr(copied) == text
    assert copy.deepcopy(arrow) is arrow


def _deep(n: int, bottom: str = "x") -> list:
    """Fresh nodes n levels deep of each kind compared by structure: a
    skeleton of each binder and step, an environment's skeleton, an
    expansion, a substitution holding it, a constraint and a skeleton whose
    |> carry their proofs; `bottom` names the variable at the bottom of
    each."""
    leaf = QVar(bottom, TypeEnv(((bottom, A),)))
    abss, steps, expansion = leaf, leaf, SubStep(Id(), TVar(bottom))
    conj, neq = Atomic(TVar(bottom), B), QVar(bottom, ENV)
    for i in range(n):
        abss = QEVar("s", frozenset({"a"}), QAbs("x", QForall("c", abss)))
        steps = QWeak(QSub(QApp(leaf, steps), A), TypeEnv((("y", B),)))
        expansion = EVarIntro("s", frozenset({"b"}), SubStep(ForallIntro("a", expansion), A))
        conj = And(ATOM, EGuard("s", frozenset({"a"}), AB, Exists("a", conj)))
        neq = reduction.proved(QAbs("x", neq), INST)
    return [abss, steps, TypeEnv((("x", A), ("y", B))), expansion,
            Subst((("a", B), ("s", expansion))), conj, neq]


def test_eq_and_hash_follow_any_depth():
    # 2,000 levels, past the recursion limit: two equal, distinct copies
    # compare equal and hash alike, and a change at the bottom is seen
    for node, twin, other in zip(_deep(2000), _deep(2000), _deep(2000, bottom="z")):
        assert node is not twin and node == twin and not node != twin
        assert hash(node) == hash(twin)
        if type(node) is not TypeEnv:
            assert node != other


def test_pickle_follows_any_depth_and_keeps_sharing():
    for node in _deep(2000):
        copied = pickle.loads(pickle.dumps(node))
        assert type(copied) is type(node) and copied is not node and copied == node
    arrow = A
    for _ in range(2000):
        arrow = Arrow(B, arrow)
    assert pickle.loads(pickle.dumps(arrow)) is arrow  # through the intern table
    # a part shared in the node is encoded once and rebuilt once
    q = _deep(200)[0]
    shared = QApp(q, q)
    assert len(pickle.dumps(shared)) < 1.1 * len(pickle.dumps(q))
    copied = pickle.loads(pickle.dumps(shared))
    assert copied == shared and copied.fun is copied.arg


def test_import_needs_no_dataclass_machinery():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fskel\n"
        "from fskel import syntax\n"
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
        "nodes = [v for name, m in sys.modules.items() if name.startswith('fskel.')\n"
        "         for v in vars(m).values() if isinstance(v, type)\n"
        "         and v.__module__ == name and issubclass(v, syntax.Node)]\n"
        "print(len(nodes), *sorted(v.__name__ for v in nodes if v.__dictoffset__))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded, nodes = done.stdout.splitlines()
    assert loaded == ""
    assert int(nodes) >= 45  # the node classes and their bases, none with a __dict__


# ---------------------------------------------------------------------------
# Final classes and exact-class dispatch


def _node_classes():
    return {v for m in MODULES for v in vars(m).values()
            if isinstance(v, type) and v.__module__ == m.__name__ and issubclass(v, Node)
            and v is not Node}


CATEGORIES = {syntax.Term, Type, syntax.Expansion, Constraint, Skeleton,
              reduction.SubtypeSkeleton}


def test_every_concrete_node_class_is_final():
    # concrete: every class with fields, and the leaves without (Id, Omega)
    classes = _node_classes()
    assert CATEGORIES | {Id, Omega} <= classes
    for cls in classes - CATEGORIES:
        assert cls._final, cls
        with pytest.raises(TypeError, match="final"):
            type("Derived", (cls,), {"__slots__": ()})
    for cls in CATEGORIES:
        # a category has no fields and is a base of the classes a walker
        # dispatches on; a class may still derive from it
        assert not cls._final and not cls.__match_args__
        assert any(k.__base__ is cls for k in classes)


def test_no_class_derives_from_a_final_node_class():
    final = {k.__name__ for k in _node_classes() if k._final}
    files = sorted((SRC / "fskel").glob("*.py")) + sorted(TESTS.glob("*.py"))
    derived = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                    if name in final:
                        derived.append(f"{path.name}: {node.name}({name})")
    assert derived == []


# Members of a category that no walker knows: each has the memo slots its
# category's walkers read before they dispatch.
class _StraySkeleton(Skeleton):
    __slots__ = ()


class _StrayType(Type):
    __slots__ = ()


class _StrayConstraint(Constraint):
    __slots__ = ()


NX_ENV = QVar("x", ENV)

# (walker, call): each call hands the walker a node of a class it has no
# branch for, of a foreign category where the walker reads no memo slot
# first; the walker's last branch raises TypeError.
FOREIGN = [
    ("typecheck._judge", lambda: typecheck._judge(_StraySkeleton())),
    ("reduction._elaborate", lambda: reduction._elaborate(_StraySkeleton())),
    ("reduction._certify", lambda: reduction._certify(_StraySkeleton())),
    ("reduction.subst_term", lambda: reduction.subst_term("x", Var("y"), A)),
    ("reduction.subst_redex", lambda: reduction.subst_redex(A, "x", NX_ENV)),
    ("reduction._term_names", lambda: reduction._term_names(A, {})),
    ("reduction.transform_T", lambda: reduction.transform_T(_StraySkeleton())),
    ("reduction._extend_envs", lambda: reduction._extend_envs(A, [("y", B)])),
    ("reduction._subst", lambda: reduction.subst_neq("a", B, _StraySkeleton())),
    ("syntax.ftv", lambda: syntax.ftv(Var("x"))),
    ("syntax._type_ftv", lambda: syntax.ftv(_StrayType())),
    ("syntax.fv", lambda: syntax.fv(A)),
    ("surface.print_term", lambda: surface.print_term(A)),
    ("solve.solved", lambda: solve.solved(_StrayConstraint(), solve.REL_F)),
]


@pytest.mark.parametrize("walker, call", FOREIGN, ids=[w for w, _ in FOREIGN])
def test_walkers_reject_a_node_they_have_no_branch_for(walker, call):
    with pytest.raises(TypeError):
        call()


def test_walkers_without_a_type_error_keep_their_answer_on_foreign_nodes():
    # these walkers never raised TypeError: cbv_step has no step, term
    # equality says no, and a step finds no redex
    assert reduction.cbv_step(A) is None
    assert reduction.cbv_step(App(A, B)) is None
    assert syntax.term_alpha_eq(A, B) is False
    assert syntax.term_alpha_eq(Var("x"), A) is False
    with pytest.raises(reduction.NotAStep):
        reduction._step_at(A)
    with pytest.raises(reduction.NotAStep):
        reduction.step_neq(QAbs("x", NX_ENV))
