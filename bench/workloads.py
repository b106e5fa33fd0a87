"""The benchmark's operations: what each op calls in fskel and how its
answer is checked.

setup(specs) parses every input text of a workload and returns its blocks
of Op objects.  Op.run(tracer) makes the timed calls into fskel, each
through tracer.call so a traced run can time it from outside the library;
Op.check(result) then verifies the answer with the independent oracles in
oracle.py, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from fskel.cli import main as cli_main
from fskel.expansion import (
    apply_exp_skel, apply_subst, property_expansion_sound, property_subst_sound,
)
from fskel.initial import derive_substitution, initial_skeleton
from fskel.reduction import (
    NAbs, NApp, NVar, cbv_step, from_neq, preserve, step_neq, sz, to_neq,
    transform_T,
)
from fskel.solve import RELATIONS, check_system_f, erase_evars, leq_f, solved
from fskel.surface import (
    parse_constraint, parse_expansion, parse_skeleton, parse_subst,
    parse_term, parse_type, print_skeleton,
)
from fskel.syntax import (
    Abs, App, FreshSupply, QAbs, QApp, QVar, Var, canonical_constraint,
    canonical_type,
)
from fskel.typecheck import SkeletonError, check_skeleton

import oracle

REL_F = RELATIONS["F"]
CLI_DIR = Path(__file__).resolve().parent / "cli"


class Op:
    """One operation: kind, input size n, the timed run and its check.

    check records the op's sizes (skeleton nodes and constraint atoms) the
    first time it runs."""

    def __init__(self, kind, n, run, check):
        self.kind, self.n, self.run, self._check = kind, n, run, check
        self.nodes = self.atoms = None
        self.index = -1  # position among all ops of a run

    def check(self, result) -> bool:
        sizes = self._check(result)
        if sizes is None:
            return False
        if self.nodes is None:
            self.nodes, self.atoms = sizes
        return True


# ---------------------------------------------------------------------------
# Counts taken at the call boundaries of a traced run


def _decided(args, result, exc):
    return {"solve.decisions": 1, "solve.yes": int(result is True)}


HOOKS = {
    "typecheck.check_skeleton": lambda args, result, exc: {
        "typecheck.nodes": oracle.nodes(args[0]),
        "typecheck.rejects": int(isinstance(exc, SkeletonError))},
    "syntax.canonical_constraint": lambda args, result, exc: {
        "syntax.atoms_in": len(oracle.atoms(args[0])),
        "syntax.items_out": len(oracle.atoms(result)) if exc is None else 0},
    "solve.solved": _decided,
    "solve.leq_f": _decided,
    "surface.parse": lambda args, result, exc: {"surface.chars": len(args[0])},
    "surface.print": lambda args, result, exc: {"surface.chars": len(result or "")},
    "reduction.preserve": lambda args, result, exc: {"reduction.steps": 1},
}


# ---------------------------------------------------------------------------
# chain_kernel


def _chain_op(spec):
    n, text = spec["n"], spec["term"]
    expected = oracle.term_key(parse_term(text))
    target = parse_skeleton(spec["target"])
    rtype = parse_type(spec["rtype"])
    lhs, rhs = (parse_type(t) for t in spec["atom"])

    def run(tr):
        m = tr.call("surface.parse", parse_term, text)
        q, _, _ = tr.call("initial.initial_skeleton", initial_skeleton, m, FreshSupply())
        printed = tr.call("surface.print", print_skeleton, q)
        q2 = tr.call("surface.parse", parse_skeleton, printed)
        j = tr.call("typecheck.check_skeleton", check_skeleton, q2)
        ct = tr.call("syntax.canonical_type", canonical_type, j.rtype)
        cc = tr.call("syntax.canonical_constraint", canonical_constraint, j.constraint)
        ok = tr.call("solve.solved", solved, j.constraint, REL_F)
        sigma, gamma = tr.call("initial.derive_substitution", derive_substitution, q2, target)
        q3 = tr.call("expansion.apply_subst", apply_subst, sigma, q2)
        j3 = tr.call("typecheck.check_skeleton", check_skeleton, q3)
        ct3 = tr.call("syntax.canonical_type", canonical_type, j3.rtype)
        cc3 = tr.call("syntax.canonical_constraint", canonical_constraint, j3.constraint)
        ok3 = tr.call("solve.solved", solved, j3.constraint, REL_F)
        return q, q2, j, ct, cc, ok, gamma, q3, j3, ct3, cc3, ok3

    def check(result):
        q, q2, j, ct, cc, ok, gamma, q3, j3, ct3, cc3, ok3 = result
        a3 = oracle.atoms(j3.constraint)
        good = (
            q2 == q
            # the initial skeleton: one atom per application, none solvable
            # since each compares an E-variable application with an arrow
            and oracle.term_key(j.term) == expected and not j.env.entries
            and len(oracle.atoms(j.constraint)) == n and len(oracle.atoms(cc)) == n
            and oracle.types_equal(ct, j.rtype) and ok is False
            # the derived substitution reaches the polymorphic target
            and not gamma.entries
            and oracle.term_key(j3.term) == expected and not j3.env.entries
            and oracle.types_equal(j3.rtype, rtype) and oracle.types_equal(ct3, rtype)
            and len(a3) == n
            and all(oracle.types_equal(a.lhs, lhs) and oracle.types_equal(a.rhs, rhs)
                    for a in a3)
            and len(oracle.atoms(cc3)) == 1 and ok3 is True)
        return (oracle.nodes(q), n) if good else None

    return Op("chain", n, run, check)


# ---------------------------------------------------------------------------
# reduce_nf


def _term_of(q):
    """The term a skeleton (plain or proof-carrying) types."""
    if isinstance(q, (QVar, NVar)):
        return Var(q.var)
    if isinstance(q, (QAbs, NAbs)):
        return Abs(q.binder, _term_of(q.body))
    if isinstance(q, (QApp, NApp)):
        return App(_term_of(q.fun), _term_of(q.arg))
    return _term_of(q.body)


def _redex_fun(n):
    """The function part of the call-by-value redex of a proof-carrying
    skeleton: the part the head-exposing transformation works on."""
    while True:
        if isinstance(n, NApp):
            f, a = _term_of(n.fun), _term_of(n.arg)
            if isinstance(f, Abs) and isinstance(a, (Var, Abs)):
                return n.fun
            n = n.fun if oracle.reducible(f) else n.arg
        elif isinstance(n, (NVar, NAbs)):
            return None
        else:
            n = n.body


def _probe(tr, q):
    """Re-run each reduction stage on one step's input (traced runs only)."""
    n = tr.call("reduction.to_neq", to_neq, q)
    f = _redex_fun(n)
    tr.count("reduction.sz_before", sz(f))
    t = tr.call("reduction.transform_T", transform_T, f)
    tr.count("reduction.sz_after_T", sz(t))
    n2 = tr.call("reduction.step_neq", step_neq, n)
    tr.call("reduction.from_neq", from_neq, n2)


def _reduce_op(spec):
    q0 = parse_skeleton(spec["skeleton"])
    rtype = parse_type(spec["rtype"])
    expected = []  # the reference reduction, computed at the first check
    limit = 10_000

    def run(tr):
        q = q0
        j = tr.call("typecheck.check_skeleton", check_skeleton, q)
        trail = [(j, tr.call("solve.solved", solved, j.constraint, REL_F))]
        while len(trail) <= limit:
            nxt = tr.call("reduction.cbv_step", cbv_step, j.term)
            if nxt is None:
                break
            if tr.enabled:
                _probe(tr, q)
            q = tr.call("reduction.preserve", preserve, q, nxt)
            j = tr.call("typecheck.check_skeleton", check_skeleton, q)
            trail.append((j, tr.call("solve.solved", solved, j.constraint, REL_F)))
        erased = tr.call("solve.check_system_f",
                         lambda q: check_system_f(erase_evars(q)), q)
        return trail, erased

    def check(result):
        trail, erased = result
        if not expected:
            expected.extend(oracle.term_key(m) for m in oracle.cbv_trace(_term_of(q0), limit))
        j0 = trail[0][0]
        good = (erased is True and len(trail) == len(expected)
                and all(ok is True and oracle.term_key(j.term) == key
                        and oracle.envs_equal(j.env, j0.env)
                        and oracle.types_equal(j.rtype, rtype)
                        for (j, ok), key in zip(trail, expected)))
        return (oracle.nodes(q0), len(oracle.atoms(j0.constraint))) if good else None

    return Op(spec["kind"], spec["n"], run, check)


# ---------------------------------------------------------------------------
# random_batch


def _random_op(spec):
    kind = spec["kind"]
    if kind in ("subst", "expand"):
        q = parse_skeleton(spec["skeleton"])
        expected = oracle.term_key(parse_term(spec["term"]))
        if kind == "subst":
            phi = parse_subst(spec["subst"])
            apply = ("expansion.apply_subst", apply_subst, phi, q)
            sound = ("expansion.soundness", property_subst_sound, q, phi)
        else:
            i = parse_expansion(spec["expansion"])
            forbidden = frozenset(v for v in spec["forbidden"].split(",") if v)
            apply = ("expansion.apply_exp_skel", apply_exp_skel, i, forbidden, q)
            sound = ("expansion.soundness", property_expansion_sound, q, i, forbidden)

        def run(tr):
            q2 = tr.call(*apply)
            j2 = tr.call("typecheck.check_skeleton", check_skeleton, q2)
            return j2, tr.call(*sound)

        def check(result):
            j2, sound_ok = result
            good = sound_ok is True and oracle.term_key(j2.term) == expected
            return (oracle.nodes(q), 0) if good else None

        return Op(kind, oracle.nodes(q), run, check)

    if kind == "reject":
        q = parse_skeleton(spec["skeleton"])

        def run(tr):
            try:
                tr.call("typecheck.check_skeleton", check_skeleton, q)
            except SkeletonError:
                return "rejected"
            return "accepted"

        return Op(kind, oracle.nodes(q), run,
                  lambda r: (oracle.nodes(q), 0) if r == "rejected" else None)

    if kind == "leq":
        t1, t2, verdict = parse_type(spec["t1"]), parse_type(spec["t2"]), spec["verdict"]
        return Op(kind, 2, lambda tr: tr.call("solve.leq_f", leq_f, t1, t2),
                  lambda r: (0, 1) if r is verdict else None)

    c = parse_constraint(spec["constraint"])
    verdict = kind == "solved"
    count = len(oracle.atoms(c))
    return Op(kind, count, lambda tr: tr.call("solve.solved", solved, c, REL_F),
              lambda r: (0, count) if r is verdict else None)


# ---------------------------------------------------------------------------
# cli_batch


def _cli_op(spec):
    argv, exit_code, digest = spec["argv"], spec["exit"], spec["sha256"]
    name = "cli." + argv[0].replace("-", "_")

    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(name, cli_main, argv)
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        good = code == exit_code and hashlib.sha256(stdout.encode()).hexdigest() == digest
        return (0, 0) if good else None

    return Op(spec["kind"], spec["n"], run, check)


PARSERS = {"skeleton": parse_skeleton, "term": parse_term, "constraint": parse_constraint}


def _cli_setup(blocks):
    """Parse each distinct input file once, as the CLI will, and build ops."""
    seen = set()
    for block in blocks:
        for spec in block:
            path = spec["input"]
            if path in seen or spec.get("parses") is False:
                continue
            seen.add(path)
            PARSERS[spec["syntax"]]((CLI_DIR.parent.parent / path).read_text())
    return [[_cli_op(s) for s in block] for block in blocks]


SETUP = {
    "chain_kernel": lambda blocks: [[_chain_op(s) for s in b] for b in blocks],
    "reduce_nf": lambda blocks: [[_reduce_op(s) for s in b] for b in blocks],
    "random_batch": lambda blocks: [[_random_op(s) for s in b] for b in blocks],
    "cli_batch": _cli_setup,
}
