"""A reference printer for the surface syntax, written from the grammar in
the docstring of fskel.surface and used as an oracle for its printers.

Each printer is plain recursion by precedence: a position in the grammar
asks for a level, and a form whose own level is lower is parenthesised.
It keeps no table, reads nodes by attribute and shares no code with
fskel.surface.

The printed forms follow the grammar with these conventions:
- `\\x.`, `all a.` and `ex a.` extend as far right as they can. They are
  written bare at the top and as the body of a binder; a type quantifier
  also as the codomain of an arrow, and `ex` also right of `&`. Anywhere
  else they are parenthesised, as the last argument of `@` too;
- `->` is right-associative, `@` left-associative, and `|>` and `+` are
  postfix operators that chain to the left;
- `s^{A}` takes an atom;
- `C & C` keeps its right operand bare and parenthesises a prefix form
  (`ex a.` or a guard) on its left, and a conjunction there whose last
  conjunct is one: an `ex` body would take in the right operand, and `&`
  reads as right-nested; a guard's body is an atom, so a conjunction or
  an `ex` there is parenthesised;
- a variable set is written sorted, separated by "," with no space, and
  an environment's entries are separated by ", ".
"""

from __future__ import annotations

from fskel.syntax import (
    Abs, And, Arrow, Atomic, EGuard, EVarApp, EVarIntro, Exists, Forall,
    ForallIntro, Id, Omega, QAbs, QApp, QEVar, QForall, QSub, QVar, QWeak,
    SubStep, TVar, Var,
)


def _wrap(text: str, own: int, wanted: int) -> str:
    return text if own >= wanted else f"({text})"


def _names(vs) -> str:
    return ",".join(sorted(vs))


# Types: `all a. T` and `T -> T` are level 0 (an arrow's domain asks for
# level 1, its codomain for 0); a variable and `s^{A} T` are level 1.

def ref_type(t, wanted: int = 0) -> str:
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, EVarApp):
        return f"{t.evar}^{{{_names(t.forbidden)}}} {ref_type(t.body, 1)}"
    if isinstance(t, Arrow):
        return _wrap(f"{ref_type(t.dom, 1)} -> {ref_type(t.cod, 0)}", 0, wanted)
    if isinstance(t, Forall):
        return _wrap(f"all {t.binder}. {ref_type(t.body, 0)}", 0, wanted)
    raise AssertionError(t)


# Terms: `\x. M` is level 0, `M @ N` level 1 (function at 1, argument at 2),
# a variable level 2.

def ref_term(m, wanted: int = 0) -> str:
    if isinstance(m, Var):
        return m.name
    if isinstance(m, Abs):
        return _wrap(f"\\{m.binder}. {ref_term(m.body, 0)}", 0, wanted)
    return _wrap(f"{ref_term(m.fun, 1)} @ {ref_term(m.arg, 2)}", 1, wanted)


# Expansions: `all a. I` is level 0, `I |> T` level 1 (its expansion at 1),
# `id` and `s^{A} I` level 2 (the latter's expansion at 2).

def ref_expansion(i, wanted: int = 0) -> str:
    if isinstance(i, Id):
        return "id"
    if isinstance(i, EVarIntro):
        return f"{i.evar}^{{{_names(i.forbidden)}}} {ref_expansion(i.rest, 2)}"
    if isinstance(i, SubStep):
        return _wrap(f"{ref_expansion(i.rest, 1)} |> {ref_type(i.target)}", 1, wanted)
    if isinstance(i, ForallIntro):
        return _wrap(f"all {i.var}. {ref_expansion(i.rest, 0)}", 0, wanted)
    raise AssertionError(i)


# Constraints: a position is the whole text (or the body of `ex`, or the
# right of `&`), the left of `&`, or the body of a guard.

def _ends_in_prefix(c) -> bool:
    """Whether c's text ends in the body of an `ex` or a guard."""
    if isinstance(c, And):
        return _ends_in_prefix(c.c2)
    return isinstance(c, (Exists, EGuard))


def ref_constraint(c, position: str = "top") -> str:
    if isinstance(c, Omega):
        return "omega"
    if isinstance(c, Atomic):
        return f"{ref_type(c.lhs)} <= {ref_type(c.rhs)}"
    if isinstance(c, And):
        text = f"{ref_constraint(c.c1, 'left')} & {ref_constraint(c.c2, 'top')}"
        wrap = position == "guard" or (position == "left" and _ends_in_prefix(c.c2))
        return f"({text})" if wrap else text
    if isinstance(c, Exists):
        text = f"ex {c.binder}. {ref_constraint(c.body, 'top')}"
        return text if position == "top" else f"({text})"
    if isinstance(c, EGuard):
        text = (f"{c.evar}^{{{_names(c.forbidden)}; {ref_type(c.witness)}}} "
                f"{ref_constraint(c.body, 'guard')}")
        return f"({text})" if position == "left" else text
    raise AssertionError(c)


def ref_entries(env) -> str:
    return ", ".join(f"{x}: {ref_type(t)}" for x, t in env.entries)


def ref_type_env(env) -> str:
    return "{" + ref_entries(env) + "}"


# Skeletons: `\x. Q` and `all a. Q` are level 0; `Q |> T` and `Q + {…}`
# level 1 (their skeleton at 1); `Q @ Q` level 2 (function at 2, argument
# at 3); a variable leaf and `s^{A} Q` level 3 (the latter's skeleton at 3).

def ref_skeleton(q, wanted: int = 0) -> str:
    if isinstance(q, QVar):
        return f"{q.var}<{ref_entries(q.env)}>"
    if isinstance(q, QEVar):
        return f"{q.evar}^{{{_names(q.forbidden)}}} {ref_skeleton(q.body, 3)}"
    if isinstance(q, QApp):
        return _wrap(f"{ref_skeleton(q.fun, 2)} @ {ref_skeleton(q.arg, 3)}", 2, wanted)
    if isinstance(q, QSub):
        return _wrap(f"{ref_skeleton(q.body, 1)} |> {ref_type(q.target)}", 1, wanted)
    if isinstance(q, QWeak):
        return _wrap(f"{ref_skeleton(q.body, 1)} + {ref_type_env(q.extra)}", 1, wanted)
    if isinstance(q, QAbs):
        return _wrap(f"\\{q.binder}. {ref_skeleton(q.body, 0)}", 0, wanted)
    if isinstance(q, QForall):
        return _wrap(f"all {q.binder}. {ref_skeleton(q.body, 0)}", 0, wanted)
    raise AssertionError(q)
