"""Surface syntax: tokenizer, parsers and printers for every category.

Grammar (ASCII):
    Term:       x | \\x. M | M @ N                      (@ left-assoc)
    Type:       a | T -> T | all a. T | s^{a,b} T       (-> right-assoc,
                `all` extends maximally right, s^{A} binds tightest)
    Expansion:  id | all a. I | s^{A} I | I |> T
    Subst:      [a := T, s := I]
    Constraint: omega | T <= T | C & C | ex a. C | s^{A; T} C
    TypeEnv:    {x: T, y: T}
    Skeleton:   x<x: T> | \\x. Q | Q @ Q | all a. Q | s^{A} Q
                | Q |> T | Q + {x: T}                   (+ = weakening)
    Names:      a, b, ...                               (possibly none)

Lexical rules: an identifier starts with a character for which
`str.isalpha()` holds, or `_`, and goes on with characters for which
`str.isalnum()` holds, `_` or `'` (so `é` may start one, while `²`, `Ⅻ`
and digits may only follow).  `all`, `ex`, `id` and `omega` are keywords,
never identifiers.  The symbols are `-> |> := <=` and `\\ . @ ( ) ^ { } ,
< > & [ ] ; : +`.  Space, tab, CR and LF separate tokens; any other
character is an error.  Positions are `line:col`, both from 1, with every
character, a tab too, one column wide.

Cost: one regex scan turns the text into a list of token strings and a
parallel list of kinds, and the parser reads them by index.  A token's
line and column are found only when a `ParseError` is raised, by scanning
the text again up to the failing token.  A `Parser` serves one parse call,
and its table `memo` dies with it.  The table maps the tokens of a group to
the value read from them.  A group is a parenthesised type, from its '(' to
the first later token at which the paren depth falls back, or a variable
leaf's environment, from its '<' to the next '>' (environments do not
nest); the opening token tells the two kinds apart.  A copy of a group in
the table is stepped over, not read again, so the environments and `|>`
targets a printed skeleton repeats at every leaf are read once.  Only a
reading that succeeds is stored, and it ends at the group's closing token;
types are interned; so the table changes no value and no error.  A key
costs its token count: k nested type parentheses cost O(k^2) token copies,
and k is bounded by the nesting limit.  Otherwise parsing is linear in the
text.  The parser backtracks (by resetting the index) in two places, each a
bounded number of times: a substitution value is read as an expansion and,
if that fails, once more as a type; a constraint atom not opening with '('
is read as "T <= T" and, if that fails, as a guard.  The choice between a
parenthesised type and a parenthesised constraint is left-factored, so a
constraint atom that opens with k parentheses is read once.  The printers
render each node object once (see "Printers" below), so printing makes one
call per edge of the printed object.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice, repeat

from .syntax import (
    Abs, And, App, Arrow, Atomic, Constraint, EGuard, EVarApp, EVarIntro,
    Exists, Expansion, Forall, ForallIntro, Id, Omega, QAbs, QApp, QEVar,
    QForall, QSub, QVar, QWeak, Skeleton, SubStep, Subst, TVar, Term, Type,
    TypeEnv, Var,
)


class ParseError(Exception):
    """Syntax error with position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = ("all", "ex", "id", "omega")
SYMBOLS = ("->", "|>", ":=", "<=", *"\\.@()^{},<>&[];:+")
# A token's kind is the token itself for keywords and symbols, else "ident".
_KIND = {s: s for s in KEYWORDS + SYMBOLS}
# Group 1 is a symbol or a word; a character that starts neither matches
# outside the group and so reads as "".  `[^\W\d]` is a word character
# that is not a decimal digit: for ASCII text exactly a letter or `_`.
_TOKEN = re.compile(r"(->|\|>|:=|<=|[\\.@()^{},<>&\[\];:+]|[^\W\d][\w']*)|[^ \t\r\n]")
# How a token of each kind moves the paren depth.
_DEPTH = {"(": 1, ")": -1}


def _offset(text: str, index: int) -> int:
    """Offset in text of its index-th token, or its length at the end."""
    m = next(islice(_TOKEN.finditer(text), index, None), None)
    return len(text) if m is None else m.start()


def _error(message: str, text: str, offset: int) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the values of text's tokens, ending with ("eof", "")."""
    values = _TOKEN.findall(text)
    bad = values.index("") if "" in values else len(values)
    if not text.isascii():
        # outside ASCII, `[^\W\d]` also admits numerals such as ² and Ⅻ
        bad = next((i for i, v in enumerate(islice(values, bad))
                    if v not in _KIND and not (v[0].isalpha() or v[0] == "_")), bad)
    if bad < len(values):
        offset = _offset(text, bad)
        raise _error(f"unexpected character {text[offset]!r}", text, offset)
    kinds = list(map(_KIND.get, values, repeat("ident")))
    kinds.append("eof")
    values.append("")
    return kinds, values


class _Stuck(Exception):
    """A parse failure at a token index; the parser backtracks on it, and
    the entry point turns it into a ParseError with a line and a column."""


class Parser:
    def __init__(self, text: str):
        self.kinds, self.values = tokenize(text)
        self.pos = 0
        # a group's tokens -> the value read from them (see "Cost" above)
        self.memo: dict[tuple[str, ...], Type | TypeEnv] = {}
        # the paren depth after each token, made when a type group is first read
        self.depth: list[int] | None = None

    # -- token plumbing ----------------------------------------------------

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def eat(self, kind: str) -> bool:
        """Step over the current token if it has this kind."""
        if self.kinds[self.pos] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind!r}, found {self.values[pos] or 'end of input'!r}")
        self.pos = pos + 1
        return self.values[pos]

    def fail(self, message: str):
        raise _Stuck(message, self.pos)

    def done(self):
        if not self.at("eof"):
            self.fail(f"trailing input starting at {self.values[self.pos]!r}")

    # -- shared pieces -----------------------------------------------------

    def ident(self) -> str:
        return self.expect("ident")

    def binder(self) -> str:
        """The identifier and the '.' after 'all', 'ex' or '\\'."""
        a = self.expect("ident")
        self.expect(".")
        return a

    def var_set(self, close: str) -> frozenset[str]:
        """'{', comma-separated identifiers, then close."""
        self.expect("{")
        names = self.var_list()
        self.expect(close)
        return names

    def var_list(self) -> frozenset[str]:
        """Comma-separated identifiers, possibly none."""
        names: list[str] = []
        if self.at("ident"):
            names.append(self.ident())
            while self.eat(","):
                names.append(self.ident())
        return frozenset(names)

    def env_entries(self, close: str) -> TypeEnv:
        entries: list[tuple[str, Type]] = []
        if not self.at(close):
            while True:
                x = self.ident()
                self.expect(":")
                entries.append((x, self.type_()))
                if not self.eat(","):
                    break
        self.expect(close)
        return TypeEnv(tuple(entries))

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        if self.eat("\\"):
            return Abs(self.binder(), self.term())
        m = self.term_atom()
        while self.eat("@"):
            m = App(m, self.term_atom())
        return m

    def term_atom(self) -> Term:
        if self.eat("("):
            m = self.term()
            self.expect(")")
            return m
        if self.at("\\"):
            return self.term()
        return Var(self.ident())

    # -- types -------------------------------------------------------------

    def type_(self) -> Type:
        if self.eat("all"):
            return Forall(self.binder(), self.type_())
        left = self.type_atom()
        if self.eat("->"):
            return Arrow(left, self.type_())
        return left

    def type_atom(self) -> Type:
        pos = self.pos
        if self.kinds[pos] == "(":
            # a group's key is its tokens up to the first later token at
            # which the paren depth falls back; a type's parentheses balance,
            # so a reading that succeeds ends there (inline: a helper would
            # cost a frame per level of nesting)
            depth = self.depth
            if depth is None:
                depth = self.depth = list(accumulate(map(_DEPTH.get, self.kinds, repeat(0))))
            try:
                end = depth.index(depth[pos] - 1, pos) + 1
            except ValueError:  # no ')' closes it, so reading it fails
                end = pos
            key = tuple(self.values[pos:end])
            t = self.memo.get(key)
            if t is None:
                self.pos = pos + 1
                t = self.type_()
                self.expect(")")
                self.memo[key] = t
            else:
                self.pos = end
            return t
        name = self.ident()
        if self.eat("^"):
            return EVarApp(name, self.var_set("}"), self.type_atom())
        return TVar(name)

    # -- expansions ----------------------------------------------------------

    def expansion(self) -> Expansion:
        if self.eat("all"):
            return ForallIntro(self.binder(), self.expansion())
        i = self.expansion_atom()
        while self.eat("|>"):
            i = SubStep(i, self.type_())
        return i

    def expansion_atom(self) -> Expansion:
        if self.eat("id"):
            return Id()
        if self.eat("("):
            i = self.expansion()
            self.expect(")")
            return i
        if self.at("all"):
            return self.expansion()
        name = self.ident()
        self.expect("^")
        return EVarIntro(name, self.var_set("}"), self.expansion_atom())

    # -- substitutions -------------------------------------------------------

    def subst(self) -> Subst:
        self.expect("[")
        bindings: list[tuple[str, Type | Expansion]] = []
        if not self.at("]"):
            while True:
                name = self.ident()
                self.expect(":=")
                mark = self.pos
                try:
                    val: Type | Expansion = self.expansion()
                    if not (self.at(",") or self.at("]")):
                        self.fail("incomplete expansion")
                except _Stuck:
                    self.pos = mark
                    val = self.type_()
                bindings.append((name, val))
                if not self.eat(","):
                    break
        self.expect("]")
        return Subst(tuple(bindings))

    # -- constraints ---------------------------------------------------------

    def constraint(self) -> Constraint:
        return self.conjunction(self.constraint_atom())

    def conjunction(self, c: Constraint) -> Constraint:
        while self.eat("&"):
            c = And(c, self.constraint_atom())
        return c

    def constraint_atom(self, in_group: bool = False) -> Constraint | Type:
        """A constraint atom; in a group, a type followed by ')' as well.

        An atom is "T <= T" when that parses and a parenthesised constraint
        or a guard otherwise, and an error is reported as the latter would
        report it. A '(' opens a group holding a type or a constraint, read
        once: a type there goes on as the left side of "T <= T"."""
        if self.eat("omega"):
            return Omega()
        if self.eat("ex"):
            return Exists(self.binder(), self.constraint())
        mark = self.pos
        if self.eat("("):
            # a group: a type followed by ')', or a constraint
            inner = self.constraint_atom(in_group=True)
            if isinstance(inner, Constraint):
                inner = self.conjunction(inner)
                self.expect(")")
                return inner
            self.pos += 1  # the ')' after the type
            try:
                lhs = Arrow(inner, self.type_()) if self.eat("->") else inner
                return self.atomic_rest(lhs, in_group)
            except _Stuck:
                # the group read as a constraint fails where its innermost
                # type, not followed by '<=', reads as a guard
                self.pos = mark + 1
                while self.eat("("):
                    pass
                return self.guard()
        try:
            return self.atomic_rest(self.type_(), in_group)
        except _Stuck:
            self.pos = mark
        return self.guard()

    def atomic_rest(self, lhs: Type, in_group: bool) -> Atomic | Type:
        if in_group and self.at(")"):
            return lhs
        if self.eat("<="):
            return Atomic(lhs, self.type_())
        self.fail("expected '<='")

    def guard(self) -> EGuard:
        name = self.ident()
        self.expect("^")
        forbidden = self.var_set(";")
        witness = self.type_()
        self.expect("}")
        return EGuard(name, forbidden, witness, self.constraint_atom())

    # -- type environments -----------------------------------------------------

    def type_env(self) -> TypeEnv:
        self.expect("{")
        return self.env_entries("}")

    # -- skeletons ---------------------------------------------------------------

    def skeleton(self) -> Skeleton:
        q = self.skel_atom()
        while self.eat("@"):
            q = QApp(q, self.skel_atom())
        while True:
            if self.eat("|>"):
                q = QSub(q, self.type_())
            elif self.eat("+"):
                q = QWeak(q, self.type_env())
            else:
                return q

    def skel_atom(self) -> Skeleton:
        if self.eat("("):
            q = self.skeleton()
            self.expect(")")
            return q
        if self.eat("\\"):
            return QAbs(self.binder(), self.skeleton())
        if self.eat("all"):
            return QForall(self.binder(), self.skeleton())
        name = self.ident()
        if self.eat("^"):
            return QEVar(name, self.var_set("}"), self.skel_atom())
        self.expect("<")
        # no type holds a '>', so a reading that succeeds ends at the next one
        pos = self.pos
        try:
            end = self.kinds.index(">", pos) + 1
        except ValueError:  # no '>' closes it, so reading it fails
            end = pos
        key = tuple(self.values[pos - 1:end])
        env = self.memo.get(key)
        if env is None:
            env = self.memo[key] = self.env_entries(">")
        else:
            self.pos = end
        return QVar(name, env)


def _entry(parse_method):
    def run(text: str):
        p = Parser(text)
        try:
            value = parse_method(p)
            p.done()
        except _Stuck as e:
            message, pos = e.args
            raise _error(message, text, _offset(text, pos)) from None
        return value
    return run


parse_term = _entry(Parser.term)
parse_type = _entry(Parser.type_)
parse_expansion = _entry(Parser.expansion)
parse_subst = _entry(Parser.subst)
parse_constraint = _entry(Parser.constraint)
parse_type_env = _entry(Parser.type_env)
parse_skeleton = _entry(Parser.skeleton)
parse_var_list = _entry(Parser.var_list)


# ---------------------------------------------------------------------------
# Printers
#
# Each printer renders a node object once. A type keeps its text in its
# `_text` memo slot. Terms, environments and skeletons are not interned, so
# their printers take a table, `memo`, that maps id(node) to (node, text):
# holding the node keeps its id from being reused while the table lives. A
# caller that prints many nodes sharing subterms passes one table to every
# call; without one, each call starts a table of its own.


def print_term(m: Term, memo: dict | None = None) -> str:
    if memo is None:
        memo = {}
    hit = memo.get(id(m))
    if hit is not None:
        return hit[1]
    match m:
        case Var(x):
            text = x
        case Abs(x, body):
            text = f"\\{x}. {print_term(body, memo)}"
        case App(f, a):
            fs = print_term(f, memo)
            if isinstance(f, Abs):
                fs = f"({fs})"
            as_ = print_term(a, memo)
            if isinstance(a, (Abs, App)):
                as_ = f"({as_})"
            text = f"{fs} @ {as_}"
        case _:
            raise TypeError(m)
    memo[id(m)] = m, text
    return text


def print_var_set(vs: frozenset[str]) -> str:
    return ",".join(sorted(vs))


def print_type(t: Type) -> str:
    text = t._text
    if text is None:
        match t:
            case TVar(a):
                text = a
            case Arrow(d, c):
                ds = print_type(d)
                if isinstance(d, (Arrow, Forall)):
                    ds = f"({ds})"
                text = f"{ds} -> {print_type(c)}"
            case Forall(a, body):
                text = f"all {a}. {print_type(body)}"
            case EVarApp(s, forbidden, body):
                bs = print_type(body)
                if isinstance(body, (Arrow, Forall)):
                    bs = f"({bs})"
                text = f"{s}^{{{print_var_set(forbidden)}}} {bs}"
            case _:
                raise TypeError(t)
        object.__setattr__(t, "_text", text)
    return text


def print_expansion(i: Expansion) -> str:
    match i:
        case Id():
            return "id"
        case ForallIntro(a, rest):
            return f"all {a}. {print_expansion(rest)}"
        case EVarIntro(s, forbidden, rest):
            rs = print_expansion(rest)
            if isinstance(rest, (ForallIntro, SubStep)):
                rs = f"({rs})"
            return f"{s}^{{{print_var_set(forbidden)}}} {rs}"
        case SubStep(rest, target):
            rs = print_expansion(rest)
            if isinstance(rest, ForallIntro):
                rs = f"({rs})"
            return f"{rs} |> {print_type(target)}"
    raise TypeError(i)


def print_subst(phi: Subst) -> str:
    parts = []
    for name, val in phi.bindings:
        vs = print_type(val) if isinstance(val, Type) else print_expansion(val)
        parts.append(f"{name} := {vs}")
    return "[" + ", ".join(parts) + "]"


def print_constraint(c: Constraint) -> str:
    # an explicit stack of nodes and literal pieces: no recursion on depth.
    # A canonical constraint repeats each guard under every item below it,
    # so each distinct guard's text is made once.
    out: list[str] = []
    todo: list[Constraint | str] = [c]
    guards: dict[tuple, str] = {}
    while todo:
        c = todo.pop()
        match c:
            case str():
                out.append(c)
            case Omega():
                out.append("omega")
            case Atomic(lhs, rhs):
                out.append(f"{print_type(lhs)} <= {print_type(rhs)}")
            case And(c1, c2):
                todo += (c2, " & ")
                todo += (")", c1, "(") if isinstance(c1, (Exists, EGuard)) else (c1,)
            case Exists(a, body):
                out.append(f"ex {a}. ")
                todo.append(body)
            case EGuard(s, forbidden, witness, body):
                key = s, forbidden, witness
                text = guards.get(key)
                if text is None:
                    text = guards[key] = f"{s}^{{{print_var_set(forbidden)}; {print_type(witness)}}} "
                out.append(text)
                todo += (")", body, "(") if isinstance(body, (And, Exists)) else (body,)
            case _:
                raise TypeError(c)
    return "".join(out)


def _print_entries(env: TypeEnv, memo: dict) -> str:
    hit = memo.get(id(env))
    if hit is not None:
        return hit[1]
    text = ", ".join(f"{x}: {print_type(t)}" for x, t in env.entries)
    memo[id(env)] = env, text
    return text


def print_type_env(env: TypeEnv, memo: dict | None = None) -> str:
    return "{" + _print_entries(env, {} if memo is None else memo) + "}"


def print_skeleton(q: Skeleton, memo: dict | None = None) -> str:
    if memo is None:
        memo = {}
    hit = memo.get(id(q))
    if hit is not None:
        return hit[1]
    match q:
        case QVar(x, env):
            text = f"{x}<{_print_entries(env, memo)}>"
        case QAbs(x, body):
            text = f"\\{x}. {print_skeleton(body, memo)}"
        case QApp(f, a):
            fs = print_skeleton(f, memo)
            if isinstance(f, (QAbs, QForall, QSub, QWeak)):
                fs = f"({fs})"
            as_ = print_skeleton(a, memo)
            if isinstance(a, (QAbs, QForall, QSub, QWeak, QApp)):
                as_ = f"({as_})"
            text = f"{fs} @ {as_}"
        case QForall(a, body):
            text = f"all {a}. {print_skeleton(body, memo)}"
        case QEVar(s, forbidden, body):
            bs = print_skeleton(body, memo)
            if not isinstance(body, (QVar, QEVar)):
                bs = f"({bs})"
            text = f"{s}^{{{print_var_set(forbidden)}}} {bs}"
        case QSub(body, target):
            bs = print_skeleton(body, memo)
            if isinstance(body, (QAbs, QForall)):
                bs = f"({bs})"
            text = f"{bs} |> {print_type(target)}"
        case QWeak(body, extra):
            bs = print_skeleton(body, memo)
            if isinstance(body, (QAbs, QForall)):
                bs = f"({bs})"
            text = f"{bs} + {print_type_env(extra, memo)}"
        case _:
            raise TypeError(q)
    memo[id(q)] = q, text
    return text
