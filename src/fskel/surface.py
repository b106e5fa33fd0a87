"""Surface syntax: tokenizer, parsers and printers for every category.

Grammar (ASCII):
    Term:       x | \\x. M | M @ N                      (@ left-assoc)
    Type:       a | T -> T | all a. T | s^{a,b} T       (-> right-assoc,
                `all` extends maximally right, s^{A} binds tightest)
    Expansion:  id | all a. I | s^{A} I | I |> T
    Subst:      [a := T, s := I]
    Constraint: omega | T <= T | C & C | ex a. C | s^{A; T} C  (& right-assoc)
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
the text again up to the failing token.  Types, terms, environments and
skeletons are read on one explicit stack of pending frames per call, each
token once, by its kind, with no call per token and no recursion, so
their nesting has no limit (an operator-stack reader: Pratt, "Top Down
Operator Precedence", POPL 1973).  Expansions, substitutions and
constraints keep recursive descent over their own nesting, through
`eat`, `expect` and `ident`, and read every type in them with that
reader; their nesting is bounded by Python's recursion limit.  A
`Parser` serves one parse call, and its table `memo` dies with it.  The
table maps the tokens of a group to the value read from them.  A group is
a parenthesised type opened outside any other group of the same type, from
its '(' to the first later token at which the paren depth falls back, a
variable leaf, from its name to the next '>' (environments do not nest),
the leaf's environment, from its '<', or a variable set, from its '{' to
the next '}' (';' in a guard); the opening token tells the kinds apart.  A
copy of a group in the table is stepped over, not read again, so the
environments, variable sets and `|>` targets a printed skeleton repeats at
every leaf are read once, and equal leaf texts share one leaf.  Only
a reading that succeeds is stored, and it ends at the group's closing
token; types are interned; so the table changes no value and no error.  A
key costs its token count, and keyed groups overlap only where a leaf
holds its environment, so parsing is linear in the text.  The parser
backtracks (by resetting the index) in two places, each a bounded number
of times: a substitution value is read as an expansion and, if that
fails, once more as a type; a constraint atom not opening with '(' is
read as "T <= T" and, if that fails, as a guard.  The choice between a parenthesised type and a parenthesised
constraint is left-factored, so a constraint atom that opens with k
parentheses is read once.  The skeleton printer emits into one list from
an explicit stack, and the type and term printers fill memo slots
bottom-up on one; see "Printers" below.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice, repeat

from .syntax import (
    Abs, And, App, Arrow, Atomic, Constraint, EGuard, EVarApp, EVarIntro,
    Exists, Expansion, Forall, ForallIntro, Id, Omega, QAbs, QApp, QEVar,
    QForall, QSub, QVar, QWeak, Skeleton, SubStep, Subst, TVar, Term, Type,
    TypeEnv, Var, _fill,
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
# outside the group and so reads as "".  The alternatives are ordered by
# how often a printed skeleton's tokens take them.  `[^\W\d]` is a word character
# that is not a decimal digit: for ASCII text exactly a letter or `_`.
_TOKEN = re.compile(r"([\\.@()^{},>&\[\];+]|[^\W\d][\w']*|:=?|<=?|->|\|>)|[^ \t\r\n]")
# The same tokens in ASCII text, where a word character that is not a digit
# is a letter or `_`: explicit classes scan faster than `\w`.
_TOKEN_ASCII = re.compile(
    r"([\\.@()^{},>&\[\];+]|[A-Za-z_][A-Za-z0-9_']*|:=?|<=?|->|\|>)|[^ \t\r\n]")
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
    plain = text.isascii()
    values = (_TOKEN_ASCII if plain else _TOKEN).findall(text)
    bad = values.index("") if "" in values else len(values)
    if not plain:
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


# Frame tags of the readers' explicit stacks: a binder ("all a." or
# "\x."), an E-variable prefix awaiting its atom, the left side of "->" or
# "@", and an open parenthesis.
_ALL, _ABS, _EVAR, _ARROW, _APP, _OPEN = range(6)


class Parser:
    """The tokens of one text, a position in them, and the group table.

    Types, terms, environments and skeletons are read on an explicit stack
    of pending frames, each token once, by kind, so their nesting costs no
    recursion (`type_`, `term`, `env_entries`, `skeleton`).  Expansions,
    substitutions and constraints are read by recursive descent over their
    own nesting, through the token helpers `eat`, `expect` and `ident`, and
    read each type in them with `type_`."""

    def __init__(self, text: str):
        self.kinds, self.values = tokenize(text)
        self.pos = 0
        # a group's tokens -> the value read from them (see "Cost" above)
        self.memo: dict[tuple[str, ...], Type | TypeEnv | QVar | frozenset[str]] = {}
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
            self.expected(kind, pos)
        self.pos = pos + 1
        return self.values[pos]

    def expected(self, kind: str, pos: int):
        """Fail at token pos, which is not of the kind wanted there."""
        self.pos = pos
        self.fail(f"expected {kind!r}, found {self.values[pos] or 'end of input'!r}")

    def fail(self, message: str):
        raise _Stuck(message, self.pos)

    def done(self):
        if not self.at("eof"):
            self.fail(f"trailing input starting at {self.values[self.pos]!r}")

    # -- shared pieces -----------------------------------------------------

    def ident(self) -> str:
        return self.expect("ident")

    def binder(self) -> str:
        """The identifier and the '.' after the 'all' or 'ex' just read."""
        a = self._binder_at(self.pos - 1)
        self.pos += 2
        return a

    def var_set(self, close: str) -> frozenset[str]:
        """'{', comma-separated identifiers, then close. A set is a group
        too, from its '{' to the next close, which no set holds."""
        kinds, pos = self.kinds, self.pos
        if kinds[pos] != "{":
            self.expected("{", pos)
        try:
            end = kinds.index(close, pos) + 1
        except ValueError:  # nothing closes it, so reading it fails
            end = pos
        key = tuple(self.values[pos:end])
        names = self.memo.get(key)
        if names is not None:
            self.pos = end
            return names
        self.pos = pos + 1
        names = self.var_list()
        pos = self.pos
        if kinds[pos] != close:
            self.expected(close, pos)
        self.pos = pos + 1
        self.memo[key] = names
        return names

    def var_list(self) -> frozenset[str]:
        """Comma-separated identifiers, possibly none."""
        kinds, values, pos = self.kinds, self.values, self.pos
        names: list[str] = []
        if kinds[pos] == "ident":
            names.append(values[pos])
            pos += 1
            while kinds[pos] == ",":
                pos += 1
                if kinds[pos] != "ident":
                    self.expected("ident", pos)
                names.append(values[pos])
                pos += 1
        self.pos = pos
        return frozenset(names)

    def env_entries(self, close: str) -> TypeEnv:
        """Comma-separated entries 'x: T', possibly none, then close."""
        kinds, values, pos = self.kinds, self.values, self.pos
        entries: list[tuple[str, Type]] = []
        if kinds[pos] != close:
            while True:
                if kinds[pos] != "ident":
                    self.expected("ident", pos)
                if kinds[pos + 1] != ":":
                    self.expected(":", pos + 1)
                self.pos = pos + 2
                entries.append((values[pos], self.type_()))
                pos = self.pos
                if kinds[pos] != ",":
                    break
                pos += 1
        if kinds[pos] != close:
            self.expected(close, pos)
        self.pos = pos + 1
        return TypeEnv(tuple(entries))

    def _binder_at(self, pos: int) -> str:
        """The identifier and the '.' after the binding token at pos."""
        kinds = self.kinds
        if kinds[pos + 1] != "ident":
            self.expected("ident", pos + 1)
        if kinds[pos + 2] != ".":
            self.expected(".", pos + 2)
        return self.values[pos + 1]

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        """Term: '\\x.' prefixes, then atoms joined by '@', where an atom is
        a variable, a parenthesised term or a term opening with '\\x.'."""
        kinds, values = self.kinds, self.values
        pos = self.pos
        stack: list[tuple] = []
        while True:
            # a term or an atom starts at pos
            kind = kinds[pos]
            while kind == "\\":
                stack.append((_ABS, self._binder_at(pos)))
                pos += 3
                kind = kinds[pos]
            if kind == "(":
                stack.append((_OPEN,))
                pos += 1
                continue
            if kind != "ident":
                self.expected("ident", pos)
            m = Var(values[pos])
            pos += 1
            while True:
                # m is an atom
                if stack and stack[-1][0] == _APP:
                    m = App(stack.pop()[1], m)
                if kinds[pos] == "@":
                    stack.append((_APP, m))
                    pos += 1
                    break
                # the term ends at pos; an abstraction around it is an atom
                while stack and stack[-1][0] == _ABS:
                    m = Abs(stack.pop()[1], m)
                if not stack:
                    self.pos = pos
                    return m
                if stack[-1][0] == _OPEN:
                    if kinds[pos] != ")":
                        self.expected(")", pos)
                    stack.pop()
                    pos += 1

    # -- types -------------------------------------------------------------

    def type_(self) -> Type:
        """Type: 'all a.' prefixes, then E-variable prefixes 's^{A}' before
        an atom (a variable or a parenthesised type), then optionally '->'
        and a type."""
        kinds, values, memo = self.kinds, self.values, self.memo
        pos = self.pos
        stack: list[tuple] = []
        groups = 0  # open groups on the stack
        while True:
            # a type starts at pos
            kind = kinds[pos]
            while kind == "all":
                stack.append((_ALL, self._binder_at(pos)))
                pos += 3
                kind = kinds[pos]
            while kind == "ident" and kinds[pos + 1] == "^":
                name = values[pos]
                self.pos = pos + 2
                stack.append((_EVAR, name, self.var_set("}")))
                pos = self.pos
                kind = kinds[pos]
            if kind == "ident":
                t = TVar(values[pos])
                pos += 1
            elif kind == "(":
                groups += 1
                if groups > 1:  # inside a group: read it, keyless
                    stack.append((_OPEN, None))
                    pos += 1
                    continue
                # a group's key is its tokens up to the first later token at
                # which the paren depth falls back; a type's parentheses
                # balance, so a reading that succeeds ends there
                depth = self.depth
                if depth is None:
                    depth = self.depth = list(accumulate(map(_DEPTH.get, kinds, repeat(0))))
                try:
                    end = depth.index(depth[pos] - 1, pos) + 1
                except ValueError:  # no ')' closes it, so reading it fails
                    end = pos
                key = tuple(values[pos:end])
                t = memo.get(key)
                if t is None:
                    stack.append((_OPEN, key))
                    pos += 1
                    continue
                groups = 0
                pos = end
            else:
                self.expected("ident", pos)
            while True:
                # t is an atom
                while stack and stack[-1][0] == _EVAR:
                    _, s, forbidden = stack.pop()
                    t = EVarApp(s, forbidden, t)
                if kinds[pos] == "->":
                    stack.append((_ARROW, t))
                    pos += 1
                    break
                # the type ends at pos
                while stack and stack[-1][0] != _OPEN:
                    tag, x = stack.pop()
                    t = Arrow(x, t) if tag == _ARROW else Forall(x, t)
                if not stack:
                    self.pos = pos
                    return t
                if kinds[pos] != ")":
                    self.expected(")", pos)
                key = stack.pop()[1]
                if key is not None:
                    memo[key] = t
                groups -= 1
                pos += 1

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
        items = [c]
        while self.eat("&"):
            items.append(self.constraint_atom())
        c = items.pop()
        while items:  # & nests to the right, as a conjunction prints
            c = And(items.pop(), c)
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
        pos = self.pos
        if self.kinds[pos] != "{":
            self.expected("{", pos)
        self.pos = pos + 1
        return self.env_entries("}")

    # -- skeletons ---------------------------------------------------------------

    def skeleton(self) -> Skeleton:
        """Skeleton: atoms joined by '@', then '|> T' and '+ {E}' steps,
        where an atom is a variable 'x<E>', a parenthesised skeleton, a
        skeleton opening with '\\x.' or 'all a.', or an E-variable prefix
        's^{A}' before an atom."""
        kinds, values, memo = self.kinds, self.values, self.memo
        pos = self.pos
        stack: list[tuple] = []
        while True:
            # a skeleton or an atom starts at pos
            kind = kinds[pos]
            while True:
                if kind == "\\" or kind == "all":
                    stack.append((_ABS if kind == "\\" else _ALL, self._binder_at(pos)))
                    pos += 3
                elif kind == "ident" and kinds[pos + 1] == "^":
                    name = values[pos]
                    self.pos = pos + 2
                    stack.append((_EVAR, name, self.var_set("}")))
                    pos = self.pos
                else:
                    break
                kind = kinds[pos]
            if kind == "(":
                stack.append((_OPEN,))
                pos += 1
                continue
            if kind != "ident":
                self.expected("ident", pos)
            if kinds[pos + 1] != "<":
                self.expected("<", pos + 1)
            # no type holds a '>', so a reading that succeeds ends at the next
            # one; the leaf's key is its tokens, its environment's key the same
            # from the '<'
            try:
                end = kinds.index(">", pos + 2) + 1
            except ValueError:  # no '>' closes it, so reading it fails
                end = pos + 2
            leaf = tuple(values[pos:end])
            q = memo.get(leaf)
            if q is None:
                key = leaf[1:]
                env = memo.get(key)
                if env is None:
                    self.pos = pos + 2
                    env = memo[key] = self.env_entries(">")
                    end = self.pos
                q = memo[leaf] = QVar(values[pos], env)
            pos = end
            while True:
                # q is an atom
                while stack and stack[-1][0] == _EVAR:
                    _, s, forbidden = stack.pop()
                    q = QEVar(s, forbidden, q)
                if stack and stack[-1][0] == _APP:
                    q = QApp(stack.pop()[1], q)
                kind = kinds[pos]
                if kind == "@":
                    stack.append((_APP, q))
                    pos += 1
                    break
                while kind == "|>" or kind == "+":
                    self.pos = pos + 1
                    q = QSub(q, self.type_()) if kind == "|>" else QWeak(q, self.type_env())
                    pos = self.pos
                    kind = kinds[pos]
                # the skeleton ends at pos; a binder around it makes an atom
                if not stack:
                    self.pos = pos
                    return q
                frame = stack.pop()
                if frame[0] == _ABS:
                    q = QAbs(frame[1], q)
                elif frame[0] == _ALL:
                    q = QForall(frame[1], q)
                else:
                    if kind != ")":
                        self.expected(")", pos)
                    pos += 1


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
# A type or a term keeps its text in its `_text` memo slot, made once per
# node while it is in the intern table: `syntax._fill` renders the parts
# that have none yet bottom-up on an explicit stack, through `_text_of`. An
# environment keeps the text of its entries in its own `_text` slot.
# print_skeleton keeps no text of a skeleton node, so its output is the only
# text it holds that grows with depth; it, print_constraint and
# print_flattened walk an explicit stack. print_expansion recurses.


def _text_of(n: Type | Term) -> None:
    """Store n's text, made from its parts' texts."""
    cls = type(n)
    if cls is Arrow:
        d = n.dom
        ds = d._text
        if type(d) is Arrow or type(d) is Forall:
            ds = f"({ds})"
        text = f"{ds} -> {n.cod._text}"
    elif cls is TVar or cls is Var:
        text = n.name
    elif cls is App:
        f, a = n.fun, n.arg
        fs, as_ = f._text, a._text
        if type(f) is Abs:
            fs = f"({fs})"
        if type(a) is not Var:
            as_ = f"({as_})"
        text = f"{fs} @ {as_}"
    elif cls is Abs:
        text = f"\\{n.binder}. {n.body._text}"
    elif cls is Forall:
        text = f"all {n.binder}. {n.body._text}"
    else:
        body = n.body
        bs = body._text
        if type(body) is Arrow or type(body) is Forall:
            bs = f"({bs})"
        text = f"{n.evar}^{{{print_var_set(n.forbidden)}}} {bs}"
    object.__setattr__(n, "_text", text)


# Read through the descriptors, so that a node of the other category raises
# TypeError.
_type_text, _term_text = Type._text.__get__, Term._text.__get__


def print_term(m: Term) -> str:
    """m's text, kept in its memo slot."""
    text = _term_text(m)
    return _fill(m, _term_text, _text_of) if text is None else text


def print_var_set(vs: frozenset[str]) -> str:
    return ",".join(sorted(vs))


def print_type(t: Type) -> str:
    """t's text, kept in its memo slot."""
    text = _type_text(t)
    return _fill(t, _type_text, _text_of) if text is None else text


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
    """c's text. Left of an &, an ex, a guard and a conjunction whose last
    conjunct is an ex or a guard are parenthesised: an ex body extends to
    the right, so it would take in what follows the &, and a bare
    conjunction would read back nested to the right."""
    # an explicit stack of nodes and literal pieces: no recursion on depth
    out: list[str] = []
    todo: list[Constraint | str] = [c]
    while todo:
        c = todo.pop()
        cls = type(c)
        if cls is str:
            out.append(c)
        elif cls is Atomic:
            out.append(f"{print_type(c.lhs)} <= {print_type(c.rhs)}")
        elif cls is And:
            todo += (c.c2, " & ")
            todo += (")", c.c1, "(") if _open_left(c.c1) else (c.c1,)
        elif cls is EGuard:
            out.append(_guard_text(c))
            todo += (")", c.body, "(") if type(c.body) in (And, Exists) else (c.body,)
        elif cls is Exists:
            out.append(f"ex {c.binder}. ")
            todo.append(c.body)
        elif cls is Omega:
            out.append("omega")
        else:
            raise TypeError(c)
    return "".join(out)


def _open_left(c: Constraint) -> bool:
    """Whether c is parenthesised left of an &: an ex, a guard, or a
    conjunction whose last conjunct, down its right spine, is one."""
    cls = type(c)
    while cls is And:
        c = c.c2
        cls = type(c)
    return cls is Exists or cls is EGuard


def _guard_text(g: EGuard) -> str:
    return f"{g.evar}^{{{print_var_set(g.forbidden)}; {print_type(g.witness)}}} "


def print_flattened(c: Constraint) -> str:
    """print_constraint of c's flattened form, each atom under its whole
    prefix of ex binders and guards, with no node of it built ("omega" if c
    has no atom). One walk, first atom first. path[d] is the depth-d part:
    its own text, how many parentheses the prefix through it opens (a guard
    directly above an ex binder opens one) and, once an atom at depth d is
    printed, that prefix's joined text and closers; an atom joins only the
    parts below the nearest depth that has them. So each part's text is
    made once, and every joined string is one the output holds anyway."""
    out: list[str] = []
    last, bare = 0, ()  # where the last item starts, and its pieces unparenthesised
    path: list[list] = [["", 0, "", ""]]  # entries past the node's depth are stale
    stack: list[tuple[Constraint, int, bool]] = [(c, 0, False)]  # node, depth, under a guard
    while stack:
        node, d, guarded = stack.pop()
        cls = type(node)
        if cls is Atomic:
            part = path[d]
            opens = part[2]
            if opens is None:
                e = d - 1
                while path[e][2] is None:
                    e -= 1
                opens = part[2] = path[e][2] + part[0] if e == d - 1 else \
                    path[e][2] + "".join([p[0] for p in path[e + 1:d + 1]])
                part[3] = ")" * part[1]
            atom = f"{print_type(node.lhs)} <= {print_type(node.rhs)}"
            last = len(out)
            if d:  # left of an &, an item with a prefix is parenthesised
                bare = opens, atom, part[3]
                out += ("(", opens, atom, part[3], ") & ")
            else:
                bare = atom,
                out += (atom, " & ")
        elif cls is And:
            stack += ((node.c2, d, guarded), (node.c1, d, guarded))
        elif cls is EGuard:
            path[d + 1:] = [_guard_text(node), path[d][1], None, None],
            stack.append((node.body, d + 1, True))
        elif cls is Exists:
            text, shut = f"ex {node.binder}. ", path[d][1]
            path[d + 1:] = [f"({text}", shut + 1, None, None] if guarded else [text, shut, None, None],
            stack.append((node.body, d + 1, False))
        elif cls is not Omega:
            raise TypeError(node)
    if not out:
        return "omega"
    out[last:] = bare  # the last item is bare
    return "".join(out)


def _print_entries(env: TypeEnv) -> str:
    """The text of env's entries, kept in its memo slot."""
    text = env._text
    if text is None:
        text = ", ".join(f"{x}: {print_type(t)}" for x, t in env.entries)
        object.__setattr__(env, "_text", text)
    return text


def print_type_env(env: TypeEnv) -> str:
    return "{" + _print_entries(env) + "}"


# Where a skeleton printer puts parentheses: around a function part or an
# argument of these classes, around the body of an E-variable prefix not
# of _BARE_EVAR_BODY, and around the body of a '|>' or '+' step of these.
_WRAP_FUN = frozenset((QAbs, QForall, QSub, QWeak))
_WRAP_ARG = _WRAP_FUN | {QApp}
_BARE_EVAR_BODY = frozenset((QVar, QEVar))
_WRAP_STEP_BODY = frozenset((QAbs, QForall))


def print_skeleton(q: Skeleton) -> str:
    """q's text, emitted into one list from one explicit stack of nodes and
    literal pieces. An environment's text is made once per environment
    object and kept on it; no skeleton node keeps its text, so the call
    holds O(output) characters."""
    out: list[str] = []
    todo: list = [q]
    while todo:
        q = todo.pop()
        cls = type(q)
        if cls is str:
            out.append(q)
        elif cls is QEVar:
            out.append(f"{q.evar}^{{{print_var_set(q.forbidden)}}} ")
            body = q.body
            todo += (body,) if type(body) in _BARE_EVAR_BODY else (")", body, "(")
        elif cls is QApp:
            f, a = q.fun, q.arg
            todo += (")", a, " @ (") if type(a) in _WRAP_ARG else (a, " @ ")
            todo += (")", f, "(") if type(f) in _WRAP_FUN else (f,)
        elif cls is QSub:
            body = q.body
            todo.append(f" |> {print_type(q.target)}")
            todo += (")", body, "(") if type(body) in _WRAP_STEP_BODY else (body,)
        elif cls is QVar:
            out.append(f"{q.var}<{_print_entries(q.env)}>")
        elif cls is QAbs:
            out.append(f"\\{q.binder}. ")
            todo.append(q.body)
        elif cls is QForall:
            out.append(f"all {q.binder}. ")
            todo.append(q.body)
        elif cls is QWeak:
            body = q.body
            todo.append(f" + {{{_print_entries(q.extra)}}}")
            todo += (")", body, "(") if type(body) in _WRAP_STEP_BODY else (body,)
        else:
            raise TypeError(q)
    return "".join(out)
