"""Write the cli_batch input files and record the expected answers.

Run once from the repository root, at the commit whose CLI output is the
reference:

    python3 bench/cli/make_cases.py

It writes bench/cli/inputs/* from fixed generators and bench/cli/cases.json,
which holds for every invocation its argv, the exit code and the SHA-256 of
its standard output.  The three README examples are also kept as plain text
in bench/cli/expected/ so they can be read against the README by hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from fskel.cli import main  # noqa: E402

import inputs  # noqa: E402

README = {
    "readme_initial": ("term", "\\x. x @ x\n", ["initial"]),
    "readme_check": ("skeleton", "\\x. (x<x: all a. a> |> (all a. a) -> b) @ x<x: all a. a>\n",
                     ["check", "--solved"]),
    "readme_reduce": ("skeleton", "(\\x. y<x: a -> a, y: b>) @ (\\z. z<y: b, z: a>)\n", ["reduce"]),
}


def files() -> dict[str, tuple[str, str]]:
    """name -> (syntax, text) for every input file."""
    rng = random.Random(2012)
    out = {name: (syntax, text) for name, (syntax, text, _) in README.items()}
    tau = ("->", ("v", "c"), ("v", "c"))
    for n in (10, 20, 40, 80):
        out[f"chain{n}.term"] = ("term", inputs.chain_term(n, "f", "x") + "\n")
        out[f"chain{n}.skel"] = ("skeleton", inputs.chain_target(n, "f", "x", "b", tau) + "\n")
    for n in (4, 8):
        out[f"poly{n}.skel"] = ("skeleton", inputs.poly_chain(n, ("v", "c")) + "\n")
    out["idchain8.skel"] = ("skeleton", inputs.id_chain(8, ("v", "c")) + "\n")
    q, _ = inputs.small_closed(rng)
    out["small.skel"] = ("skeleton", inputs.skel(q) + "\n")
    for i in range(2):
        q, env = inputs.random_valid(rng)
        out[f"random{i}.skel"] = ("skeleton", inputs.skel(q) + "\n")
        out[f"reject{i}.skel"] = ("skeleton", inputs.skel(inputs.mutate(rng, q, env)) + "\n")
    out["solved.cons"] = ("constraint", inputs.random_constraint(rng, True) + "\n")
    out["unsolved.cons"] = ("constraint", inputs.random_constraint(rng, False) + "\n")
    out["bad_parse.skel"] = ("skeleton", "\\x. x<x: a -> > @\n")
    return out


# Weights shape the latency distribution of a block of 60 invocations so
# that p50 falls inside the "check chain40" class and p90 inside the
# "tree chain40" class, never on the edge between two cases of very
# different cost.
WEIGHTS = {("check", "chain40.skel"): 8, ("tree", "chain40.skel"): 14,
           ("reduce", "poly8.skel"): 2}


def invocations(rng: random.Random) -> list[tuple[list[str], str]]:
    """(argv tail, input file) for every case."""
    cases = [(extra, name) for name, (_, _, extra) in README.items()]
    for n in (10, 20, 40, 80):
        cases += [
            (["initial"], f"chain{n}.term"),
            (["check"], f"chain{n}.skel"),
            (["tree"], f"chain{n}.skel"),
            (["tree", "--dot"], f"chain{n}.skel"),
        ]
    cases += [
        (["check", "--format", "raw"], "chain40.skel"),
        (["check", "--solved"], "chain40.skel"),
        (["reduce"], "poly4.skel"),
        (["reduce"], "poly8.skel"),
        (["reduce", "--steps", "3"], "poly8.skel"),
        (["reduce"], "idchain8.skel"),
        (["reduce"], "small.skel"),
        (["erase-f"], "poly8.skel"),
        (["erase-f"], "small.skel"),
        (["solve"], "solved.cons"),
        (["solve"], "unsolved.cons"),
        (["solve", "--rel", "EQ"], "solved.cons"),
        (["check", "--solved"], "random0.skel"),
        (["check"], "reject0.skel"),
        (["check"], "reject1.skel"),
        (["check"], "bad_parse.skel"),
    ]
    for i in range(2):
        q_text = f"random{i}.skel"
        cases.append((["subst", "_", inputs.random_subst(rng)], q_text))
        forbidden = ",".join(inputs.FREE)
        cases.append((["expand", "_", inputs.random_expansion(rng, 2), "--forbidden", forbidden],
                      q_text))
    return cases


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def chain_size(name: str) -> int:
    digits = "".join(ch for ch in name if ch.isdigit())
    return int(digits) if name.startswith(("chain", "poly", "idchain")) else 1


def main_() -> None:
    (HERE / "inputs").mkdir(exist_ok=True)
    (HERE / "expected").mkdir(exist_ok=True)
    table = files()
    for name, (_, text) in table.items():
        (HERE / "inputs" / name).write_text(text)
    cases = []
    for extra, name in invocations(random.Random(2013)):
        path = f"bench/cli/inputs/{name}"
        argv = [path if a == "_" else a for a in extra]
        if "_" not in extra:
            argv = argv[:1] + [path] + argv[1:]
        code, stdout = run(argv)
        cases.append({
            "argv": argv, "kind": argv[0] + ("-dot" if "--dot" in argv else ""),
            "input": path, "syntax": table[name][0], "parses": name != "bad_parse.skel",
            "n": chain_size(name), "weight": WEIGHTS.get((" ".join(extra), name), 1),
            "exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "bytes": len(stdout.encode()),
        })
        if name in README:
            (HERE / "expected" / f"{name}.out").write_text(stdout)
    (HERE / "cases.json").write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main_()
