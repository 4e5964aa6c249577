"""Seeded inputs of the benchmark workloads.

Everything the program under test sees is generated here from ``--seed``:

* **α-renamed theories.**  Every goal line of a theory source gets fresh
  variable names.  The renaming preserves the relative order of the names,
  so anything the prover sorts by variable name sorts the same way, and the
  per-goal verdicts and node counts stay those of the original theory.
* **Symbol-renamed theory variants** for the service's cold traffic: every
  defined function symbol gets a seeded prefix, so the variant is a new
  program (new fingerprint, new warm-state entry) that no cache keyed on
  program identity can ever have seen.  A common prefix keeps the order of
  the names, and so the search, unchanged.
* **Certificate corruptions** for the verify workload: each kind is invalid
  by construction, so the checker must reject every one.  The seed picks
  where a changed fingerprint digit or a dangling premise strikes; both are
  rejected at a cost that does not depend on the place.

The same seed always gives the same inputs.
"""

from __future__ import annotations

import copy
import random
import re
import string
from typing import Dict, Iterable, List, Sequence, Tuple

_WORD = re.compile(r"\b[A-Za-z_][A-Za-z0-9_']*\b")
#: ``name vars = body`` where ``=`` is the definition sign, not part of ``===``.
_GOAL_LINE = re.compile(r"^(\s*)([a-z]\w*)((?:\s+[a-z]\w*)*)(\s+=\s+)(.*)$")
#: ``name :: type`` declares a defined function symbol.
_SIGNATURE = re.compile(r"^([a-z]\w*)\s+::", re.MULTILINE)


def _fresh_names(rng: random.Random, count: int, taken: set) -> List[str]:
    """``count`` fresh lowercase identifiers, sorted, none of them in ``taken``."""
    names: set = set()
    while len(names) < count:
        name = "v" + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        if name not in taken:
            names.add(name)
    return sorted(names)


def alpha_rename_equation(equation: str, variables: Sequence[str], rng: random.Random,
                          taken: set) -> Tuple[str, Dict[str, str]]:
    """Rename ``variables`` inside ``equation``; returns (text, mapping).

    The fresh names are assigned in sorted order, so ``a < b`` implies
    ``mapping[a] < mapping[b]``.
    """
    fresh = _fresh_names(rng, len(variables), taken)
    mapping = dict(zip(sorted(variables), fresh))
    text = _WORD.sub(lambda m: mapping.get(m.group(0), m.group(0)), equation)
    return text, mapping


def alpha_rename_theory(source: str, rng: random.Random) -> str:
    """The theory with every goal line's variables α-renamed."""
    taken = set(_WORD.findall(source))
    lines = []
    for line in source.splitlines():
        match = _GOAL_LINE.match(line) if "===" in line else None
        if match is None:
            lines.append(line)
            continue
        indent, name, params, sign, body = match.groups()
        variables = params.split()
        renamed, mapping = alpha_rename_equation(body, variables, rng, taken)
        new_params = "".join(" " + mapping[v] for v in variables)
        lines.append(f"{indent}{name}{new_params}{sign}{renamed}")
    return "\n".join(lines) + ("\n" if source.endswith("\n") else "")


def goal_lines(source: str) -> Dict[str, Tuple[List[str], str]]:
    """``{goal name: (variables, equation text)}`` of a theory's goal lines."""
    goals: Dict[str, Tuple[List[str], str]] = {}
    for line in source.splitlines():
        match = _GOAL_LINE.match(line) if "===" in line else None
        if match is not None:
            _, name, params, _, body = match.groups()
            goals[name] = (params.split(), body.strip())
    return goals


def defined_symbols(source: str) -> List[str]:
    """The function symbols a theory declares with ``name :: type``."""
    return sorted(set(_SIGNATURE.findall(source)))


def symbol_prefix(rng: random.Random) -> str:
    """A seeded prefix for :func:`rename_symbols` (lowercase, ends in ``_``)."""
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(5)) + "_"


def rename_symbols(text: str, symbols: Iterable[str], prefix: str) -> str:
    """Prefix every occurrence of the given function symbols in ``text``."""
    symbols = set(symbols)
    return _WORD.sub(
        lambda m: prefix + m.group(0) if m.group(0) in symbols else m.group(0), text
    )


# -- certificate corruptions ------------------------------------------------------

#: Each kind is invalid by construction; ``corrupt`` documents why.
CORRUPTIONS = ("fingerprint", "wrong-goal", "drop-premise", "dangling-premise")


def corrupt(cert: dict, kind: str, rng: random.Random) -> dict:
    """A corrupted deep copy of a certificate dict.

    * ``fingerprint``: one hex digit of the program fingerprint changes, so
      the proof claims to be about a different program.
    * ``wrong-goal``: the root's right-hand side is replaced by its left-hand
      side, so the root no longer states the goal it is checked against.
    * ``drop-premise``: the root loses its last premise, so it is no longer
      an instance of its rule (or leaves a subgoal open).
    * ``dangling-premise``: a premise points at a vertex that does not exist.
    """
    bad = copy.deepcopy(cert)
    if kind == "fingerprint":
        digits = list(bad["program"])
        index = rng.randrange(len(digits))
        digits[index] = "0" if digits[index] != "0" else "1"
        bad["program"] = "".join(digits)
    elif kind == "wrong-goal":
        root = next(node for node in bad["nodes"] if node["id"] == bad["root"])
        root["eq"] = [root["eq"][0], root["eq"][0]]
    elif kind == "drop-premise":
        # Always the root's last premise: the re-check's cost depends on which
        # premise goes, so a seeded choice would make the seed decide how much
        # work the benchmark does.
        node = next(node for node in bad["nodes"] if node["id"] == bad["root"])
        node["premises"].pop()
    elif kind == "dangling-premise":
        candidates = [node for node in bad["nodes"] if node["premises"]]
        node = candidates[rng.randrange(len(candidates))]
        index = rng.randrange(len(node["premises"]))
        node["premises"][index] = max(n["id"] for n in bad["nodes"]) + 1
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return bad
