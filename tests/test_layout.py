"""Layout guard: the package holds only what the program runs.

Every function, class and method defined in ``src/fission_sim`` must be used
somewhere in the package's code outside its own definition (docstrings and
comments do not count), or be named anywhere in ``perfbench/*.py``, whose
tracer looks its targets up by name. Per-node references that only the tests
call live in ``tests/reference.py``. Dunder methods are called by Python
itself and are not checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# kept with no caller in the program, each for its reason
ALLOWED = {
    "validate_lemma_expectation": "README's relay lemma validator; the acceptance suite runs it",
    "validate_lemma_variance": "README's relay lemma validator; the acceptance suite runs it",
    "max_abs_z": "the verdict of validate_lemma_expectation's report",
    "within_margin": "the verdict of validate_lemma_variance's report",
    "broadcast_hops": "README's structural check of the relay overlay (at most three hops)",
    "is_eps_nash": "README's structural check of a relay equilibrium",
    "get_account": "the ledger's read API for one account snapshot",
    "iter_accounts": "the ledger's read API over all account snapshots",
    "encode_field": "the canonical field layout that the batched encoders inline",
    "proposer": "EpochResult's leader election, run when read; no output of a run depends on it",
}


def definitions(tree):
    """(name, node) of every function, class and method in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node


def uses(tree, name):
    """How often ``name`` is read in ``tree``, as a name or an attribute."""
    return sum(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(tree)
    )


def unused_definitions():
    modules = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "fission_sim").glob("*.py"))}
    perfbench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        perfbench.update(re.findall(r"\w+", path.read_text()))
    read = Counter()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read[node.id] += 1
            elif isinstance(node, ast.Attribute):
                read[node.attr] += 1
    unused = []
    for path, tree in modules.items():
        for name, node in definitions(tree):
            # a use inside the definition itself (recursion) does not count
            if name not in perfbench and name not in ALLOWED and read[name] == uses(node, name):
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_definition_in_src_is_used_by_the_program():
    assert unused_definitions() == []


def test_allow_list_names_only_definitions_that_exist():
    defined = {
        name
        for path in (ROOT / "src" / "fission_sim").glob("*.py")
        for name, _ in definitions(ast.parse(path.read_text()))
    }
    assert set(ALLOWED) <= defined
