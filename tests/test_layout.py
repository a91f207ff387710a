"""Layout guard: the package holds only what the program runs.

Every function, class and method defined in ``src/fission_sim`` must be used
somewhere in the package's code outside its own definition (docstrings and
comments do not count), or be named anywhere in ``perfbench/*.py``, whose
tracer looks its targets up by name. Per-node references that only the tests
call live in ``tests/reference.py``. Dunder methods are called by Python
itself and are not checked.

Likewise every attribute a class in ``src/fission_sim`` stores (``self.x =``
in a method, or an annotated class field) must be read as ``.x`` somewhere in
the package, or be named in ``perfbench/*.py``, which reads what a step
returns.

No handler in ``src/fission_sim`` catches everything (``except:``,
``except Exception`` or ``except BaseException``, alone or in a tuple): errors
are typed and narrow, so a broad handler could only hide a bug.
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
    "encode_field": "the canonical field layout that the batched encoders inline",
}

# stored with no reader in the program, each for its reason
STORED_ALLOWED = {
    "VrfOutput.proof": "the proof anyone checks a draw with; the tests' VRF verifier reads it",
    "Votes.block_hash": "the hash the certificate's signatures sign; certificates compare equal on it",
    "EpochResult.block": "the epoch's block, for callers of ChainSimulation.step to inspect",
    "InvariantViolation.invariant": "names the broken invariant to whoever catches the error",
    "DrsState.size": "the instance's key sizes, from which requests are weighed",
    "DrsRoundReport.to_relayer": "the round's hand-offs to the relay network, beside its migrations",
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


def stored_attributes(tree):
    """(class, attribute, line) of every attribute a class stores: an
    assignment to ``self.x`` in one of its methods, or an annotated field."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield cls.name, stmt.target.id, stmt.lineno
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                            and isinstance(node.value, ast.Name) and node.value.id == "self":
                        yield cls.name, node.attr, node.lineno


def source_modules():
    return {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "fission_sim").glob("*.py"))}


def perfbench_words():
    words = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        words.update(re.findall(r"\w+", path.read_text()))
    return words


def unread_attributes():
    modules = source_modules()
    perfbench = perfbench_words()
    read = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path, tree in modules.items():
        for cls, attr, line in stored_attributes(tree):
            if attr not in read and attr not in perfbench and f"{cls}.{attr}" not in STORED_ALLOWED:
                unread.append(f"{path.name}:{line} {cls}.{attr}")
    return unread


def unused_definitions():
    modules = source_modules()
    perfbench = perfbench_words()
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


def broad_handlers():
    """file:line of every handler in the package that catches everything."""
    broad = []
    for path, tree in source_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"))
                   for t in caught):
                broad.append(f"{path.name}:{node.lineno}")
    return broad


def test_no_handler_in_src_catches_everything():
    assert broad_handlers() == []


def test_every_definition_in_src_is_used_by_the_program():
    assert unused_definitions() == []


def test_allow_list_names_only_definitions_that_exist():
    defined = {
        name
        for path in (ROOT / "src" / "fission_sim").glob("*.py")
        for name, _ in definitions(ast.parse(path.read_text()))
    }
    assert set(ALLOWED) <= defined


def test_every_attribute_a_class_stores_is_read_by_the_program():
    assert unread_attributes() == []


def test_stored_allow_list_names_only_attributes_that_exist():
    stored = {
        f"{cls}.{attr}"
        for tree in source_modules().values()
        for cls, attr, _ in stored_attributes(tree)
    }
    assert set(STORED_ALLOWED) <= stored
