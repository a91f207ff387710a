"""Layout guard: the package holds only what the program runs.

Every function, class and method defined in ``src/fission_sim`` must be used
somewhere in the package's code outside its own definition (docstrings and
comments do not count), or by ``perfbench/*.py``, whose tracer looks its
targets up by name. A module-level function is used only where it is read as
a name (``sha3(...)``), as an attribute of an imported module
(``crypto.verify``), or named as a tracer target (``"crypto:sign"``): an
attribute of the same name on some other object (``row.omega``) is not the
function. A class or method is used where its name is read in the package,
or where perfbench reads it as a name or an attribute or names it in a
tracer target (``"drs:DrsState.heights"``). A word inside any other
perfbench string (the ``uniform`` of ``"uniform:2:64"``) keeps no name
alive. Per-node references that only the tests call live in
``tests/reference.py``. Dunder methods are called by Python itself and are
not checked.

Likewise every attribute a class in ``src/fission_sim`` stores (``self.x =``
in a method, or an annotated class field) must be read as ``.x`` somewhere in
the package, or be read by ``perfbench/*.py`` in one of those ways, as it
reads what a step returns.

Record bytes are laid out in ``crypto.py`` alone: no other module in
``src/fission_sim`` names ``length_prefix`` or ``UINT_PREFIX`` or calls
``.to_bytes(8, ...)``; they pack records through ``crypto.record_layout``.

No handler in ``src/fission_sim`` catches everything (``except:``,
``except Exception`` or ``except BaseException``, alone or in a tuple), nor
every protocol error (``except FissionError``): errors are typed and narrow,
so a broad handler could only hide a bug, as an ``InvariantViolation``
counted as an invalid transaction.
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
    "encode_field": "the canonical one-field layout; the tests check the compiled record layouts against it",
}

# stored with no reader in the program, each for its reason
STORED_ALLOWED = {
    "VrfOutput.proof": "the proof anyone checks a draw with; the tests' VRF verifier reads it",
    "Votes.block_hash": "the hash the certificate's signatures sign; certificates compare equal on it",
    "InvariantViolation.invariant": "names the broken invariant to whoever catches the error",
    "DrsState.size": "the instance's key sizes, from which requests are weighed",
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


def imported_modules(tree, package):
    """The names a module binds to modules: ``import x`` (or ``as y``), and
    ``from ... import x`` for a module ``x`` of ``package``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names if alias.name in package)
    return names


def function_reads(tree, modules):
    """The names ``tree`` reads in a way that can reach a module-level
    function: each name it loads, and each attribute it reads from one of the
    ``modules`` it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield node.attr


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


def perfbench_trees():
    return [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]


def tracer_targets(tree, package):
    """The dotted path after the colon of each ``"module:attr"`` or
    ``"module:Class.method"`` string in ``tree`` whose module is one of
    ``package``'s, split at its dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = re.fullmatch(r"(\w+):([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)", node.value)
            if match and match[1] in package:
                yield match[2].split(".")


def perfbench_reads(tree, package):
    """The names ``tree`` reads that can reach a class, method or stored
    attribute: each name it loads, each attribute it reads, and each part of
    a tracer target."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
    for path in tracer_targets(tree, package):
        yield from path


def perfbench_names(package):
    return {name for tree in perfbench_trees() for name in perfbench_reads(tree, package)}


def unread_attributes():
    modules = source_modules()
    perfbench = perfbench_names({path.stem for path in modules})
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


def perfbench_functions(package):
    """Module-level functions perfbench reads: by name, as an attribute of
    an imported package module, or as a tracer target ``"module:function"``."""
    names = set()
    for tree in perfbench_trees():
        names.update(function_reads(tree, imported_modules(tree, package)))
        names.update(path[0] for path in tracer_targets(tree, package) if len(path) == 1)
    return names


def unused_definitions():
    modules = source_modules()
    package = {path.stem for path in modules}
    imports = {path: imported_modules(tree, package) for path, tree in modules.items()}
    perfbench, perfbench_calls = perfbench_names(package), perfbench_functions(package)
    read, function_read = Counter(), Counter()
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read[node.id] += 1
            elif isinstance(node, ast.Attribute):
                read[node.attr] += 1
        function_read.update(function_reads(tree, imports[path]))
    unused = []
    for path, tree in modules.items():
        functions = {node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for name, node in definitions(tree):
            if name in ALLOWED:
                continue
            # a use inside the definition itself (recursion) does not count
            if node in functions:
                inside = sum(1 for read_name in function_reads(node, imports[path]) if read_name == name)
                used = name in perfbench_calls or function_read[name] > inside
            else:
                used = name in perfbench or read[name] > uses(node, name)
            if not used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


BROAD = ("Exception", "BaseException", "FissionError")


def broad_handlers():
    """file:line of every handler in the package that catches everything or
    every protocol error."""
    broad = []
    for path, tree in source_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in BROAD)
                   for t in caught):
                broad.append(f"{path.name}:{node.lineno}")
    return broad


def hand_framed_records():
    """file:line of every place outside crypto.py that frames record bytes
    itself: a mention of ``length_prefix`` or ``UINT_PREFIX`` (an import
    included), or a call ``x.to_bytes(8, ...)``."""
    framing = {"length_prefix", "UINT_PREFIX"}
    found = []
    for path, tree in source_modules().items():
        if path.name == "crypto.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                hit = node.id in framing
            elif isinstance(node, ast.alias):
                hit = node.name in framing
            elif isinstance(node, ast.Call):
                func, args = node.func, node.args
                hit = isinstance(func, ast.Attribute) and func.attr == "to_bytes" \
                    and bool(args) and isinstance(args[0], ast.Constant) and args[0].value == 8
            else:
                hit = isinstance(node, ast.Attribute) and node.attr in framing
            if hit:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    return found


def test_only_crypto_lays_out_record_bytes():
    assert hand_framed_records() == []


def test_no_handler_in_src_catches_everything():
    assert broad_handlers() == []


def test_every_definition_in_src_is_used_by_the_program():
    assert unused_definitions() == []


def test_a_same_named_attribute_of_another_object_reads_no_function():
    tree = ast.parse(
        "from . import crypto\nfrom .drs import scan_round\nimport numpy as np\n"
        "omega = row.omega\ncrypto.verify(pk)\nnp.zeros(3)\nscan_round(state)\n"
    )
    modules = imported_modules(tree, {"crypto", "drs"})
    assert modules == {"crypto", "np"}
    reads = set(function_reads(tree, modules))
    assert {"verify", "zeros", "scan_round"} <= reads
    assert "omega" not in reads  # neither the stored name nor row's attribute


def test_a_word_inside_a_perfbench_string_keeps_no_name_alive():
    # only reads and tracer targets of a package module count; dist specs,
    # prose and another colon string do not
    tree = ast.parse(
        'spec = "uniform:2:64"\nwhy = "committee draws dominate"\nlabel = "mode:fresh"\n'
        'Target("sortition:select_committee")\nTarget("drs:DrsState.heights")\nsize = main.n_shard\n'
    )
    package = {"sortition", "drs"}
    reads = set(perfbench_reads(tree, package))
    assert {"Target", "main", "n_shard", "select_committee", "DrsState", "heights"} <= reads
    assert not {"spec", "uniform", "committee", "draws", "mode", "fresh"} & reads
    assert list(tracer_targets(tree, package)) == [["select_committee"], ["DrsState", "heights"]]


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
