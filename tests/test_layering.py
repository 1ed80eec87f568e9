"""The package's layering, read from its source: only ``shares`` starts
processes or maps memory, files are written in three places only, only
``pinned`` touches the ``.npy`` format, a caught error is raised again with
its source named by ``errors.naming`` only, only ``verification`` reads the
internals of a ``TrialScores`` and only ``matching`` those of a
``ScoreTensor``, and every name a module imports is used in it."""

import ast
from pathlib import Path

import facedct

MODULES = sorted(Path(facedct.__file__).parent.glob("*.py"))

#: the calls of ``os`` that start, signal or reap a process
PROCESS_CALLS = {"fork", "pipe", "waitpid", "kill", "_exit"}

#: the functions that open a file for writing: every artifact's write
#: (``write_atomic``), a worker's pipe, and the synthetic images
WRITERS = {
    ("errors", "_write_chunks"),
    ("shares", "_Worker.__init__"),
    ("imageio", "write_pnm_samples"),
}

#: the handlers outside ``errors`` that raise an error built from the one
#: they caught, each with a message not of the ``<source>: <complaint>``
#: form of ``errors.naming``
RE_RAISERS = {
    ("fusion", "apply_fusion"),
}

#: numpy's ``.npy`` reader and writer, which one module alone may use, so
#: that a pinned ``.npy`` has one writer and one parser
NPY_FORMAT = {"np.lib", "np.load", "np.save", "numpy.lib", "numpy.load", "numpy.save"}

def scoped(node, scope=""):
    """(qualified name of the enclosing function or class, node) for every
    node below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scoped(child, f"{scope}.{child.name}".lstrip("."))
        else:
            yield scope, child
            yield from scoped(child, scope)


def process_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in PROCESS_CALLS:
                yield f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (f"os.{a.name}" for a in node.names if a.name in PROCESS_CALLS)
        if isinstance(node, ast.Import) and any(a.name == "mmap" for a in node.names):
            yield "import mmap"
        elif isinstance(node, ast.ImportFrom) and node.module == "mmap":
            yield "import mmap"


def opens_for_writing(call):
    """Whether ``call`` opens a file for writing, or with a mode that is not
    a literal, or writes one by ``write_bytes``/``write_text``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_bytes", "write_text"):
        return True
    if name != "open":
        return False
    # open(file, mode) and Path.open(mode)
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wax+")
        for m in modes
    )


def test_only_shares_starts_processes_or_maps_memory():
    uses = {
        (path.stem, use) for path in MODULES for use in process_uses(ast.parse(path.read_text()))
    }
    assert {module for module, _ in uses} == {"shares"}
    assert {use for _, use in uses} == {f"os.{c}" for c in PROCESS_CALLS} | {"import mmap"}


def test_files_are_written_in_three_places_only():
    writers = {
        (path.stem, scope)
        for path in MODULES
        for scope, node in scoped(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and opens_for_writing(node)
    }
    assert writers == WRITERS


def dotted(node):
    """The dotted name of a chain of attributes of a name, as ``np.lib``."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else "?"


def npy_format_uses(tree):
    """The names in ``NPY_FORMAT``, or below ``numpy.lib``, that ``tree``
    reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [dotted(node)]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        yield from (n for n in names if n in NPY_FORMAT or n.startswith("numpy.lib."))


def test_only_pinned_uses_the_npy_format():
    uses = {
        (path.stem, use) for path in MODULES for use in npy_format_uses(ast.parse(path.read_text()))
    }
    assert {module for module, _ in uses} == {"pinned"}
    assert {use for _, use in uses} == {"np.lib"}


def private_members(tree, class_name):
    """The private names that the class ``class_name`` of ``tree`` defines:
    its methods and class attributes, and the attributes its methods set on
    ``self``, less dunders."""
    cls = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == class_name)
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def readers_of_internals(module, class_name):
    """The modules that read a private name which the class ``class_name``
    of ``module`` defines."""
    path = next(p for p in MODULES if p.stem == module)
    internals = private_members(ast.parse(path.read_text()), class_name)
    assert internals
    return {
        p.stem
        for p in MODULES
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in internals
    }


def test_only_verification_reads_the_internals_of_trial_scores():
    # its pool, a split's tensor and the staircase built from them
    assert readers_of_internals("verification", "TrialScores") == {"verification"}


def test_only_matching_reads_the_internals_of_score_tensors():
    # its own columns and the mask built from them
    assert readers_of_internals("matching", "ScoreTensor") == {"matching"}


def raises_from_caught(handler):
    """Whether the ``except ... as <name>`` ``handler`` raises an exception
    built from ``<name>``."""
    return handler.name is not None and any(
        isinstance(node, ast.Raise) and node.exc is not None
        and any(isinstance(n, ast.Name) and n.id == handler.name for n in ast.walk(node.exc))
        for node in ast.walk(handler)
    )


def test_only_errors_names_the_source_of_a_caught_error():
    re_raisers = {
        (path.stem, scope)
        for path in MODULES
        if path.stem != "errors"
        for scope, node in scoped(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler) and raises_from_caught(node)
    }
    assert re_raisers == RE_RAISERS


def imported_names(tree):
    """The names that the imports of ``tree`` bind, less ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def used_names(tree):
    """The names that ``tree`` reads, and the strings of its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def test_every_imported_name_is_used():
    unused = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        unused |= {(path.stem, n) for n in set(imported_names(tree)) - used_names(tree)}
    assert unused == set()
