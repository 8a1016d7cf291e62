"""Every function, class, method and property of the library has a use in the library.

The scan matches names, not bindings: a name counts as used when any module of
src/epqed other than __init__.py reads it as a bare name or as an attribute.  So a
definition that shares its name with something else (hilbert.identity beside
scipy.sparse.identity) passes unseen.  A re-export in __init__.py is not a use, and
dunder methods are exempt, since Python calls them implicitly.
"""
import ast
from pathlib import Path

import epqed

SRC = Path(epqed.__file__).parent

# names no library code reaches that the benchmark still binds by name
BENCHMARK_BOUND = {
    "master.steady_state",                 # perfbench/tracing.py:51, wrapped in LAYERS
    "master.two_time_correlation",         # perfbench/tracing.py:53, wrapped in LAYERS
    "master.convergence_check",            # perfbench/workloads.py:278, the cutoff_convergence op
    "master.Liouvillian.matrix",           # perfbench/workloads.py:287, obs["generator"]
    "master.EvolutionResult.states",       # perfbench/workloads.py:288, obs["states"]
}


def definitions(module: str, tree: ast.Module):
    """Qualified names of the module's top-level functions and classes and of the
    methods and properties of those classes, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_definition_in_src_has_a_use_in_src():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = {qual for module, tree in trees.items()
              for qual, name in definitions(module, tree) if name not in used}
    assert unused - BENCHMARK_BOUND == set()
    assert BENCHMARK_BOUND <= unused   # an entry that gains a caller leaves the list
