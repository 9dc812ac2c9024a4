import ast
from pathlib import Path

import magnonkit

PACKAGE = Path(magnonkit.__file__).resolve().parent

# Kept although no package code reads them, each for a stated reason.
UNREFERENCED = {
    "__init__.py:__all__": "read by the import system",
    "spinwave.py:selfconsistency_defect": "solve-3d's output check in bench/workloads.py calls it",
    "oracle.py:commutator_expectation": "oracle-ladder's observable suite calls it; a column of ROADMAP direction 4",
    "oracle.py:energy_entropy_margin": "oracle-ladder's observable suite calls it; a column of ROADMAP direction 4",
    "oracle.py:wick_residual": "oracle-ladder's observable suite calls it; a column of ROADMAP direction 4",
}

# Methods and properties kept although no package module reads them, each for a stated reason.
UNREAD_MEMBERS = {
    "oracle.py:GibbsEnsemble.blocks": "bench/spans.py counts blocks from it (ROADMAP directions 1-2)",
    "dynamics.py:GaussianMagnonState.to_site": "bench/spans.py times it (ROADMAP directions 1-2)",
    "oracle.py:GibbsEnsemble.sigma3_site_variance": "the variance column of ROADMAP direction 4",
    "lattice.py:CouplingSet.nearest_neighbor": "the constructor of the README's library example",
}


def module_level_names(tree: ast.Module) -> set[str]:
    """Functions, classes and constants a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def attributes_set_on_self(tree: ast.Module) -> set[str]:
    """Every attribute a module's methods assign as ``self.<attr>``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def class_members(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) of every method and property a module's classes define, dunders aside."""
    return {
        (cls.name, node.name)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def attributes_read(tree: ast.Module) -> set[str]:
    """Every attribute a module reads, on any object."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_module_level_name_is_used_or_exported():
    # a leftover helper, record or constant that nothing reads is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    dead = {
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in module_level_names(tree) - used - set(magnonkit.__all__)
    }
    assert dead - set(UNREFERENCED) == set(), sorted(dead)
    assert set(UNREFERENCED) <= dead  # a kept name that became used leaves the list


def test_every_attribute_set_on_self_is_read():
    # an instance attribute that no package module reads is dead state
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(attributes_read(tree) for tree in trees.values()))
    dead = {
        f"{module}:self.{attr}"
        for module, tree in trees.items()
        for attr in attributes_set_on_self(tree) - read
    }
    assert dead == set(), sorted(dead)


def test_every_method_and_property_is_read():
    # a method or property that no package module reads is library API only tests use
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(attributes_read(tree) for tree in trees.values()))
    dead = {
        f"{module}:{cls}.{name}"
        for module, tree in trees.items()
        for cls, name in class_members(tree)
        if name not in read
    }
    assert dead - set(UNREAD_MEMBERS) == set(), sorted(dead)
    assert set(UNREAD_MEMBERS) <= dead  # a kept member that became read leaves the list


def readme_example() -> str:
    """The code of the README's library example."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_root_exports_the_readme_example_names():
    # the package root exports what the example imports and nothing else
    imports = [node for node in ast.walk(ast.parse(readme_example()))
               if isinstance(node, ast.ImportFrom) and node.module == "magnonkit"]
    assert len(imports) == 1
    assert {alias.name for alias in imports[0].names} == set(magnonkit.__all__) - {"__version__"}


def test_readme_library_example_runs(capsys):
    # the README's example runs as written, so an API change cannot leave it stale
    exec(compile(readme_example(), "README.md", "exec"), {})
    solution, density = capsys.readouterr().out.splitlines()
    m_star, residual, _ = map(float, solution.split())
    assert -1.0 <= m_star <= 0.0 and residual <= 1e-12
    assert len(set(density.strip("[]").split())) == 1  # uniform
