"""Surface guard: every public name in the package is reached by the program.

A public module-level function or class, or a public method, under
`src/taskemb` must be referenced outside its own definition from `src/`, the
benchmark harness (`perfbench/*.py`) or the README's Python examples. Names
only tests reach belong in the tests, unless an acceptance criterion needs
them from the library; those are listed in ALLOWED with the
criterion that keeps them. References are matched by name (an identifier,
an attribute, or a string such as the benchmark tracer's wrapped names), so
two methods that share a name count as one.
"""

import ast
import re
from pathlib import Path

from taskemb.envs import core as envcore

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "taskemb"

ALLOWED = {
    "population.Policy.action_probs": "C02: masked agents put no mass on masked actions",
    "embedding.triplet_satisfaction": "C05: triplet satisfaction at convergence",
    "stats.spearman": "C05: rank correlation of embedding norms with success rates",
    "envs.core.expert_action": "C10: the scalar expert against the batched expert",
    "envs.core.UniformRandomPolicy": "C10: random-policy rollouts end in a valid status",
}


def _definitions():
    """(qualified name, path, first line, last line) of every public definition."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield (f"{module}.{node.name}.{item.name}", path, item.lineno,
                               item.end_lineno)


def _references(tree):
    """(name, line) for every identifier, attribute and identifier-like string,
    skipping `__all__` lists, which only re-export."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skip.update(id(n) for n in ast.walk(node.value))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def _reference_index():
    """name -> set of (path, line) where the program refers to it."""
    sources = [*PACKAGE.rglob("*.py"), *(REPO / "perfbench").glob("*.py")]
    trees = [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in sources]
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        trees.append((Path(f"README.md#{i}"), ast.parse(block)))
    index = {}
    for path, tree in trees:
        for name, line in _references(tree):
            index.setdefault(name, set()).add((path, line))
    return index


def _reached(index, qualname, path, first, last) -> bool:
    """Whether the name is referenced anywhere outside lines first..last of path."""
    return any(not (p == path and first <= line <= last)
               for p, line in index.get(qualname.rsplit(".", 1)[1], ()))


def test_every_public_name_is_reached_or_allowed():
    index = _reference_index()
    unreached = [d[0] for d in _definitions()
                 if not _reached(index, *d) and d[0] not in ALLOWED]
    assert not unreached, (
        "public names nothing in src/, perfbench/ or the README reaches; "
        "delete them, make them private, or name the acceptance criterion in ALLOWED: "
        + ", ".join(unreached))


def test_allowed_names_exist_and_are_needed():
    index = _reference_index()
    defined = {d[0]: d for d in _definitions()}
    for qualname in ALLOWED:
        assert qualname in defined, f"{qualname} is allowed but not defined"
        assert not _reached(index, *defined[qualname]), (
            f"{qualname} is reached by the program; drop it from ALLOWED")


def test_only_nn_imports_csv():
    # The CSV format (header, line ends, float text) lives in nn.write_csv and
    # nn.read_csv; a module that imports csv itself would spell it out again.
    importers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) else []
            if "csv" in modules:
                importers.append(path.relative_to(PACKAGE).as_posix())
    assert importers == ["nn.py"]


def test_only_envs_name_an_environment():
    # An environment's rules (cluster labels, mask recipe, snapshot grid) live in its
    # module under envs/; a module elsewhere that names an env, one of its actions or
    # one of its masks makes a decision for it.
    names = {n for ops in envcore._REGISTRY.values()
             for n in (ops.name, *ops.action_names, *ops.masks)}
    names.discard("none")  # every env's empty mask, and "no bias" in population files
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module.startswith("envs/"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node.value) for node in ast.walk(tree)  # config.py's default env
                   if module == "config.py" and isinstance(node, ast.AnnAssign)
                   and getattr(node.target, "id", None) == "env"}
        found += [f"{module}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in names and id(node) not in allowed]
    assert found == []
