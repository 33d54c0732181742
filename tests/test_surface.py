"""The public surface: declared once, by the imports of ``qgraphs/__init__.py``,
and holding only names that the package itself uses or the README documents; the
same holds for every public function and class a module defines."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qgraphs"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _references(tree):
    """Every name read (a bare name or an attribute) in ``tree``, except where it is
    read inside the function or class of that name."""
    found = set()

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = enclosing | {child.name}
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name is not None and name not in enclosing:
                found.add(name)
            walk(child, inner)

    walk(tree, frozenset())
    return found


def _documented():
    """The words of the README's inline code spans, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    return {word for span in re.findall(r"`([^`]+)`", text) for word in re.findall(r"\w+", span)}


def test_no_module_declares_its_own_export_list():
    declaring = sorted(
        name for name, tree in _modules().items() for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])))
    assert not declaring, f"modules that assign __all__: {declaring}"


def test_every_export_is_used_by_the_package_or_named_in_the_readme():
    used = set().union(*(_references(tree) for name, tree in _modules().items()
                         if name != "__init__.py"))
    documented = _documented()
    unused = [name for name in _exports() if name not in used and name not in documented]
    assert not unused, f"exports that nothing in src/qgraphs reads and the README does not name: {unused}"


def test_every_public_definition_is_used_by_the_package_or_named_in_the_readme():
    used = set().union(*(_references(tree) for tree in _modules().values()))
    documented = _documented()
    unused = [f"{module[:-3]}.{node.name}" for module, tree in _modules().items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and node.name not in used and node.name not in documented]
    assert not unused, f"definitions that nothing in src/qgraphs reads and the README does not name: {unused}"
