import ast
import inspect
from pathlib import Path

import hublab
from hublab import errors


class TestPublicApi:
    def test_every_export_resolves(self):
        missing = [name for name in hublab.__all__ if not hasattr(hublab, name)]
        assert missing == []

    def test_exports_are_unique(self):
        assert len(hublab.__all__) == len(set(hublab.__all__))


def _names_used_outside_errors() -> set:
    """Every name that the code of a hublab module other than errors.py reads;
    an import alone does not count."""
    used = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _private_module_names() -> list:
    """(module, name) for each module-level name of a hublab module that
    starts with one underscore: a def, a class, an assignment or an import."""
    names = []
    for path in sorted(Path(errors.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                bound = []
            names += [(path.stem, name) for name in bound
                      if name.startswith("_") and not name.startswith("__")]
    return names


def test_every_private_module_name_is_read():
    """A private helper, constant or import that no hublab code reads is dead;
    a test that patches it is no reader."""
    private = _private_module_names()
    assert private
    read = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [entry for entry in private if entry[1] not in read] == []


class TestErrors:
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]

    def test_every_exception_derives_from_hublab_error(self):
        for cls in self.classes:
            if not issubclass(cls, Warning):
                assert issubclass(cls, errors.HubLabError), cls.__name__

    def test_every_class_is_used(self):
        """A class that no module raises, catches or warns with, and that is
        no base of one that some module does, is dead."""
        used = _names_used_outside_errors()
        named = [cls for cls in self.classes if cls.__name__ in used]
        for cls in self.classes:
            assert any(issubclass(user, cls) for user in named), cls.__name__
