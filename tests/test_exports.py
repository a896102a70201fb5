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
