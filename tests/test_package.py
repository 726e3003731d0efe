import ast
from pathlib import Path

import teride

# (file name, imported name) pairs kept on purpose although the module never reads them
DELIBERATELY_UNUSED = {
    # perfbench/tracer.py wraps this name; no code calls the box query
    ("engine.py", "dr_query_box_for_rule"),
}


def test_every_exported_name_resolves():
    missing = [name for name in teride.__all__ if not hasattr(teride, name)]
    assert missing == []
    assert len(set(teride.__all__)) == len(teride.__all__)


def _unused_imports(path: Path) -> list:
    """Names the module imports but never reads (names listed in ``__all__`` count as read)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(elt.value for elt in node.value.elts)
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in read and (path.name, name) not in DELIBERATELY_UNUSED
    )


def test_no_unused_imports():
    paths = sorted(Path(teride.__file__).parent.rglob("*.py"))
    paths += sorted(Path(__file__).parent.rglob("*.py"))
    found = [
        f"{path.name}:{line} {name}" for path in paths for line, name in _unused_imports(path)
    ]
    assert found == []


def test_unused_import_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\nimport os.path\nfrom json import dumps, loads as ld\n"
        "__all__ = ['dumps']\nprint(os)\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == [(3, "ld")]
