"""Every name the library and the study scripts import is used."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    paths = sorted((ROOT / "src" / "oraclebench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert paths
    unused = {
        path.relative_to(ROOT).as_posix(): names
        for path in paths
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}
