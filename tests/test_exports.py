import ast
from pathlib import Path

import tseval

ROOT = Path(__file__).resolve().parent.parent
USERS = [
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "src" / "tseval" / "cli.py",
]


def _imported_names(path: Path) -> set[str]:
    """Names that a file imports from ``tseval`` or one of its modules."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "tseval")
        for alias in node.names
    }


def test_every_re_export_is_imported_somewhere():
    exported = set(tseval.__all__)
    used = set().union(*map(_imported_names, USERS))
    dead = sorted(exported - used)
    assert not dead, f"tseval re-exports names that nothing imports: {dead}"
