"""Every Python source of the project parses as Python 3.10, the oldest
version `pyproject.toml` declares. This checks syntax only: a call to a
library function newer than 3.10 would still pass."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_parses_as_python_3_10():
    names = sorted(
        path.relative_to(ROOT).as_posix()
        for top in ("src", "scripts", "tests")
        for path in (ROOT / top).rglob("*.py")
    )
    assert "src/ellipta/grammarcalc.py" in names
    assert "tests/test_sources.py" in names
    failed = []
    for name in names:
        try:
            ast.parse((ROOT / name).read_text(encoding="utf-8"), name,
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{name}:{exc.lineno}: {exc.msg}")
    assert failed == []
