"""The docs link check (``tools/check_links.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parent.parent / "tools" / "check_links.py"
_spec = importlib.util.spec_from_file_location("check_links", _PATH)
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


def test_unlisted_root_markdown_is_not_scanned_but_docs_are(tmp_path):
    dead = "Deletes `src/repro/gone.py`.\n"
    (tmp_path / "docs").mkdir()
    (tmp_path / "NOTES.md").write_text(dead)
    (tmp_path / "README.md").write_text("See `docs/guide.md`.\n")
    (tmp_path / "docs" / "guide.md").write_text("Nothing dead here.\n")
    assert check_links.check(tmp_path) == []
    (tmp_path / "docs" / "guide.md").write_text(dead)
    assert check_links.check(tmp_path) == [
        "docs/guide.md:1: dead link -> src/repro/gone.py"
    ]
