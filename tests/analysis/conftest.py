"""Fixtures for the static-analysis tests: tiny synthetic checkouts.

Rule tests never run against the real tree (that is the self-check's
job); they build a minimal repo layout in ``tmp_path`` so each fixture
file contains exactly the pattern under test.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

# A [tool.repro.analysis] block that disables the project-level checks
# (kernel twins, transfer models, stage protocol, FFI contracts) so
# file-rule fixtures stay minimal.
FILE_RULES_ONLY = """
[tool.repro.analysis]
kernel_dispatchers = []
check_transfer_models = false
stage_protocol = ""
ffi_sources = []
ffi_bindings = []
"""


@pytest.fixture
def make_repo(tmp_path: Path):
    """Build a synthetic checkout: pyproject + src/repro + given files.

    ``files`` maps repo-relative paths to (dedented) source text;
    ``pyproject_extra`` is appended to a minimal valid pyproject.toml.
    Returns the checkout root.
    """

    def build(
        files: dict[str, str], pyproject_extra: str = FILE_RULES_ONLY
    ) -> Path:
        root = tmp_path
        (root / "pyproject.toml").write_text(
            '[project]\nname = "fixture"\nversion = "0"\n'
            + textwrap.dedent(pyproject_extra)
        )
        package = root / "src" / "repro"
        package.mkdir(parents=True, exist_ok=True)
        (package / "__init__.py").write_text("")
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        return root

    return build
