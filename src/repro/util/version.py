"""The one place the package's version string is resolved.

Installed checkouts report the distribution metadata (what ``pip``
actually installed, wheels included); source-tree runs fall back to
``repro.__version__``.  Every surface that stamps a version — the
``repro --version`` flag and the service's ``/healthz`` response —
goes through :func:`package_version` so they can never disagree.
"""

from __future__ import annotations

from importlib import metadata

__all__ = ["package_version"]


def package_version() -> str:
    """The repro version string (distribution metadata when installed)."""
    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        from repro import __version__

        return __version__
