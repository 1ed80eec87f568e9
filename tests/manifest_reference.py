"""The tests' whole-manifest reference: every entry of a dataset manifest,
resolved against the manifest's directory."""

from __future__ import annotations

from pathlib import Path

from facedct.imageio import manifest_entries


def load_manifest(path: str | Path) -> dict[str, list[Path]]:
    """Load a dataset manifest: subject id -> ordered image paths, each
    checked by :func:`manifest_entries` and resolved against the
    manifest's directory."""
    base = Path(path).parent
    return {s: [base / e for e in entries] for s, entries in manifest_entries(path).items()}
