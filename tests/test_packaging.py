import pathlib
from pathlib import PurePosixPath

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_data_file_is_package_data():
    """A data file that no package-data glob matches is left out of the
    built package, and importing the installed package then fails."""
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = [PurePosixPath(g) for g in config["tool"]["setuptools"]["package-data"]["bluefive"]]
    package = ROOT / "src" / "bluefive"
    files = [PurePosixPath(p.relative_to(package).as_posix())
             for p in (package / "data").rglob("*") if p.is_file()]
    assert PurePosixPath("data/scripts.json") in files
    unshipped = [str(f) for f in files
                 if not any(f.match(str(g)) and len(f.parts) == len(g.parts) for g in globs)]
    assert unshipped == []
