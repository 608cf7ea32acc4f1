"""Minimal in-tree PEP 517 build backend (stdlib only).

The standard setuptools editable-install path needs the ``wheel`` package,
which offline environments may lack.  This backend implements just enough
of PEP 517/660 for this project with nothing beyond the standard library:

* ``build_wheel`` -- zips ``src/repro`` into a normal wheel;
* ``build_editable`` -- a wheel containing only a ``.pth`` file pointing at
  ``src/`` (the classic editable mechanism), so ``pip install -e .`` works
  with no build dependencies at all;
* ``build_sdist`` -- a tar.gz of the repository sources.

Declared via ``[build-system] backend-path = ["."]`` in pyproject.toml with
an empty ``requires`` list, so pip's build isolation has nothing to fetch.
"""

from __future__ import annotations

import base64
import hashlib
import os
import tarfile
import zipfile
from pathlib import Path

NAME = "repro"
VERSION = "0.1.0"
TAG = "py3-none-any"
ROOT = Path(__file__).resolve().parent

_METADATA = f"""\
Metadata-Version: 2.1
Name: {NAME}
Version: {VERSION}
Summary: TSN-Builder reproduction: template-based customization of resource-efficient TSN switches (DAC 2020)
Requires-Python: >=3.9
"""

_WHEEL = f"""\
Wheel-Version: 1.0
Generator: {NAME}-intree-backend
Root-Is-Purelib: true
Tag: {TAG}
"""


# --------------------------------------------------------------- PEP 517 API


def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def get_requires_for_build_sdist(config_settings=None):
    return []


def _dist_info() -> str:
    return f"{NAME}-{VERSION}.dist-info"


def prepare_metadata_for_build_wheel(metadata_directory,
                                     config_settings=None):
    info = Path(metadata_directory) / _dist_info()
    info.mkdir(parents=True, exist_ok=True)
    (info / "METADATA").write_text(_METADATA)
    (info / "WHEEL").write_text(_WHEEL)
    return _dist_info()


prepare_metadata_for_build_editable = prepare_metadata_for_build_wheel


def _record_line(archive_name: str, data: bytes) -> str:
    digest = base64.urlsafe_b64encode(
        hashlib.sha256(data).digest()
    ).rstrip(b"=").decode()
    return f"{archive_name},sha256={digest},{len(data)}"


def _write_wheel(wheel_path: Path, files: dict) -> None:
    """*files*: archive name -> bytes.  RECORD is appended automatically."""
    record_name = f"{_dist_info()}/RECORD"
    records = [_record_line(name, data) for name, data in files.items()]
    records.append(f"{record_name},,")
    with zipfile.ZipFile(wheel_path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in files.items():
            archive.writestr(name, data)
        archive.writestr(record_name, "\n".join(records) + "\n")


def _package_files() -> dict:
    files = {}
    package_root = ROOT / "src" / NAME
    for path in sorted(package_root.rglob("*.py")):
        archive_name = str(path.relative_to(ROOT / "src"))
        files[archive_name.replace(os.sep, "/")] = path.read_bytes()
    return files


def _meta_files() -> dict:
    return {
        f"{_dist_info()}/METADATA": _METADATA.encode(),
        f"{_dist_info()}/WHEEL": _WHEEL.encode(),
        f"{_dist_info()}/top_level.txt": f"{NAME}\n".encode(),
    }


def build_wheel(wheel_directory, config_settings=None,
                metadata_directory=None):
    wheel_name = f"{NAME}-{VERSION}-{TAG}.whl"
    files = _package_files()
    files.update(_meta_files())
    _write_wheel(Path(wheel_directory) / wheel_name, files)
    return wheel_name


def build_editable(wheel_directory, config_settings=None,
                   metadata_directory=None):
    wheel_name = f"{NAME}-{VERSION}-{TAG}.whl"
    src_dir = str(ROOT / "src")
    files = {
        f"__editable__.{NAME}.pth": (src_dir + "\n").encode(),
    }
    files.update(_meta_files())
    _write_wheel(Path(wheel_directory) / wheel_name, files)
    return wheel_name


def build_sdist(sdist_directory, config_settings=None):
    sdist_name = f"{NAME}-{VERSION}.tar.gz"
    base = f"{NAME}-{VERSION}"
    include = ["pyproject.toml", "README.md", "DESIGN.md",
               "EXPERIMENTS.md", "Makefile", "_build_backend.py"]
    with tarfile.open(Path(sdist_directory) / sdist_name, "w:gz") as archive:
        for name in include:
            path = ROOT / name
            if path.exists():
                archive.add(path, arcname=f"{base}/{name}")
        for directory in ("src", "tests", "benchmarks", "examples", "docs"):
            path = ROOT / directory
            if path.exists():
                archive.add(
                    path,
                    arcname=f"{base}/{directory}",
                    filter=lambda info: (
                        None if "__pycache__" in info.name else info
                    ),
                )
    return sdist_name
