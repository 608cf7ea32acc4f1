"""The in-tree PEP 517 build backend."""

import sys
import zipfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import _build_backend as backend  # noqa: E402


class TestWheel:
    def test_build_wheel_contains_package(self, tmp_path):
        name = backend.build_wheel(str(tmp_path))
        assert name == "repro-0.1.0-py3-none-any.whl"
        with zipfile.ZipFile(tmp_path / name) as archive:
            names = archive.namelist()
            assert "repro/__init__.py" in names
            assert "repro/core/bram.py" in names
            # Tagged py3-none-any / Root-Is-Purelib: nothing compiled,
            # and no source to compile, may ride along.
            assert not any(n.endswith((".c", ".so")) for n in names)
            assert all(
                n.endswith(".py") for n in names if n.startswith("repro/")
            )
            assert "repro-0.1.0.dist-info/METADATA" in names
            assert "repro-0.1.0.dist-info/RECORD" in names

    def test_record_covers_every_file(self, tmp_path):
        name = backend.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as archive:
            record = archive.read("repro-0.1.0.dist-info/RECORD").decode()
            recorded = {line.split(",")[0] for line in record.splitlines()}
            assert recorded == set(archive.namelist())

    def test_record_hashes_verify(self, tmp_path):
        import base64
        import hashlib

        name = backend.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as archive:
            record = archive.read("repro-0.1.0.dist-info/RECORD").decode()
            for line in record.splitlines():
                path, digest, _ = line.split(",")
                if not digest:
                    continue
                data = archive.read(path)
                expected = base64.urlsafe_b64encode(
                    hashlib.sha256(data).digest()
                ).rstrip(b"=").decode()
                assert digest == f"sha256={expected}", path


class TestEditable:
    def test_editable_wheel_is_a_pth_pointer(self, tmp_path):
        name = backend.build_editable(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as archive:
            pth = archive.read("__editable__.repro.pth").decode().strip()
            assert pth.endswith("src")
            assert (Path(pth) / "repro" / "__init__.py").exists()
            assert "repro/__init__.py" not in archive.namelist()


class TestSdist:
    def test_sdist_contains_sources(self, tmp_path):
        import tarfile

        name = backend.build_sdist(str(tmp_path))
        with tarfile.open(tmp_path / name) as archive:
            names = archive.getnames()
            assert "repro-0.1.0/pyproject.toml" in names
            assert "repro-0.1.0/src/repro/__init__.py" in names
            assert not any("__pycache__" in n for n in names)
            assert not any(n.endswith((".c", ".so")) for n in names)
            package = "repro-0.1.0/src/repro/"
            assert all(
                n.endswith(".py") for n in names
                if n.startswith(package) and archive.getmember(n).isfile()
            )


class TestHooks:
    def test_no_build_requirements(self):
        assert backend.get_requires_for_build_wheel() == []
        assert backend.get_requires_for_build_editable() == []
        assert backend.get_requires_for_build_sdist() == []

    def test_prepare_metadata(self, tmp_path):
        info = backend.prepare_metadata_for_build_wheel(str(tmp_path))
        assert info == "repro-0.1.0.dist-info"
        metadata = (tmp_path / info / "METADATA").read_text()
        assert "Name: repro" in metadata
