"""Arena file-format validation: magic, header, sections, checksums.

Every malformed-file failure mode must surface as a typed
:class:`~repro.exceptions.SnapshotFormatError` naming the file — a
worker attaching a bad arena should die with a diagnosis, never with a
numpy shape error three layers deep.
"""

import json
import pickle
import shutil
import struct

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import SnapshotFormatError
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    make_processor,
)
from repro.io.snapshot import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MAGIC,
    FrozenSnapshot,
    freeze,
)
from repro.roadnet.csr import CSRGraph

SCALE = ExperimentScale(
    road_vertices=60, num_pois=20, num_users=40, max_groups=200
)
SEED = 3


@pytest.fixture(scope="module")
def arena(tmp_path_factory):
    network = build_dataset("UNI", SCALE, seed=SEED)
    processor = make_processor(network, seed=SEED)
    path = tmp_path_factory.mktemp("fmt") / "net.gpsnap"
    freeze(network, path, processor=processor)
    return path


def _craft(path, header: dict) -> None:
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)


class TestOpen:
    def test_roundtrip(self, arena):
        frozen = FrozenSnapshot.open(arena)
        counts = frozen.meta["counts"]
        assert counts["vertices"] == SCALE.road_vertices
        assert counts["pois"] == SCALE.num_pois
        assert counts["users"] == SCALE.num_users
        assert frozen.bytes_mapped == arena.stat().st_size
        for name in ("road/ids", "road/indptr", "poi/ids", "user/ids",
                     "social/edges", "pivot/rows"):
            assert name in frozen.sections
        # sections are read-only memmap views, not heap copies
        assert isinstance(frozen.sections["road/ids"], np.memmap) or \
            frozen.sections["road/ids"].base is not None
        frozen.verify()  # all checksums intact

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="nope.gpsnap"):
            FrozenSnapshot.open(tmp_path / "nope.gpsnap")

    def test_bad_magic(self, arena, tmp_path):
        bad = tmp_path / "bad_magic.gpsnap"
        data = bytearray(arena.read_bytes())
        data[:len(MAGIC)] = b"NOTASNAP"
        bad.write_bytes(data)
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            FrozenSnapshot.open(bad)

    def test_declared_header_longer_than_file(self, tmp_path):
        bad = tmp_path / "short.gpsnap"
        bad.write_bytes(MAGIC + struct.pack("<Q", 10**6) + b"{}")
        with pytest.raises(SnapshotFormatError, match="truncated header"):
            FrozenSnapshot.open(bad)

    def test_corrupted_header_json(self, arena, tmp_path):
        bad = tmp_path / "bad_json.gpsnap"
        data = bytearray(arena.read_bytes())
        data[len(MAGIC) + 8] = 0xFF  # first header byte: invalid UTF-8
        bad.write_bytes(data)
        with pytest.raises(SnapshotFormatError, match="corrupted header"):
            FrozenSnapshot.open(bad)

    def test_wrong_format_name(self, tmp_path):
        bad = tmp_path / "other.gpsnap"
        _craft(bad, {"format": "something-else", "version": FORMAT_VERSION})
        with pytest.raises(SnapshotFormatError, match="something-else"):
            FrozenSnapshot.open(bad)

    def test_unsupported_version(self, tmp_path, capsys):
        # A future version, and the previous one: a version-4 arena's
        # build_args still name a distance engine.
        for version in (FORMAT_VERSION + 1, FORMAT_VERSION - 1):
            bad = tmp_path / f"v{version}.gpsnap"
            _craft(bad, {"format": FORMAT_NAME, "version": version})
            with pytest.raises(SnapshotFormatError, match="version"):
                FrozenSnapshot.open(bad)
            code = main(["query", "--snapshot", str(bad), "--user", "0"])
            assert code == 2
            assert f"unsupported snapshot version {version}" in \
                capsys.readouterr().err

    def test_version_1_arena_is_refused(self, arena, tmp_path):
        """A version-1 header (its build_args still name a refinement
        kernel the processor no longer takes) fails attach up front."""
        data = arena.read_bytes()
        start = len(MAGIC) + 8
        (header_len,) = struct.unpack("<Q", data[len(MAGIC):start])
        header = json.loads(data[start:start + header_len])
        assert header["version"] == FORMAT_VERSION == 5
        assert "refinement_kernel" not in header["meta"]["build_args"]
        header["version"] = 1
        header["meta"]["build_args"]["refinement_kernel"] = "vector"
        old = tmp_path / "v1.gpsnap"
        _craft(old, header)
        with pytest.raises(SnapshotFormatError, match="version 1"):
            FrozenSnapshot.open(old)

    def test_version_2_arena_is_refused(self, arena, tmp_path):
        """A version-2 header (its road index stores region ids but not
        their distances) fails attach up front."""
        data = arena.read_bytes()
        start = len(MAGIC) + 8
        (header_len,) = struct.unpack("<Q", data[len(MAGIC):start])
        header = json.loads(data[start:start + header_len])
        augmented = header["meta"]["index"]["road_index"]["augmented"]
        assert all("region_dists" in entry for entry in augmented.values())
        header["version"] = 2
        for entry in augmented.values():
            del entry["region_dists"]
        old = tmp_path / "v2.gpsnap"
        _craft(old, header)
        with pytest.raises(SnapshotFormatError, match="version 2"):
            FrozenSnapshot.open(old)

    def test_version_3_arena_is_refused(self, arena, tmp_path):
        """A version-3 header (its region distances were summed by the
        per-seed scipy searches, not the virtual-source search) fails
        attach up front."""
        data = arena.read_bytes()
        start = len(MAGIC) + 8
        (header_len,) = struct.unpack("<Q", data[len(MAGIC):start])
        header = json.loads(data[start:start + header_len])
        header["version"] = 3
        old = tmp_path / "v3.gpsnap"
        _craft(old, header)
        with pytest.raises(SnapshotFormatError, match="version 3"):
            FrozenSnapshot.open(old)

    def test_truncated_section(self, arena, tmp_path):
        bad = tmp_path / "cut.gpsnap"
        shutil.copyfile(arena, bad)
        with open(bad, "r+b") as handle:
            handle.truncate(arena.stat().st_size - 64)
        with pytest.raises(SnapshotFormatError, match="truncated file"):
            FrozenSnapshot.open(bad)

    def test_corrupted_section_fails_verify(self, arena, tmp_path):
        bad = tmp_path / "flip.gpsnap"
        data = bytearray(arena.read_bytes())
        data[-8] ^= 0xFF  # flip one byte inside the last section
        bad.write_bytes(data)
        frozen = FrozenSnapshot.open(bad)  # O(1) open never checksums
        with pytest.raises(SnapshotFormatError, match="checksum"):
            frozen.verify()


class TestCSRGraphPickleParity:
    """Borrowed/memmapped arrays must never leak into worker pickles."""

    def test_getstate_owns_borrowed_arrays(self, arena):
        frozen = FrozenSnapshot.open(arena)
        s = frozen.sections
        borrowed = CSRGraph.from_arrays(
            s["road/ids"], s["road/indptr"], s["road/indices"],
            s["road/weights"], road_version=0,
        )
        clone = pickle.loads(pickle.dumps(borrowed))
        for attr in ("indptr", "indices", "weights"):
            arr = getattr(clone, attr)
            assert not isinstance(arr, np.memmap)
            np.testing.assert_array_equal(arr, np.asarray(getattr(borrowed, attr)))
        assert list(clone.ids) == [int(i) for i in borrowed.ids]
        seeds = [(int(borrowed.ids[0]), 0.0)]
        assert dict(clone.sssp(seeds)) == dict(borrowed.sssp(seeds))
