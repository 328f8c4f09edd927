"""Outputs are replaced atomically: a failed write leaves the old file.
JSON inputs that cannot be read or parsed raise the caller's error."""
import contextlib
import os
import stat
import threading

import numpy as np
import pytest

from spheremark import RasterImage, SecretKey, channel, metrics, netpbm, rotation
from spheremark._fileio import atomic_write, read_json

OLD = b"old contents\n"


class _FailsOnSecondWrite:
    """File proxy that writes half of its second chunk, then fails like a
    full disk."""

    def __init__(self, fh):
        self.fh = fh
        self.calls = 0

    def write(self, data):
        self.calls += 1
        if self.calls == 2:
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


@contextlib.contextmanager
def _failing_atomic_write(path, mode="w", **open_kwargs):
    with atomic_write(path, mode, **open_kwargs) as fh:
        yield _FailsOnSecondWrite(fh)


WRITERS = {
    "write_image": (netpbm, lambda path: netpbm.write_image(
        RasterImage(np.full((4, 5, 3), 7, dtype=np.uint8)), path)),
    "write_roc_csv": (metrics, lambda path: metrics.write_roc_csv(
        metrics.roc([metrics.ScoredSample(1.0, True),
                     metrics.ScoredSample(0.0, False)]), path)),
    "write_sweep_csv": (channel, lambda path: channel.write_sweep_csv(
        [channel.SweepRow("identity", 3, 1.0, 1.0, 80.0, 1.0)], path)),
    "save_key": (rotation, lambda path: rotation.save_key(
        SecretKey(seed=12345, label="demo"), path)),
}


class TestAtomicWrite:
    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(OLD)
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_keeps_old_file_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(OLD)
        with pytest.raises(RuntimeError):
            with atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("writer failed")
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failure_creates_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "new.txt") as fh:
                fh.write("partial")
                raise RuntimeError("writer failed")
        assert os.listdir(tmp_path) == []

    def test_failed_rename_removes_temp(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        path = tmp_path / "out.txt"
        path.write_bytes(OLD)
        with pytest.raises(PermissionError):
            with atomic_write(path) as fh:
                fh.write("data")
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_directory_target_refused(self, tmp_path):
        (tmp_path / "a_directory").mkdir()
        with pytest.raises(IsADirectoryError):
            with atomic_write(tmp_path / "a_directory") as fh:
                fh.write("data")
        assert os.listdir(tmp_path) == ["a_directory"]

    def test_permissions_match_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        atomic = tmp_path / "atomic.txt"
        with atomic_write(atomic) as fh:
            fh.write("x")
        assert (stat.S_IMODE(os.stat(atomic).st_mode)
                == stat.S_IMODE(os.stat(plain).st_mode))

    def test_symlink_target_replaced_not_link(self, tmp_path):
        target = tmp_path / "real.txt"
        target.write_bytes(OLD)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with atomic_write(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert target.read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        with atomic_write(fifo, "wb") as fh:
            fh.write(b"through the pipe")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"through the pipe"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("name", sorted(WRITERS))
class TestWritersAreAtomic:
    def test_success_writes_whole_file(self, name, tmp_path):
        _, write = WRITERS[name]
        path = tmp_path / "out"
        path.write_bytes(OLD)
        write(str(path))
        assert path.read_bytes() not in (b"", OLD)
        assert os.listdir(tmp_path) == ["out"]

    def test_failure_partway_keeps_old_file(self, name, tmp_path, monkeypatch):
        module, write = WRITERS[name]
        monkeypatch.setattr(module, "atomic_write", _failing_atomic_write)
        path = tmp_path / "out"
        path.write_bytes(OLD)
        with pytest.raises(OSError, match="No space left"):
            write(str(path))
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["out"]


class TestReadJson:
    @pytest.mark.parametrize("content, message", [
        (None, "cannot read key file {path}: "),  # no such file
        (b"\xff\n", "cannot read key file {path}: "),  # not UTF-8
        (b"[{", "key file {path} is not valid JSON: "),
        (b"[" * 100_000, "key file {path} is not valid JSON: "),  # too deep
    ], ids=["missing", "not-utf8", "not-json", "too-deep"])
    def test_faults_raise_the_given_error(self, tmp_path, content, message):
        path = tmp_path / "in.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(LookupError) as info:
            read_json(path, LookupError, "key file")
        assert str(info.value).startswith(message.format(path=path))
        assert info.value.__cause__ is not None
