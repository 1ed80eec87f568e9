"""The one write path: ``write_atomic`` of bytes or of a chunk iterable."""

import hashlib

import pytest

from facedct.errors import write_atomic


def chunks_then_raise(chunks, error):
    yield from chunks
    raise error


class TestWriteAtomic:
    @pytest.mark.parametrize(
        "data", [b"", b"whole", [b"a", b"", memoryview(b"bc"), b"d" * 70_000]],
        ids=["empty", "bytes", "chunks"],
    )
    def test_writes_and_returns_the_digest_of_the_bytes(self, tmp_path, data):
        expected = data if isinstance(data, bytes) else b"".join(data)
        path = tmp_path / "new" / "out.bin"
        assert write_atomic(path, iter(data) if isinstance(data, list) else data) == (
            hashlib.sha256(expected).hexdigest()
        )
        assert path.read_bytes() == expected
        assert [p.name for p in path.parent.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize(
        "error, raised",
        [(ValueError("bad chunk"), ValueError), (OSError("no space left"), OSError)],
        ids=["value-error", "os-error"],
    )
    def test_a_chunk_iterable_that_raises_leaves_the_old_file(self, tmp_path, error, raised):
        path = tmp_path / "out.bin"
        chunks = [b"old ", b"file"]
        assert write_atomic(path, chunks) == hashlib.sha256(b"old file").hexdigest()
        with pytest.raises(raised, match=str(error)):
            write_atomic(path, chunks_then_raise([b"new ", b"part"], error))
        assert path.read_bytes() == b"old file"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_a_chunk_iterable_that_raises_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            write_atomic(tmp_path / "out.bin", chunks_then_raise([b"part"], ValueError()))
        assert list(tmp_path.iterdir()) == []
