import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from citegauge.corpus import Corpus, PaperRecord


def make_paper(paper_id, title="", authors=(), abstract=None, body="", references=None):
    return PaperRecord(
        id=paper_id,
        title=title,
        authors=list(authors),
        abstract=abstract,
        body=body,
        references=list(references) if references else None,
    )


def make_corpus(*records):
    return Corpus({r.id: r for r in records})


def xy(data):
    """``train``'s (X, y) arrays from (feature vector, label) rows, in row order."""
    X = np.array([row for row, _ in data], dtype=np.float64)
    y = np.array([label for _, label in data], dtype=np.int64)
    return X, y


def assert_same_model(a, b):
    """Fail unless two forests hold the same node table: their roots and every
    node column equal in dtype and bytes."""
    for column in (f.name for f in fields(a)):
        u, v = getattr(a, column), getattr(b, column)
        assert (u.dtype, u.tobytes()) == (v.dtype, v.tobytes()), column


class FailingGrower:
    """Stands in for ``forest._grow_trees`` and raises ``error``. A module-level
    class, so a pool can pickle the grower it is handed."""

    def __init__(self, error):
        self.error = error

    def __call__(self, *args, **kwargs):
        raise self.error("grower failed in a worker")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that ``workers=2`` is not capped to the serial path."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def fork_calls(monkeypatch):
    """The start methods asked of ``multiprocessing.get_context``, in call order."""
    import multiprocessing

    calls, get_context = [], multiprocessing.get_context

    def spy(method=None):
        calls.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return calls


@pytest.fixture
def file_reads(monkeypatch, tmp_path):
    """The corpus files read through the loader's reader, by name, in read
    order, forked children included: a callable returning the list so far."""
    from citegauge import corpus

    log, read = tmp_path / "reads.log", corpus._read_document

    def spy(path):
        with open(log, "a", encoding="utf-8") as handle:  # appends from every process
            handle.write(os.path.basename(path) + "\n")
        return read(path)

    monkeypatch.setattr(corpus, "_read_document", spy)
    return lambda: log.read_text(encoding="utf-8").splitlines() if log.exists() else []


def change_file(path, how):
    """Change a loaded corpus file: "deleted", "truncated" (to half its bytes),
    "touched" (a later mtime only) or "rewritten" (another title, of the same
    size, with the old mtime put back)."""
    stat = path.stat()
    if how == "deleted":
        path.unlink()
    elif how == "truncated":
        path.write_bytes(path.read_bytes()[: stat.st_size // 2])
    elif how == "touched":
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    elif how == "rewritten":
        raw = path.read_bytes()
        at = raw.index(b'"title": "') + len(b'"title": "')
        path.write_bytes(raw[:at] + (b"Y" if raw[at : at + 1] != b"Y" else b"Z") + raw[at + 1 :])
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
    else:
        raise ValueError(how)


@pytest.fixture
def demo_dataset(tmp_path):
    from fixture_corpus import write_dataset

    return write_dataset(tmp_path)
