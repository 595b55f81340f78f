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
def demo_dataset(tmp_path):
    from fixture_corpus import write_dataset

    return write_dataset(tmp_path)
