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
    """Fail unless two forests hold the same trees: every node array of every
    tree equal in dtype and bytes."""
    assert len(a.trees) == len(b.trees)
    for index, (x, y) in enumerate(zip(a.trees, b.trees)):
        for column in (f.name for f in fields(x)):
            u, v = getattr(x, column), getattr(y, column)
            assert (u.dtype, u.tobytes()) == (v.dtype, v.tobytes()), f"tree {index} {column}"


class FailingGrower:
    """Stands in for ``forest._grow_trees`` and raises ``error``. A module-level
    class, so a pool can pickle the grower it is handed."""

    def __init__(self, error):
        self.error = error

    def __call__(self, *args, **kwargs):
        raise self.error("grower failed in a worker")


@pytest.fixture
def demo_dataset(tmp_path):
    from fixture_corpus import write_dataset

    return write_dataset(tmp_path)
