import sys
from pathlib import Path

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
    return Corpus(papers={r.id: r for r in records})


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
