from typing import NamedTuple

import numpy as np
import pytest

from vecfuse.kgraph import EdgeTable
from vecfuse.matrixio import LabeledMatrix


@pytest.fixture
def rng():
    return np.random.RandomState(20160406)


def make_matrix(labels, rows):
    data = np.asarray(rows, dtype=np.float32)
    if data.ndim == 1:
        data = data.reshape(len(labels), -1)
    return LabeledMatrix(labels=list(labels), data=data)


def bits_equal(a, b):
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class Edge(NamedTuple):
    """One edge row, for building an EdgeTable and reading one back."""

    start: str
    end: str
    weight: float = 1.0
    source: str = "s"


def edge_table(edges) -> EdgeTable:
    """An EdgeTable of (start, end, weight, source) tuples, in order, its
    terms and sources in order of first use."""
    terms: dict = {}
    sources: dict = {}
    rows = [(terms.setdefault(start, len(terms)), terms.setdefault(end, len(terms)),
             weight, sources.setdefault(source, len(sources)))
            for start, end, weight, source in edges]
    start, end, weight, source = zip(*rows) if rows else ((), (), (), ())
    return EdgeTable(list(terms), start, end, weight, source, list(sources))


def edge_rows(table: EdgeTable) -> list:
    """The rows of `table` as `Edge` tuples."""
    terms, sources = table.terms, table.sources
    return [Edge(terms[s], terms[e], w, sources[src])
            for s, e, w, src in zip(table.start.tolist(), table.end.tolist(),
                                    table.weight.tolist(), table.source.tolist())]
