"""The chunked readers against line-by-line readers, and the byte order mark.

`read_text_embeddings` parses each chunk of a vector file with numpy's C
parser; where that might differ from reading line by line, the chunk is
read line by line instead. The edge reader adds each chunk of an edge
file in bulk, less its blank and comment lines, and checks a chunk line
by line only to name the line of its error. Every case here is read
with chunks of several sizes, the case line at the end of the first
chunk and at the start of the second, and must give what a reference
reader that reads line by line gives: the same labels and bits, or the
same error type, message and line.
"""

import importlib
import json
import math
import random
import re

import numpy as np
import pytest

from conftest import make_matrix
from test_matrixio import reference_read_text
from vecfuse.config import load_config
from vecfuse.errors import DataError, NonPositiveWeight, ParseError, open_utf8
from vecfuse.evaluation import load_gold
from vecfuse.kgraph import EdgeTable, load_assertions, read_assertions
from vecfuse.labels import (StandardLabel, Standardizer, load_exceptions, load_stopwords,
                            split_uri)
from vecfuse.matrixio import read_native, read_text_embeddings, write_native

matrixio = importlib.import_module("vecfuse.matrixio")
kgraph = importlib.import_module("vecfuse.kgraph")

BOM = "\ufeff"


def write_lines(path, lines, newline="\n"):
    path.write_bytes(newline.join(lines + [""]).encode("utf-8"))


# --- text vectors ---------------------------------------------------------

# Lines 1 and 2 are 12 characters each with their "\n", so a chunk of 25
# characters ends with line 3, whatever line 3 holds.
TEXT_CHUNKS = (1, 25, 1 << 20)

TEXT_CASES = {
    "underscore": "x 1_0 2",
    "trailing space": "x 1 2 ",
    "several trailing spaces": "x 1 2   ",
    "trailing space before CRLF": "x 1 2 \r",
    "only spaces after the token": "x   ",
    "trailing space, short line": "x 1 ",
    "trailing space, nan": "x 1 nan ",
    "trailing space after a double space": "x 1  2 ",
    "double space": "x 1  2",
    "arabic-indic digits": "x \u0661\u0662 2",
    "tab before a field": "x \t1 2",
    "tab inside a field": "x 1\t2 3",
    "file separator after a field": "x 1\x1c 2",
    "unit separator before a field": "x \x1f1 2",
    "record separator in a token": "x\x1e 1 2",
    "inf": "x inf 2",
    "nan": "x 1 nan",
    "past double range": "x 1e400 2",
    "past float32 range": "x 1e39 2",
    "plus point five": "x +.5 2",
    "five point": "x 5. 2",
    "minus zero": "x -0 2",
    "smallest double": "x 4.9e-324 2",
    "hex": "x 0x10 2",
    "hash token": "#x 1 2",
    "hash after a field": "x 1 2#",
    "blank line": "",
    "bad field": "x 1 y",
    "short line": "x 1",
    "long line": "x 1 2 3",
    "no values": "x",
    "repeated token": "w0 1 2",
    "repeated token, nan": "w0 nan 2",
}


def text_lines(case, at, rows=8):
    lines = [f"w{i} 0.5 -1.5" for i in range(rows)]
    lines[at - 1] = case
    return lines


def text_outcome(path, **kwargs):
    try:
        m = read_text_embeddings(path, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)
    return m.labels, m.data.tobytes()


def reference_text_outcome(path, **kwargs):
    try:
        labels, data, bad = reference_read_text(path, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)
    if bad is not None:
        return ParseError, f"{path}:{bad}: non-finite value (nan, inf or past float32 range)"
    return labels, data.tobytes()


def check_text(path, monkeypatch, chunks=TEXT_CHUNKS, **kwargs):
    want = reference_text_outcome(path, **kwargs)
    for chunk in chunks:
        monkeypatch.setattr(matrixio, "_TEXT_CHUNK_CHARS", chunk)
        assert text_outcome(path, **kwargs) == want, chunk
    return want


@pytest.mark.parametrize("case", TEXT_CASES.values(), ids=TEXT_CASES.keys())
@pytest.mark.parametrize("at", [3, 4], ids=["end_of_chunk_1", "start_of_chunk_2"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("on_duplicate", ["error", "first"])
def test_text_grammar_table(tmp_path, monkeypatch, case, at, newline, on_duplicate):
    path = tmp_path / "v.txt"
    write_lines(path, text_lines(case, at), newline)
    check_text(path, monkeypatch, on_duplicate=on_duplicate)
    write_lines(path, ["8 2"] + text_lines(case, at), newline)
    check_text(path, monkeypatch, header=True, on_duplicate=on_duplicate)


@pytest.mark.parametrize("case, values", [
    ("x 1_0 2", [10.0, 2.0]),
    ("x 1 2 ", [1.0, 2.0]),
    ("x 1  2", [1.0, 2.0]),
    ("x \u0661\u0662 2", [12.0, 2.0]),
    ("x +.5 2", [0.5, 2.0]),
    ("x 5. 2", [5.0, 2.0]),
    ("x 4.9e-324 2", [0.0, 2.0]),
    ("x 1 2   ", [1.0, 2.0]),
    ("x 1 2 \r", [1.0, 2.0]),
])
@pytest.mark.parametrize("at", [3, 4])
def test_text_values(tmp_path, monkeypatch, case, values, at):
    path = tmp_path / "v.txt"
    write_lines(path, text_lines(case, at))
    labels, _bits = check_text(path, monkeypatch)
    m = read_text_embeddings(path)
    assert m.data[labels.index("x")].tolist() == values


def test_text_minus_zero_keeps_its_sign(tmp_path, monkeypatch):
    path = tmp_path / "v.txt"
    write_lines(path, text_lines("x -0 2", 4))
    check_text(path, monkeypatch)
    assert np.signbit(read_text_embeddings(path).data[3, 0])


@pytest.mark.parametrize("case, error, line", [
    ("x nan 2", ParseError, 4),
    ("x 1e39 2", ParseError, 4),
    ("x 1 y", ParseError, 4),
    ("w0 1 2", DataError, 4),
])
def test_text_errors_name_the_first_line_of_chunk_2(tmp_path, monkeypatch, case, error, line):
    path = tmp_path / "v.txt"
    write_lines(path, text_lines(case, 4))
    monkeypatch.setattr(matrixio, "_TEXT_CHUNK_CHARS", 25)
    with pytest.raises(error, match=f"v.txt:{line}: "):
        read_text_embeddings(path)


def test_trailing_spaces_take_the_c_parser(tmp_path, monkeypatch):
    # fastText's .vec layout: a space before every newline
    path = tmp_path / "v.txt"
    write_lines(path, [line + " " for line in text_lines("x 1 2", 4)])
    want = text_outcome(path)
    monkeypatch.setattr(matrixio, "_parse_lines", None)  # the line loop is not called
    assert text_outcome(path) == want
    assert want[0][3] == "x"


def test_skipped_duplicate_across_a_chunk_boundary(tmp_path, monkeypatch):
    path = tmp_path / "v.txt"
    write_lines(path, text_lines("w2 7 7", 4))
    labels, _bits = check_text(path, monkeypatch, on_duplicate="first")
    assert labels == [f"w{i}" for i in range(8) if i != 3]


# Fields of random lines: numpy's C parser and `float` agree on some,
# only `float` takes others, and neither takes the rest.
FIELDS = ["0.25", "-1", "1e-3", "+.5", "5.", "-0", "1_0", "\u0661", "1e39", "inf",
          "nan", "x", "", "\t2", "1e400", "4.9e-324", "0x1", "1.5e+2", "1\x1d",
          "\u20281", "1\x85"]


def random_text(rng, rows, trailing=False):
    lines = []
    for i in range(rows):
        if rng.random() < 0.05:
            lines.append("")
            continue
        token = f"w{rng.randrange(rows)}" if rng.random() < 0.1 else f"t{i}"
        width = 3 if rng.random() < 0.97 else rng.choice([2, 4])
        fields = [rng.choice(FIELDS[:6]) if rng.random() < 0.97 else rng.choice(FIELDS)
                  for _ in range(width)]
        lines.append(" ".join([token] + fields) + " " * (trailing and rng.randrange(3)))
    return lines


@pytest.mark.parametrize("seed", range(40))
def test_random_text_files(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    path = tmp_path / "v.txt"
    write_lines(path, random_text(rng, 30))
    check_text(path, monkeypatch, (1, rng.randrange(2, 200), rng.randrange(2, 400), 1 << 20),
               on_duplicate="first")


@pytest.mark.parametrize("seed", range(20))
def test_random_text_files_with_trailing_spaces(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    path = tmp_path / "v.txt"
    write_lines(path, random_text(rng, 30, trailing=True))
    check_text(path, monkeypatch, (1, rng.randrange(2, 200), rng.randrange(2, 400), 1 << 20),
               on_duplicate="first")


# --- edge files -----------------------------------------------------------

# Lines 1 and 2 are 22 characters each with their "\n", so a chunk of 45
# characters ends with line 3, whatever line 3 holds.
EDGE_CHUNKS = (1, 45, 1 << 20)

EDGE_CASES = {
    "empty weight": "/c/en/x\t/c/en/y\t\ts",
    "blank weight": "/c/en/x\t/c/en/y\t \ts",
    "padded weight": "/c/en/x\t/c/en/y\t 2 \ts",
    "underscore weight": "/c/en/x\t/c/en/y\t1_0\ts",
    "arabic-indic weight": "/c/en/x\t/c/en/y\t\u0661\u0662\ts",
    "smallest double weight": "/c/en/x\t/c/en/y\t4.9e-324\ts",
    "inf weight": "/c/en/x\t/c/en/y\tinf\ts",
    "nan weight": "/c/en/x\t/c/en/y\tnan\ts",
    "past double range": "/c/en/x\t/c/en/y\t1e400\ts",
    "zero weight": "/c/en/x\t/c/en/y\t0\ts",
    "minus zero weight": "/c/en/x\t/c/en/y\t-0\ts",
    "negative weight": "/c/en/x\t/c/en/y\t-1\ts",
    "bad weight": "/c/en/x\t/c/en/y\tw\ts",
    "comment": "# edges",
    "comment with tabs": "#/c/en/x\t/c/en/y\t1\ts",
    "blank line": "",
    "spaces": "   ",
    "tabs only": "\t\t\t",
    "three fields": "/c/en/x\t/c/en/y\t1",
    "five fields": "/c/en/x\t/c/en/y\t1\ts\tmore",
    "three fields, then five": "/c/en/x\t/c/en/y\t1\ns\t/c/en/z\t/c/en/w\t2\ts",
    "self edge": "/c/en/x\t/c/en/X\t1\ts",
    "source only on a self edge": "/c/en/x\t/c/en/x\t1\tonly",
    "new source": "/c/en/x\t/c/en/y\t1\tother",
    "start not a uri": "x\t/c/en/y\t1\ts",
    "end not a uri": "/c/en/x\ty\t1\ts",
    "bad language": "/c/EN/x\t/c/en/y\t1\ts",
    "empty label": "/c/en/!!!\t/c/en/y\t1\ts",
    "inflected labels": "/c/en/Cats\t/c/en/dogs\t1\ts",
    "hash in a uri": "/c/en/x\t/c/en/#y\t1\ts",
    "bad field, then a bad uri": "/c/en/x\tq\tw\ts",
}


def edge_lines(case, at, rows=8):
    lines = [f"/c/en/a{i}\t/c/en/b{i}\t1\ts" for i in range(rows)]
    lines[at - 1] = case
    return lines


def reference_read_edges(path, label):
    """The edge file at `path` read one line at a time, with `label(uri)`
    naming each distinct URI's term at its first line: blank and `#`
    lines skipped, an empty or blank weight read as 1.0, self-edges
    dropped, the first bad line raising."""
    path = str(path)
    ids, term_ids, source_ids = {}, {}, {}
    starts, ends, weights, sources = [], [], [], []
    with open_utf8(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}",
                                 path=path, line=lineno)
            start_uri, end_uri, weight_field, source = fields
            if weight_field.strip() == "":
                weight = 1.0
            else:
                try:
                    weight = float(weight_field)
                except ValueError:
                    raise ParseError(f"bad weight {weight_field!r}", path=path, line=lineno)
                if not math.isfinite(weight):
                    raise ParseError(f"non-finite weight {weight_field!r}",
                                     path=path, line=lineno)
            if weight <= 0:
                raise NonPositiveWeight(
                    f"{path}:{lineno}: weight must be positive, got {weight}")
            try:
                start = ids.get(start_uri)
                if start is None:
                    start = ids[start_uri] = term_ids.setdefault(label(start_uri),
                                                                 len(term_ids))
                end = ids.get(end_uri)
                if end is None:
                    end = ids[end_uri] = term_ids.setdefault(label(end_uri), len(term_ids))
            except (DataError, ValueError) as exc:
                raise ParseError(str(exc), path=path, line=lineno)
            if start == end:
                continue
            starts.append(start)
            ends.append(end)
            weights.append(weight)
            sources.append(source_ids.setdefault(source, len(source_ids)))
    return EdgeTable(list(term_ids), starts, ends, weights, sources, list(source_ids))


def reference_label(read):
    """The `label` that `read` names a URI's term with."""
    if read is read_assertions:
        return lambda uri: StandardLabel.from_uri(uri).uri
    standardizer = Standardizer()
    return lambda uri: standardizer.uri(*split_uri(uri)[::-1])


def edge_outcome(read, path):
    try:
        t = read(path)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (t.terms, t.start.tolist(), t.end.tolist(), t.weight.tobytes(),
            t.source.tolist(), t.sources)


def check_edges(read, path, monkeypatch, chunks=EDGE_CHUNKS):
    """`read(path)` with each chunk size, checked against the reference
    reader; returns the outcome."""
    want = edge_outcome(lambda p: reference_read_edges(p, reference_label(read)), path)
    for chunk in chunks:
        monkeypatch.setattr(kgraph, "_EDGE_CHUNK_CHARS", chunk)
        assert edge_outcome(read, path) == want, chunk
    return want


@pytest.mark.parametrize("case", EDGE_CASES.values(), ids=EDGE_CASES.keys())
@pytest.mark.parametrize("at", [1, 3, 4], ids=["first_line", "end_of_chunk_1",
                                               "start_of_chunk_2"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("read", [load_assertions, read_assertions])
def test_edge_grammar_table(tmp_path, monkeypatch, case, at, newline, read):
    path = tmp_path / "edges.tsv"
    write_lines(path, edge_lines(case, at), newline)
    check_edges(read, path, monkeypatch)


@pytest.mark.parametrize("weight, value", [("", 1.0), (" ", 1.0), (" 2 ", 2.0),
                                           ("1_0", 10.0), ("\u0661\u0662", 12.0)])
def test_edge_weights(tmp_path, monkeypatch, weight, value):
    path = tmp_path / "edges.tsv"
    write_lines(path, edge_lines(f"/c/en/x\t/c/en/y\t{weight}\ts", 4))
    table = load_assertions(path)
    check_edges(load_assertions, path, monkeypatch)
    assert table.weight[3] == value


@pytest.mark.parametrize("case, error, line", [
    ("/c/en/x\t/c/en/y\tnan\ts", ParseError, 4),
    ("/c/en/x\t/c/en/y\t0\ts", DataError, 4),
    ("x\t/c/en/y\t1\ts", ParseError, 4),
    ("/c/en/x\t/c/en/y\t1", ParseError, 4),
])
def test_edge_errors_name_the_first_line_of_chunk_2(tmp_path, monkeypatch, case, error, line):
    path = tmp_path / "edges.tsv"
    write_lines(path, edge_lines(case, 4))
    monkeypatch.setattr(kgraph, "_EDGE_CHUNK_CHARS", 45)
    with pytest.raises(error, match=f"edges.tsv:{line}: "):
        load_assertions(path)


def test_self_edge_first_and_a_source_seen_only_on_one(tmp_path, monkeypatch):
    path = tmp_path / "edges.tsv"
    write_lines(path, ["/c/en/Cat\t/c/en/cats\t1\tonly", "/c/en/x\t/c/en/y\t2\tkept",
                       "/c/en/y\t/c/en/cat\t3\tonly"])
    check_edges(load_assertions, path, monkeypatch)
    table = load_assertions(path)
    # term ids in order of first appearance, self edges included; source
    # ids in order of the first kept edge
    assert table.terms == ["/c/en/cat", "/c/en/x", "/c/en/y"]
    assert (table.start.tolist(), table.end.tolist()) == ([1, 2], [2, 0])
    assert table.sources == ["kept", "only"] and table.source.tolist() == [0, 1]


def test_edge_file_is_read_a_chunk_at_a_time(tmp_path, monkeypatch):
    sizes = []
    add_chunk = kgraph._EdgeReader.add_chunk

    def recording(self, lines):
        assert add_chunk(self, lines)  # each chunk is added in bulk
        sizes.append(len(lines))
        return True

    monkeypatch.setattr(kgraph._EdgeReader, "add_chunk", recording)
    monkeypatch.setattr(kgraph, "_EDGE_CHUNK_CHARS", 45)
    path = tmp_path / "edges.tsv"
    write_lines(path, edge_lines("/c/en/a2\t/c/en/b2\t1\ts", 3))
    assert len(load_assertions(path)) == 8
    assert sizes == [3, 3, 2]


def record_adds(monkeypatch):
    """Record each `add` call's `add_chunk` results, as a list per chunk,
    and each `check_line` call's line number."""
    adds, checked = [], []
    add, add_chunk = kgraph._EdgeReader.add, kgraph._EdgeReader.add_chunk
    check_line = kgraph._EdgeReader.check_line

    def recording_add(self, lines, lineno):
        adds.append([])
        add(self, lines, lineno)

    def recording_add_chunk(self, lines):
        adds[-1].append(add_chunk(self, lines))
        return adds[-1][-1]

    def recording_check_line(self, line, lineno):
        checked.append(lineno)
        check_line(self, line, lineno)

    monkeypatch.setattr(kgraph._EdgeReader, "add", recording_add)
    monkeypatch.setattr(kgraph._EdgeReader, "add_chunk", recording_add_chunk)
    monkeypatch.setattr(kgraph._EdgeReader, "check_line", recording_check_line)
    return adds, checked


@pytest.mark.parametrize("chunk", EDGE_CHUNKS)
def test_comments_and_blank_lines_are_added_in_bulk(tmp_path, monkeypatch, chunk):
    lines = edge_lines("# note", 4)
    lines[2:2] = ["", "   "]
    path = tmp_path / "edges.tsv"
    write_lines(path, ["# edges"] + lines)
    want = check_edges(load_assertions, path, monkeypatch)
    assert len(want[1]) == 7
    monkeypatch.setattr(kgraph, "_EDGE_CHUNK_CHARS", chunk)
    adds, checked = record_adds(monkeypatch)
    assert edge_outcome(load_assertions, path) == want
    # each chunk in one add_chunk call, or in two if it has a line to drop
    # and an edge; no line is checked
    assert all(results in ([True], [False], [False, True]) for results in adds)
    assert ([False, True] in adds) == (chunk > 1) and not checked


@pytest.mark.parametrize("chunk", EDGE_CHUNKS)
def test_bad_weight_after_a_comment_names_its_own_line(tmp_path, monkeypatch, chunk):
    lines = edge_lines("/c/en/x\t/c/en/y\tw\ts", 4)
    lines[1:1] = [""]
    path = tmp_path / "edges.tsv"
    write_lines(path, ["# edges"] + lines)
    assert check_edges(load_assertions, path, monkeypatch)[1:] == \
        (f"{path}:6: bad weight 'w'", 6)
    monkeypatch.setattr(kgraph, "_EDGE_CHUNK_CHARS", chunk)
    _adds, checked = record_adds(monkeypatch)
    with pytest.raises(ParseError, match="edges.tsv:6: bad weight 'w'"):
        load_assertions(path)
    assert checked[-1] == 6


def test_a_chunk_rejected_with_no_bad_line_raises(tmp_path, monkeypatch):
    path = tmp_path / "edges.tsv"
    write_lines(path, edge_lines("/c/en/x\t/c/en/y\t1\ts", 4))
    monkeypatch.setattr(kgraph._EdgeReader, "add_chunk", lambda self, lines: False)
    with pytest.raises(AssertionError, match="edges.tsv: add_chunk rejected lines 1-8, "
                       "but no line is bad"):
        load_assertions(path)


URIS = ["/c/en/a", "/c/en/b", "/c/en/Cats", "/c/en/cat", "/c/fr/chat", "/c/en/!!",
        "nope", "/c/en/a_b", "/c/en/"]
WEIGHTS = ["1", "0.5", "", "2e0", "1_0", "nan", "0", "x", " 3"]


@pytest.mark.parametrize("seed", range(40))
def test_random_edge_files(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    lines = []
    for _ in range(30):
        roll = rng.random()
        if roll < 0.03:
            lines.append(rng.choice(["", "# note", "a\tb"]))
            continue
        start, end = (rng.choice(URIS[:5]) if rng.random() < 0.97 else rng.choice(URIS)
                      for _ in range(2))
        weight = rng.choice(WEIGHTS[:5]) if rng.random() < 0.97 else rng.choice(WEIGHTS)
        lines.append(f"{start}\t{end}\t{weight}\t{rng.choice('st')}")
    path = tmp_path / "edges.tsv"
    write_lines(path, lines)
    check_edges(load_assertions, path, monkeypatch,
                (1, rng.randrange(2, 300), rng.randrange(2, 600), 1 << 20))


# --- the byte order mark --------------------------------------------------

class TestByteOrderMark:
    """A UTF-8 byte order mark at the start of a file is not content; one
    anywhere else is."""

    @pytest.mark.parametrize("header", [False, True])
    def test_text_vectors(self, tmp_path, header):
        path = tmp_path / "v.txt"
        lines = ["2 2"] if header else []
        write_lines(path, [BOM + "\n".join(lines + ["the 1 2", BOM + "cat 3 4"])])
        assert read_text_embeddings(path, header=header).labels == ["the", BOM + "cat"]

    @pytest.mark.parametrize("read", [load_assertions, read_assertions])
    def test_edges(self, tmp_path, read):
        path = tmp_path / "edges.tsv"
        write_lines(path, [BOM + "/c/en/cat\t/c/en/dog\t1\ts"])
        assert read(path).terms == ["/c/en/cat", "/c/en/dog"]
        write_lines(path, ["/c/en/cat\t/c/en/dog\t1\ts", BOM + "/c/en/cat\t/c/en/dog\t1\ts"])
        with pytest.raises(ParseError) as err:
            read(path)
        assert err.value.line == 2

    def test_gold(self, tmp_path):
        path = tmp_path / "gold.txt"
        write_lines(path, [BOM + "tiger cat 7.35"])
        assert load_gold(path)[0].word1 == "tiger"

    def test_stopwords(self, tmp_path):
        path = tmp_path / "stop.txt"
        write_lines(path, [BOM + "foo", "bar"])
        assert load_stopwords(path) == {"foo", "bar"}
        write_lines(path, [BOM + "# comment", "bar"])
        assert load_stopwords(path) == {"bar"}

    def test_exceptions(self, tmp_path):
        path = tmp_path / "exc.txt"
        write_lines(path, [BOM + "ran\trun"])
        assert load_exceptions(path) == {"ran": "run"}

    def test_native_labels(self, tmp_path):
        write_native(make_matrix(["a", "b"], [[1, 2], [3, 4]]),
                     tmp_path / "m.emb1", tmp_path / "m.labels")
        write_lines(tmp_path / "m.labels", [BOM + "a", "b"])
        assert read_native(tmp_path / "m.emb1", tmp_path / "m.labels").labels == ["a", "b"]

    def test_config(self, tmp_path):
        path = tmp_path / "config.json"
        raw = {"schema_version": 1,
               "embeddings": [{"id": "alpha", "path": "a.txt", "format": "glove_text"}]}
        write_lines(path, [BOM + json.dumps(raw)])
        assert load_config(path).enabled_embeddings()[0].id == "alpha"

    def test_native_write_rejects_a_first_label_read_back_as_one(self, tmp_path):
        m = make_matrix([BOM + "a", "b"], [[1, 2], [3, 4]])
        with pytest.raises(DataError, match="label of row 1 starts with a byte order mark: "
                           + re.escape(repr(BOM + "a"))):
            write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        assert not (tmp_path / "m.emb1").exists()
        m = make_matrix(["a", BOM + "b", "c" + BOM], [[1, 2], [3, 4], [5, 6]])
        write_native(m, tmp_path / "m.emb1", tmp_path / "m.labels")
        assert read_native(tmp_path / "m.emb1", tmp_path / "m.labels").labels == m.labels
