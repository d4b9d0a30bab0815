"""Word-similarity evaluation.

Gold files are scored by cosine similarity between standardized label
rows, ranked with Spearman correlation (average ranks for ties), and
reported with Fisher-transform confidence intervals. Out-of-vocabulary
words contribute a zero vector and cosine involving a zero vector is 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCorrelation,
    DegenerateInput,
    InvalidChunk,
    ParseError,
    open_utf8,
)
from .labels import Standardizer, map_digit_runs
from .matrixio import LabeledMatrix

# The two-sided 95% normal critical value.
Z_95 = 1.959964

_MEN_POS_TAG_RE = re.compile(r"^(.+)-([a-z])$")

GOLD_FORMATS = ("generic", "men")


@dataclass(frozen=True)
class GoldPair:
    """A human similarity judgment for one word pair."""

    word1: str
    word2: str
    score: float
    language: str = "en"


def load_gold(path, format: str = "generic", language: str = "en") -> list:
    """Read a gold file: one "word1 word2 score" line per pair.

    Fields are whitespace- or tab-separated, '#' lines are comments. The
    "men" format strips the trailing "-<pos letter>" tag each word carries
    in the lemma-form distribution of that dataset.
    """
    if format not in GOLD_FORMATS:
        raise ValueError(f"unknown gold format {format!r}")
    pairs = []
    with open_utf8(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(f"expected 'word1 word2 score', got {len(fields)} fields",
                                 path=str(path), line=lineno)
            w1, w2, score_field = fields
            if format == "men":
                w1 = _strip_pos_tag(w1)
                w2 = _strip_pos_tag(w2)
            try:
                score = float(score_field)
            except ValueError:
                raise ParseError(f"bad score {score_field!r}", path=str(path), line=lineno)
            if not math.isfinite(score):
                raise ParseError(f"non-finite score {score_field!r}",
                                 path=str(path), line=lineno)
            pairs.append(GoldPair(word1=w1, word2=w2, score=score, language=language))
    return pairs


def _strip_pos_tag(word: str) -> str:
    m = _MEN_POS_TAG_RE.match(word)
    return m.group(1) if m else word


def round_robin_split(pairs, num_chunks: int, chunk_index: int) -> list:
    """Items at 1-based positions p with p ≡ chunk_index (mod num_chunks).

    This is the assignment `split -n r/<chunk_index>/<num_chunks>` makes,
    preserving original order.
    """
    if not 1 <= chunk_index <= num_chunks:
        raise InvalidChunk(f"chunk {chunk_index} outside [1, {num_chunks}]")
    return list(pairs[chunk_index - 1 :: num_chunks])


def dev_test_split(pairs, num_chunks: int, test_chunk: int):
    """(dev, test): the test chunk versus the other chunks concatenated
    in chunk order."""
    test = round_robin_split(pairs, num_chunks, test_chunk)
    dev = []
    for c in range(1, num_chunks + 1):
        if c != test_chunk:
            dev.extend(round_robin_split(pairs, num_chunks, c))
    return dev, test


def select_split(pairs, split: str, num_chunks: int, test_chunk: int) -> list:
    """The pairs of `split`: "all", or the round-robin "test" chunk
    (`test_chunk` of `num_chunks`), or "dev", the other chunks."""
    if split == "all":
        return list(pairs)
    if split == "test":
        return round_robin_split(pairs, num_chunks, test_chunk)
    if split == "dev":
        return dev_test_split(pairs, num_chunks, test_chunk)[0]
    raise ValueError(f"unknown split {split!r}")


class MatrixLookup:
    """Standardize-then-look-up view of a labeled matrix.

    With `standardizer` None, words are looked up as exact strings (for
    spaces built from raw, untransformed labels). `digit_fallback`
    retries a miss with maximal digit runs collapsed to '#', matching the
    preprocessing of word2vec-sourced rows; stored labels always keep
    their literal digits.
    """

    def __init__(self, matrix: LabeledMatrix, standardizer: Standardizer | None,
                 digit_fallback: bool = False):
        self.matrix = matrix
        self.standardizer = standardizer
        self.digit_fallback = digit_fallback
        self._index = matrix.label_index()

    def row_indices(self, keys) -> list:
        """The matrix row of each raw (word, language) in `keys`, or None
        for one out of vocabulary; the words of one language are
        standardized by one `Standardizer.uris` call."""
        keys = list(keys)
        index = self._index
        if self.standardizer is None:
            return [index.get(word) for word, _language in keys]
        rows = [None] * len(keys)
        for language in dict.fromkeys(language for _word, language in keys):
            at = [i for i, key in enumerate(keys) if key[1] == language]
            uris = self.standardizer.uris([keys[i][0] for i in at], language)
            for i, uri in zip(at, uris):
                if uri is None:  # the word does not standardize
                    continue
                row = index.get(uri)
                if row is None and self.digit_fallback:
                    # the /c/<language>/ prefix holds no digit
                    row = index.get(map_digit_runs(uri))
                rows[i] = row
        return rows


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # first and last 0-based sorted position of each run of equal values
    first = np.flatnonzero(np.concatenate([[True], sorted_vals[1:] != sorted_vals[:-1]]))
    last = np.append(first[1:], len(values)) - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((first + last + 2) / 2.0, last - first + 1)
    return ranks


def spearman(gold, predicted) -> float:
    """Pearson correlation of average ranks."""
    gold = np.asarray(gold, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if gold.shape != predicted.shape:
        raise ValueError(f"length mismatch: {gold.shape} vs {predicted.shape}")
    if len(gold) < 2:
        raise DegenerateInput(f"need at least 2 pairs, got {len(gold)}")
    if np.all(gold == gold[0]) or np.all(predicted == predicted[0]):
        raise DegenerateInput("rank correlation is undefined for a constant side")
    rg = average_ranks(gold)
    rp = average_ranks(predicted)
    cg = rg - rg.mean()
    cp = rp - rp.mean()
    rho = float((cg @ cp) / math.sqrt((cg @ cg) * (cp @ cp)))
    return max(-1.0, min(1.0, rho))


def fisher_ci(rho: float, n: int):
    """95% confidence interval via z = atanh(rho)."""
    if n < 4 or abs(rho) >= 1.0:
        raise DegenerateCorrelation(f"interval undefined for rho={rho}, n={n}")
    z = math.atanh(rho)
    half_width = Z_95 / math.sqrt(n - 3)
    return math.tanh(z - half_width), math.tanh(z + half_width)


@dataclass
class EvalReport:
    """Per-dataset evaluation summary."""

    dataset: str
    split: str
    n: int
    rho: float
    ci_low: float
    ci_high: float
    oov_fraction: float


def evaluate(lookup: MatrixLookup, pairs, dataset_id: str, split: str,
             drop_oov: bool = False) -> EvalReport:
    """Score `lookup`'s matrix against the gold `pairs` of one split;
    `split` only names it in the report (`select_split` picks pairs).

    With `drop_oov`, pairs containing out-of-vocabulary words are excluded
    from the correlation instead of being scored 0; the reported
    oov_fraction is always relative to the split size.
    """
    # each distinct (word, language) is looked up once
    slots = {}
    ends = np.array([[slots.setdefault((p.word1, p.language), len(slots)),
                      slots.setdefault((p.word2, p.language), len(slots))]
                     for p in pairs], dtype=np.int64).reshape(len(pairs), 2)
    rows = np.array([-1 if row is None else row for row in lookup.row_indices(slots)],
                    dtype=np.int64)
    oov = (rows[ends] < 0).any(axis=1)
    gold = np.array([p.score for p in pairs], dtype=np.float64)
    if drop_oov:
        gold, ends = gold[~oov], ends[~oov]
    rho = spearman(gold, _pair_cosines(lookup.matrix, rows[ends]))
    ci_low, ci_high = fisher_ci(rho, len(gold)) \
        if abs(rho) < 1.0 and len(gold) >= 4 else (rho, rho)
    return EvalReport(dataset=dataset_id, split=split, n=len(gold), rho=rho,
                      ci_low=ci_low, ci_high=ci_high,
                      oov_fraction=int(oov.sum()) / len(pairs))


# pairs whose float64 rows are gathered at once
_PAIR_BLOCK = 512


def _pair_cosines(matrix: LabeledMatrix, ends) -> np.ndarray:
    """The cosine of the float64 rows `ends[i]` of `matrix` for every pair
    i, where row -1 is the zero vector: 0 when either row is zero, else 1
    when the rows are equal, else clipped to [-1, 1]. Only the rows the
    pairs use are widened to float64, each once."""
    used, ends = np.unique(ends.ravel(), return_inverse=True)
    ends = ends.reshape(-1, 2)
    vecs = np.zeros((len(used), matrix.dims))
    vecs[used >= 0] = matrix.data[used[used >= 0]]
    norms = np.sqrt(np.vecdot(vecs, vecs))
    n1, n2 = norms[ends[:, 0]], norms[ends[:, 1]]
    dots = np.empty(len(ends))
    same = np.empty(len(ends), dtype=bool)
    for b0 in range(0, len(ends), _PAIR_BLOCK):
        v1 = vecs[ends[b0:b0 + _PAIR_BLOCK, 0]]
        v2 = vecs[ends[b0:b0 + _PAIR_BLOCK, 1]]
        dots[b0:b0 + len(v1)] = np.vecdot(v1, v2)
        same[b0:b0 + len(v1)] = (v1 == v2).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / (n1 * n2)
    # the rules above in reverse, each overriding the ones before: the
    # clip as Python's max(-1.0, min(1.0, x)) evaluates it, NaN included
    cos = np.where(cos < 1.0, cos, 1.0)
    cos = np.where(cos > -1.0, cos, -1.0)
    cos[same] = 1.0  # words sharing a row must tie exactly in the ranking
    cos[(n1 <= 0.0) | (n2 <= 0.0)] = 0.0
    return cos


REPORT_COLUMNS = ("dataset", "split", "n", "rho", "ci_low", "ci_high", "oov_fraction")


def report_rows(reports) -> list:
    rows = []
    for r in reports:
        rows.append((r.dataset, r.split, str(r.n), f"{r.rho:.6f}",
                     f"{r.ci_low:.6f}", f"{r.ci_high:.6f}", f"{r.oov_fraction:.6f}"))
    return rows


def write_report(reports, path) -> None:
    """Write the TSV report: dataset split n rho ci_low ci_high oov_fraction."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\t".join(REPORT_COLUMNS) + "\n")
        for row in report_rows(reports):
            f.write("\t".join(row) + "\n")


def format_report_table(reports) -> str:
    """Aligned human-readable report table."""
    rows = [REPORT_COLUMNS] + report_rows(reports)
    widths = [max(len(row[i]) for row in rows) for i in range(len(REPORT_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)
