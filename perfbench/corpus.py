"""Seeded synthetic corpora with planted cluster structure.

Every word belongs to one of a fixed number of clusters. Embedding
vectors, graph edges and gold similarity scores all derive from a hidden
per-word latent vector, so a pipeline that uses the graph well scores a
higher Spearman rho than one that ignores it.

Words are built from consonant-vowel syllables and always end in `a`,
`o` or `u`. No lemma suffix rule or irregular form matches such a word,
and none is a stopword, so each label standardizes to `/c/<lang>/<word>`
(a capitalised variant casefolds onto its lowercase twin). That lets
`expected_labels` predict the pipeline's output vocabulary without
running any of the program's code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

_SYLLABLES = [c + v for c in "bdfgklmnprtvz" for v in "aeiou"]
_FINAL_SYLLABLES = [c + v for c in "bdfgklmnprtvz" for v in "aou"]
_WORD_SPACE = len(_SYLLABLES) ** 3 * len(_FINAL_SYLLABLES)

LATENT_DIMS = 32
LATENT_NOISE = 0.4  # a word's spread around its cluster centre
CAPITALISE_EVERY = 7  # every 7th GloVe row is a capitalised duplicate
FR_EDGE_SHARE = 0.1
ITERATIONS = 10
MIN_COUNT = {"en": 4, "other": 3}
MAX_WORDS = 3


@dataclasses.dataclass(frozen=True)
class Shape:
    """Sizes of one workload's corpus."""

    glove_words: int       # distinct words in the GloVe text source
    w2v_words: int         # word2vec binary rows; 0 leaves the source out
    shared_words: int      # words present in both sources
    graph_only_words: int  # English words that appear only in the graph
    graph_emb_words: int   # embedding words that edges may touch
    fr_words: int          # French words, graph only
    edges: int
    gold_pairs: int
    clusters: int
    embedding_noise: float  # noise in each source's view of the latent vectors
    dims: int = 100
    fusion_out_dims: int = 150


@dataclasses.dataclass
class Corpus:
    """The generated config plus the output vocabulary it must produce."""

    config_path: str
    output_dir: str
    expected_labels: list


def word(index: int) -> str:
    """Injective map from [0, _WORD_SPACE) to a four-syllable word."""
    final = _FINAL_SYLLABLES[index % len(_FINAL_SYLLABLES)]
    index //= len(_FINAL_SYLLABLES)
    parts = []
    for _ in range(3):
        parts.append(_SYLLABLES[index % len(_SYLLABLES)])
        index //= len(_SYLLABLES)
    return "".join(parts) + final


def _unit(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _pick_pairs(rng, members_by_cluster, clusters):
    """Two distinct members of each given cluster (clusters need >= 2)."""
    sizes = np.array([len(members_by_cluster[c]) for c in clusters])
    first = (rng.random(len(clusters)) * sizes).astype(np.int64)
    second = (rng.random(len(clusters)) * (sizes - 1)).astype(np.int64)
    second += second >= first
    return ([members_by_cluster[c][i] for c, i in zip(clusters, first)],
            [members_by_cluster[c][i] for c, i in zip(clusters, second)])


def generate(directory: str, shape: Shape, seed: int) -> Corpus:
    """Write one corpus and its pipeline config under `directory`."""
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    n_only_w2v = max(shape.w2v_words - shape.shared_words, 0)
    n_en = shape.glove_words + n_only_w2v + shape.graph_only_words
    ids = rng.choice(_WORD_SPACE, size=n_en + shape.fr_words, replace=False)
    en_words = [word(int(i)) for i in ids[:n_en]]
    fr_words = [word(int(i)) for i in ids[n_en:]]

    # Hidden structure: cluster centres, then one latent vector per word.
    centres = _unit(rng.standard_normal((shape.clusters, LATENT_DIMS)))
    en_cluster = rng.integers(0, shape.clusters, n_en)
    fr_cluster = rng.integers(0, shape.clusters, shape.fr_words)
    latent = _unit(centres[en_cluster] + LATENT_NOISE / np.sqrt(LATENT_DIMS)
                   * rng.standard_normal((n_en, LATENT_DIMS)))

    # Word indices are laid out [shared | glove only | w2v only | graph only].
    glove_idx = rng.permutation(shape.glove_words)
    w2v_idx = rng.permutation(np.concatenate([
        np.arange(shape.shared_words),
        shape.glove_words + np.arange(n_only_w2v)]))

    def observed(idx):
        projection = rng.standard_normal((LATENT_DIMS, shape.dims)) / np.sqrt(LATENT_DIMS)
        noise = shape.embedding_noise / np.sqrt(shape.dims) * rng.standard_normal(
            (len(idx), shape.dims))
        return (latent[idx] @ projection + noise).astype(np.float32)

    glove_vecs = observed(glove_idx)
    tokens, rows = [], []
    for i, (w, vec) in enumerate(zip(glove_idx, glove_vecs)):
        tokens.append(en_words[w])
        rows.append(vec)
        if (i + 1) % (CAPITALISE_EVERY - 1) == 0:
            # A capitalised duplicate of an earlier word; merging collapses it.
            twin = i - 3
            tokens.append(en_words[glove_idx[twin]].capitalize())
            rows.append(glove_vecs[twin]
                        + np.float32(0.05) * rng.standard_normal(shape.dims, np.float32))
    glove_path = os.path.join(directory, "glove.txt")
    with open(glove_path, "w", encoding="utf-8", newline="\n") as f:
        for token, row in zip(tokens, rows):
            f.write(token + " " + " ".join(f"{v:.5f}" for v in row.tolist()) + "\n")
    embeddings = [{"id": "glove", "path": glove_path, "format": "glove_text"}]

    if shape.w2v_words:
        w2v_path = os.path.join(directory, "w2v.bin")
        with open(w2v_path, "wb") as f:
            f.write(f"{len(w2v_idx)} {shape.dims}\n".encode())
            for w, vec in zip(w2v_idx, observed(w2v_idx)):
                f.write(en_words[w].encode() + b" " + vec.astype("<f4").tobytes() + b"\n")
        embeddings.append({"id": "w2v", "path": w2v_path, "format": "word2vec_binary"})

    # Edges join two words of one cluster; a share ends at a French word.
    n_emb = shape.glove_words + n_only_w2v
    pool = np.concatenate([np.sort(rng.choice(n_emb, shape.graph_emb_words, replace=False)),
                           np.arange(n_emb, n_en)])
    by_cluster = [pool[en_cluster[pool] == c] for c in range(shape.clusters)]
    fr_by_cluster = [np.flatnonzero(fr_cluster == c) for c in range(shape.clusters)]
    n_fr = int(round(shape.edges * FR_EDGE_SHARE))
    en_ok = np.flatnonzero([len(m) >= 2 for m in by_cluster])
    fr_ok = np.flatnonzero([len(m) >= 2 and len(f) > 0
                            for m, f in zip(by_cluster, fr_by_cluster)])
    clusters = np.concatenate([rng.choice(fr_ok, n_fr),
                               rng.choice(en_ok, shape.edges - n_fr)])
    starts, ends = _pick_pairs(rng, by_cluster, clusters)
    ends = [f"/c/en/{en_words[b]}" for b in ends]
    for e, c in enumerate(clusters[:n_fr]):
        ends[e] = f"/c/fr/{fr_words[rng.choice(fr_by_cluster[c])]}"
    is_cn = rng.random(shape.edges) < 0.7
    weights = np.where(is_cn, rng.uniform(0.5, 3.0, shape.edges),
                       rng.uniform(0.1, 0.9, shape.edges))
    edge_lines = [f"/c/en/{en_words[a]}\t{b}\t{w:.4f}\t{'cn' if cn else 'ppdb'}"
                  for a, b, w, cn in zip(starts, ends, weights.tolist(), is_cn)]
    edge_lines = [edge_lines[i] for i in rng.permutation(len(edge_lines))]
    edges_path = os.path.join(directory, "edges.tsv")
    with open(edges_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(edge_lines) + "\n")

    # Gold pairs over the embedding vocabulary: half within one cluster,
    # half across all of it.
    emb_by_cluster = [np.flatnonzero(en_cluster[:n_emb] == c) for c in range(shape.clusters)]
    emb_ok = np.flatnonzero([len(m) >= 2 for m in emb_by_cluster])
    n_within = shape.gold_pairs // 2
    first, second = _pick_pairs(rng, emb_by_cluster, rng.choice(emb_ok, n_within))
    across = rng.choice(n_emb, size=(shape.gold_pairs - n_within, 2))
    across[:, 1] = (across[:, 0] + 1 + across[:, 1] % (n_emb - 1)) % n_emb
    first = np.concatenate([first, across[:, 0]])
    second = np.concatenate([second, across[:, 1]])
    scores = 5.0 * (1.0 + np.einsum("ij,ij->i", latent[first], latent[second]))
    gold_path = os.path.join(directory, "gold.txt")
    with open(gold_path, "w", encoding="utf-8", newline="\n") as f:
        for a, b, s in zip(first, second, scores.tolist()):
            f.write(f"{en_words[a]}\t{en_words[b]}\t{s:.2f}\n")

    output_dir = os.path.join(directory, "out")
    config = {
        "schema_version": 1,
        "embeddings": embeddings,
        "graphs": [{"id": "graph", "path": edges_path}],
        "fusion": {"k": 10, "out_dims": shape.fusion_out_dims},
        "retrofit": {"iterations": ITERATIONS},
        "term_filter": {"min_count": MIN_COUNT, "max_words": MAX_WORDS},
        "evaluations": [{"id": "gold", "path": gold_path,
                         "splits": ["dev", "test", "all"]}],
        "output": {"dir": output_dir},
    }
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f, indent=1)

    # Merged GloVe rows keep first-seen order; fusion lists shared terms
    # in GloVe order, then GloVe-only terms, then word2vec-only terms.
    emb_labels = list(dict.fromkeys(f"/c/en/{t.casefold()}" for t in tokens))
    if shape.w2v_words:
        w2v_labels = [f"/c/en/{en_words[w]}" for w in w2v_idx]
        in_w2v, in_glove = set(w2v_labels), set(emb_labels)
        emb_labels = ([lab for lab in emb_labels if lab in in_w2v]
                      + [lab for lab in emb_labels if lab not in in_w2v]
                      + [lab for lab in w2v_labels if lab not in in_glove])
    return Corpus(config_path=config_path, output_dir=output_dir,
                  expected_labels=expected_labels(emb_labels, edge_lines))


def expected_labels(embedding_labels, edge_lines) -> list:
    """The output vocabulary: the embedding labels, then the graph-only
    terms of edges that survive the term filter, sorted."""
    edges = []
    counts: dict = {}
    for line in edge_lines:
        start, end = line.split("\t")[:2]
        if start != end:
            edges.append((start, end))
            counts[start] = counts.get(start, 0) + 1
            counts[end] = counts.get(end, 0) + 1

    def fringe(term):
        language, text = term.split("/", 3)[2:]
        return (text.count("_") + 1 > MAX_WORDS
                or counts[term] < MIN_COUNT.get(language, MIN_COUNT["other"]))

    bad = {t for t in counts if fringe(t)}
    kept = {t for s, e in edges if s not in bad and e not in bad for t in (s, e)}
    known = set(embedding_labels)
    return list(embedding_labels) + sorted(kept - known)


def labels_digest(labels) -> str:
    """sha256 of a labels file that holds `labels`, one per line."""
    return hashlib.sha256("".join(lab + "\n" for lab in labels).encode()).hexdigest()
