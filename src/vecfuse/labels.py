"""Standardized, language-tagged term labels.

Raw surface strings from different resources (embedding vocabularies,
knowledge-graph nodes, evaluation gold files) are folded into a single
label space: tokenized, casefolded, stopword-filtered, lemmatized and
underscore-joined, rendered as ``/c/<language>/<text>`` URIs. Two strings
standardize to the same label exactly when they should share a vector row.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .errors import EmptyAfterNormalization, InvalidLanguage, ParseError, open_utf8

_LANGUAGE_RE = re.compile(r"[a-z]{2,3}$")
_DIGIT_RUN_RE = re.compile(r"[0-9]+")
# \s on str matches exactly the characters str.isspace accepts; on ASCII
# text [A-Z] matches exactly what str.isupper accepts (no ASCII character
# is titlecase).
_SPACE_RE = re.compile(r"\s")
_ASCII_UPPER_RE = re.compile(r"[A-Z]")
# a text of one lowercase ASCII alphanumeric token: tokenize returns it
# whole, and it passes the label check
_PLAIN_RE = re.compile(r"[a-z0-9]+")
_MAX_NORMALIZE_PASSES = 10


def validate_language(code: str) -> str:
    """Return `code` if it is a valid lowercase 2- or 3-letter tag."""
    if not isinstance(code, str) or not _LANGUAGE_RE.fullmatch(code):
        raise InvalidLanguage(f"not a lowercase ISO-639 code: {code!r}")
    return code


def split_uri(uri: str) -> tuple:
    """(language, text) of a `/c/<language>/<text>` URI, checking only its
    shape. The text is everything after the language; it may hold '/'."""
    parts = uri.split("/", 3)
    if len(parts) != 4 or parts[0] != "" or parts[1] != "c":
        raise ValueError(f"not a /c/<language>/<text> uri: {uri!r}")
    return parts[2], parts[3]


def _check_label_text(text: str) -> None:
    if not text:
        raise EmptyAfterNormalization("label text is empty")
    if text[0] == "_" or text[-1] == "_" or "__" in text:
        raise ValueError(f"empty token in label text: {text!r}")
    if _SPACE_RE.search(text):
        raise ValueError(f"whitespace in label text: {text!r}")
    if (_ASCII_UPPER_RE.search(text) if text.isascii()
            else any(ch.isupper() or unicodedata.category(ch) == "Lt" for ch in text)):
        raise ValueError(f"uppercase in label text: {text!r}")


@dataclass(frozen=True, slots=True)
class StandardLabel:
    """A language-tagged, normalized term identifier, and its
    `/c/<language>/<text>` URI, which is computed once."""

    language: str
    text: str
    uri: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        validate_language(self.language)
        _check_label_text(self.text)
        _set_uri(self, f"/c/{self.language}/{self.text}")

    @classmethod
    def from_uri(cls, uri: str) -> "StandardLabel":
        return cls(*split_uri(uri))

    def __str__(self) -> str:
        return self.uri


_set_uri = StandardLabel.uri.__set__


@dataclass(frozen=True)
class LemmaRuleSet:
    """Suffix-detachment rules plus an irregular-form exception map.

    Rules are (part_of_speech, suffix, replacement) triples tried in
    order; the part of speech is documentation only (no tagging is done).
    Exception lookup always wins over rules.
    """

    rules: tuple = ()
    exceptions: dict = field(default_factory=dict)
    # every rule's suffix, for one endswith test before the rules are tried
    suffixes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for pos, suffix, replacement in self.rules:
            if len(replacement) > len(suffix) + 1:
                raise ValueError(
                    f"rule {pos}:{suffix}->{replacement} cannot terminate"
                )
        object.__setattr__(self, "suffixes",
                           tuple({suffix: None for _pos, suffix, _rep in self.rules}))


# Morphy-style detachment rules; order matters (first acceptable match wins).
DEFAULT_RULES = (
    ("n", "s", ""),
    ("n", "ses", "s"),
    ("n", "xes", "x"),
    ("n", "zes", "z"),
    ("n", "ches", "ch"),
    ("n", "shes", "sh"),
    ("n", "ies", "y"),
    ("n", "men", "man"),
    ("v", "s", ""),
    ("v", "ies", "y"),
    ("v", "es", "e"),
    ("v", "es", ""),
    ("v", "ed", "e"),
    ("v", "ed", ""),
    ("v", "ing", "e"),
    ("v", "ing", ""),
    ("a", "er", ""),
    ("a", "est", ""),
    ("a", "er", "e"),
    ("a", "est", "e"),
)


def load_stopwords(path) -> frozenset:
    """Read a stopword file: UTF-8, one token per line, '#' comments."""
    words = set()
    with open_utf8(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            words.add(line)
    return frozenset(words)


def load_exceptions(path) -> dict:
    """Read an exceptions file: UTF-8, tab-separated "form<TAB>lemma" lines."""
    exceptions = {}
    with open_utf8(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError("expected 'form<TAB>lemma'", path=str(path), line=lineno)
            form, lemma = parts
            if " " in lemma or "_" in lemma:
                raise ParseError(f"lemma is not a single token: {lemma!r}",
                                 path=str(path), line=lineno)
            exceptions[form] = lemma
    return exceptions


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset:
    ref = resources.files("vecfuse") / "data" / "stopwords_en.txt"
    with resources.as_file(ref) as path:
        return load_stopwords(path)


@lru_cache(maxsize=1)
def default_rules() -> LemmaRuleSet:
    ref = resources.files("vecfuse") / "data" / "lemma_exceptions_en.txt"
    with resources.as_file(ref) as path:
        return LemmaRuleSet(rules=DEFAULT_RULES, exceptions=load_exceptions(path))


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list:
    """Split on whitespace and underscores, detaching edge punctuation.

    Tokens that are nothing but punctuation are dropped. Each surviving
    token is casefolded and NFC-normalized.
    """
    if text.isascii():
        # ASCII is already NFC, and casefold is lower on it
        return [core.lower() for core in map(_strip_punctuation,
                                             text.replace("_", " ").split()) if core]
    text = unicodedata.normalize("NFC", text).replace("_", " ")
    tokens = []
    for chunk in text.split():
        core = _strip_punctuation(chunk)
        if core:
            tokens.append(unicodedata.normalize("NFC", core.casefold()))
    return tokens


def lemmatize(token: str, rules: LemmaRuleSet | None = None,
              vocab=None) -> str:
    """Reduce an inflected lowercase token to its root form.

    The exception map wins outright. Otherwise the first suffix rule whose
    candidate is in `vocab` (or, with no vocab, at least 2 characters long)
    applies; failing that the token is returned unchanged.
    """
    if rules is None:
        rules = default_rules()
    hit = rules.exceptions.get(token)
    if hit is not None:
        return hit
    if not token.endswith(rules.suffixes):
        return token
    for _pos, suffix, replacement in rules.rules:
        if not token.endswith(suffix):
            continue
        candidate = token[: len(token) - len(suffix)] + replacement
        if vocab is not None:
            if candidate in vocab:
                return candidate
        elif len(candidate) >= 2:
            return candidate
    return token


def _is_own_label(text: str, language: str, rules: LemmaRuleSet) -> bool:
    """Whether `text` is one plain token that no stopword list removes and
    no lemma rule reaches, so that it is its own label text in `language`
    (a valid language tag)."""
    return _PLAIN_RE.fullmatch(text) is not None and (
        language != "en" or (text not in rules.exceptions
                             and not text.endswith(rules.suffixes)))


def standardize(text: str, language: str, rules: LemmaRuleSet | None = None,
                stopwords=None, vocab=None) -> StandardLabel:
    """Transform a raw surface string into its standardized label.

    Tokenization, casefolding, stopword removal (multi-token phrases only,
    never down to zero tokens) and English lemmatization, in that order.
    The stopword/lemmatize stage is re-applied until the token list is
    stable so that standardizing a rendered label reproduces it exactly.
    Both the plain-text shortcut and the full path build the result with
    `StandardLabel`, whose checks reject a text that is not a label.
    """
    validate_language(language)
    if rules is None:
        rules = default_rules()
    if _is_own_label(text, language, rules):
        return StandardLabel(language, text)
    if stopwords is None:
        stopwords = default_stopwords()
    tokens = tokenize(text)
    if not tokens:
        raise EmptyAfterNormalization(f"nothing remains of {text!r}")
    for _ in range(_MAX_NORMALIZE_PASSES):
        changed = False
        if len(tokens) > 1:
            kept = [t for t in tokens if t not in stopwords]
            if kept and len(kept) != len(tokens):
                tokens = kept
                changed = True
        if language == "en":
            lemmas = [lemmatize(t, rules, vocab) for t in tokens]
            if lemmas != tokens:
                tokens = lemmas
                changed = True
            # Lemmatization can expose punctuation at a token edge;
            # re-strip so the rendered label re-standardizes to itself.
            stripped = [s for s in (_strip_punctuation(t) for t in tokens) if s]
            if stripped != tokens:
                if not stripped:
                    raise EmptyAfterNormalization(f"nothing remains of {text!r}")
                tokens = stripped
                changed = True
        if not changed:
            break
    joined = "_".join(tokens)
    # most raw words are their own label text: keep one copy of the string
    return StandardLabel(language, text if joined == text else joined)


def map_digit_runs(text: str) -> str:
    """Collapse every maximal ASCII digit run to '#' (word2vec convention)."""
    return _DIGIT_RUN_RE.sub("#", text)


class Standardizer:
    """Bundles a rule set, stopword list and optional validity vocabulary,
    and memoises each (text, language) result in one memo of its own,
    freed with it: in a pipeline run, each stage that standardizes builds
    one (`pipeline.stage_standardizer`) and frees it with the stage.
    Errors are not memoised: a bad input raises on every call."""

    def __init__(self, rules: LemmaRuleSet | None = None, stopwords=None,
                 vocab=None):
        self.rules = rules if rules is not None else default_rules()
        self.stopwords = stopwords if stopwords is not None else default_stopwords()
        self.vocab = vocab
        self._memo = {}

    def standardize(self, text: str, language: str) -> StandardLabel:
        label = self._memo.get((text, language))
        if label is None:
            label = self._memo[text, language] = standardize(
                text, language, rules=self.rules, stopwords=self.stopwords,
                vocab=self.vocab)
        return label

    def uri(self, text: str, language: str) -> str:
        return self.standardize(text, language).uri

    def uris(self, texts, language: str | None = None) -> list:
        """The URI of each of `texts` standardized in `language`, or, with
        no language, of each `/c/<language>/<text>` URI in `texts`
        standardized in its own language. A text that fails with
        `EmptyAfterNormalization` or `ValueError` gives None; an invalid
        language raises, a given `language` even with no texts. A text
        that is its own label is answered here; every other one goes to
        `standardize`."""
        rules = self.rules
        # languages already checked
        valid = set() if language is None else {validate_language(language)}
        out = []
        for raw in texts:
            if language is None:
                try:
                    lang, text = split_uri(raw)
                except ValueError:
                    out.append(None)
                    continue
            else:
                lang, text = language, raw
            if lang not in valid:
                valid.add(validate_language(lang))
            if _is_own_label(text, lang, rules):
                out.append(raw if language is None else f"/c/{lang}/{text}")
                continue
            try:
                out.append(self.standardize(text, lang).uri)
            except (EmptyAfterNormalization, ValueError):
                out.append(None)
        return out
