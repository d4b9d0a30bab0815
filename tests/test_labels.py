import itertools
import random
import sys
import unicodedata

import pytest

from vecfuse import labels
from vecfuse.errors import EmptyAfterNormalization, InvalidLanguage, ParseError
from vecfuse.labels import (
    LemmaRuleSet,
    StandardLabel,
    Standardizer,
    default_rules,
    default_stopwords,
    lemmatize,
    load_exceptions,
    load_stopwords,
    map_digit_runs,
    split_uri,
    standardize,
    tokenize,
    validate_language,
)

# Regular inflections the shipped rule table must handle when the lemma
# vocabulary is available (built from a public inflection list).
INFLECTION_PAIRS = [
    ("cats", "cat"), ("dogs", "dog"), ("cars", "car"), ("books", "book"),
    ("trees", "tree"), ("ideas", "idea"), ("rivers", "river"), ("tables", "table"),
    ("houses", "house"), ("examples", "example"), ("gives", "give"),
    ("makes", "make"), ("runs", "run"), ("walks", "walk"), ("plays", "play"),
    ("buses", "bus"), ("gases", "gas"), ("lenses", "lens"), ("viruses", "virus"),
    ("bonuses", "bonus"), ("boxes", "box"), ("foxes", "fox"), ("taxes", "tax"),
    ("fixes", "fix"), ("mixes", "mix"), ("buzzes", "buzz"), ("waltzes", "waltz"),
    ("churches", "church"), ("watches", "watch"), ("beaches", "beach"),
    ("matches", "match"), ("branches", "branch"), ("wishes", "wish"),
    ("brushes", "brush"), ("crashes", "crash"), ("bushes", "bush"),
    ("flashes", "flash"), ("flies", "fly"), ("cities", "city"), ("babies", "baby"),
    ("armies", "army"), ("stories", "story"), ("parties", "party"),
    ("women", "woman"), ("firemen", "fireman"), ("policemen", "policeman"),
    ("goes", "go"), ("does", "do"), ("echoes", "echo"), ("heroes", "hero"),
    ("potatoes", "potato"), ("tomatoes", "tomato"), ("saved", "save"),
    ("loved", "love"), ("moved", "move"), ("closed", "close"), ("hoped", "hope"),
    ("used", "use"), ("walked", "walk"), ("played", "play"), ("jumped", "jump"),
    ("asked", "ask"), ("helped", "help"), ("making", "make"), ("giving", "give"),
    ("taking", "take"), ("writing", "write"), ("moving", "move"),
    ("walking", "walk"), ("playing", "play"), ("reading", "read"),
    ("singing", "sing"), ("sleeping", "sleep"), ("taller", "tall"),
    ("smaller", "small"), ("faster", "fast"), ("older", "old"),
    ("tallest", "tall"), ("smallest", "small"), ("fastest", "fast"),
    ("oldest", "old"), ("nicer", "nice"), ("larger", "large"), ("wider", "wide"),
    ("closer", "close"), ("nicest", "nice"), ("largest", "large"),
    ("widest", "wide"),
]

FUZZ_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "  __-'.,!?#$%&()[]/\\:;@"
    "àéîõüÅßÆœçñ" "αβγΔΩλΠ" "абвгдеЖЗ" "日本語中文한국" "́̈̊"
)


def random_strings(count, seed=42, alphabet=FUZZ_ALPHABET, max_len=24):
    rand = random.Random(seed)
    return ["".join(rand.choice(alphabet) for _ in range(rand.randint(1, max_len)))
            for _ in range(count)]


class TestLanguageTag:
    def test_valid(self):
        assert validate_language("en") == "en"
        assert validate_language("fra") == "fra"

    @pytest.mark.parametrize("bad", ["", "EN", "e", "engl", "e1", "en ", "日本"])
    def test_invalid(self, bad):
        with pytest.raises(InvalidLanguage):
            validate_language(bad)


class TestStandardLabel:
    def test_uri_render_and_parse(self):
        label = StandardLabel(language="en", text="give_example")
        assert label.uri == "/c/en/give_example"
        assert StandardLabel.from_uri("/c/en/give_example") == label

    def test_invariants(self):
        with pytest.raises(ValueError):
            StandardLabel(language="en", text="a__b")
        with pytest.raises(ValueError):
            StandardLabel(language="en", text="_a")
        with pytest.raises(ValueError):
            StandardLabel(language="en", text="Upper")
        with pytest.raises(EmptyAfterNormalization):
            StandardLabel(language="en", text="")
        with pytest.raises(InvalidLanguage):
            StandardLabel(language="English", text="a")

    def test_split_uri_keeps_slashes_in_text(self):
        assert split_uri("/c/en/and/or") == ("en", "and/or")
        label = StandardLabel.from_uri("/c/en/ac/dc")
        assert (label.language, label.text, label.uri) == ("en", "ac/dc", "/c/en/ac/dc")

    @pytest.mark.parametrize("uri", ["/x/en/a", "/c/en", "c/en/a", ""])
    def test_split_uri_rejects_bad_shape(self, uri):
        with pytest.raises(ValueError, match="not a /c/<language>/<text> uri"):
            split_uri(uri)

    def test_uri_injective_on_fixtures(self):
        seen = {}
        for lang, text in [("en", "a_b"), ("en", "a"), ("fr", "a"), ("en", "ab")]:
            uri = StandardLabel(language=lang, text=text).uri
            assert uri not in seen
            seen[uri] = (lang, text)


class TestTokenize:
    def test_splits_whitespace_and_underscores(self):
        assert tokenize("New_York  city") == ["new", "york", "city"]

    def test_detaches_edge_punctuation(self):
        assert tokenize("'hello,' (world)!") == ["hello", "world"]

    def test_keeps_interior_punctuation(self):
        assert tokenize("don't self-aware") == ["don't", "self-aware"]

    def test_drops_standalone_punctuation(self):
        assert tokenize("a . , ! b") == ["a", "b"]

    def test_casefolds(self):
        assert tokenize("Straße") == ["strasse"]


class TestStandardize:
    def test_golden_giving_an_example(self):
        assert standardize("Giving an example", "en").uri == "/c/en/give_example"

    def test_golden_new_york_city(self):
        assert standardize("New York City", "en").uri == "/c/en/new_york_city"

    def test_golden_polish_case_collision(self):
        assert standardize("Polish", "en") == standardize("polish", "en")
        assert standardize("polish", "en").uri == "/c/en/polish"

    def test_golden_dry_dried_collision(self):
        assert standardize("dried", "en") == standardize("dry", "en")
        assert standardize("dried", "en").uri == "/c/en/dry"

    def test_stopwords_only_phrase_kept_whole(self):
        assert standardize("of the", "en").uri == "/c/en/of_the"

    def test_single_token_stopword_never_removed(self):
        assert standardize("the", "en").uri == "/c/en/the"

    def test_non_english_skips_lemmatization(self):
        assert standardize("chats", "fr").uri == "/c/fr/chats"

    def test_empty_raises(self):
        with pytest.raises(EmptyAfterNormalization):
            standardize("  ...  ", "en")
        with pytest.raises(EmptyAfterNormalization):
            standardize("   ", "en")

    def test_invalid_language_raises(self):
        with pytest.raises(InvalidLanguage):
            standardize("cat", "EN")

    def test_idempotent_on_rendered_text(self):
        for text in ["Giving an example", "New York City", "the dogs' bones",
                     "of the", "a_b", "big ofs", "dress"]:
            first = standardize(text, "en")
            again = standardize(first.text, "en")
            assert again == first

    def test_case_collapse(self):
        for text in ["MiXeD CaSe", "ÉTÉ chaud", "ABC_DEF"]:
            assert standardize(text, "en") == standardize(text.lower(), "en")

    def test_idempotence_fuzz_small(self):
        std = Standardizer()
        for s in random_strings(3000, seed=7):
            try:
                first = std.standardize(s, "en")
            except EmptyAfterNormalization:
                continue
            assert std.standardize(first.text, "en") == first

    def test_deterministic(self):
        assert standardize("Running dogs", "en") == standardize("Running dogs", "en")


class TestLemmatize:
    def test_exceptions_take_precedence(self):
        assert lemmatize("dried") == "dry"
        assert lemmatize("went") == "go"

    def test_no_rule_matches(self):
        assert lemmatize("polish") == "polish"

    def test_first_matching_rule_without_vocab(self):
        assert lemmatize("examples") == "example"
        # bare suffix match is rejected when the candidate is too short
        assert lemmatize("as") == "as"
        assert lemmatize("s") == "s"

    def test_vocab_gates_candidates(self):
        assert lemmatize("boxes", vocab={"box"}) == "box"
        assert lemmatize("boxes", vocab={"nothing"}) == "boxes"
        # without vocab the first >=2 character candidate wins
        assert lemmatize("boxes") == "boxe"

    def test_inflection_table(self):
        vocab = frozenset(lemma for _form, lemma in INFLECTION_PAIRS)
        for form, lemma in INFLECTION_PAIRS:
            assert lemmatize(form, vocab=vocab) == lemma, form

    def test_output_nonempty_and_pure(self):
        rules = default_rules()
        for s in random_strings(500, seed=3, alphabet="abcdefgs", max_len=8):
            out = lemmatize(s, rules)
            assert len(out) >= 1
            assert out == lemmatize(s, rules)

    def test_rule_termination_invariant(self):
        with pytest.raises(ValueError):
            LemmaRuleSet(rules=(("n", "s", "sses"),))


class TestRuleFiles:
    def test_load_stopwords(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\nbar\n\n", encoding="utf-8")
        assert load_stopwords(path) == {"foo", "bar"}

    def test_load_exceptions(self, tmp_path):
        path = tmp_path / "exc.txt"
        path.write_text("# comment\nran\trun\nmice\tmouse\n", encoding="utf-8")
        assert load_exceptions(path) == {"ran": "run", "mice": "mouse"}

    def test_load_exceptions_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "exc.txt"
        path.write_text("just-one-field\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_exceptions(path)

    def test_defaults_available(self):
        assert "the" in default_stopwords()
        assert default_rules().exceptions["dried"] == "dry"


class TestDigitRuns:
    def test_maps_maximal_runs(self):
        assert map_digit_runs("abc123def45") == "abc#def#"
        assert map_digit_runs("2024") == "#"
        assert map_digit_runs("none") == "none"


class TestStandardizerMemo:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = labels.standardize

        def counting(text, language, **kwargs):
            seen.append((text, language))
            return real(text, language, **kwargs)

        monkeypatch.setattr(labels, "standardize", counting)
        return seen

    def test_repeat_call_is_memoised(self, calls):
        std = Standardizer()
        first = std.standardize("Running Dogs", "en")
        assert std.standardize("Running Dogs", "en") == first
        assert std.uri("Running Dogs", "en") == first.uri
        assert calls == [("Running Dogs", "en")]
        std.standardize("Running Dogs", "fr")
        assert calls == [("Running Dogs", "en"), ("Running Dogs", "fr")]

    def test_memo_is_per_instance(self, calls):
        Standardizer().standardize("cats", "en")
        Standardizer().standardize("cats", "en")
        assert len(calls) == 2

    def test_errors_are_not_memoised(self, calls):
        std = Standardizer()
        for _ in range(2):
            with pytest.raises(EmptyAfterNormalization):
                std.standardize("!!!", "en")
        assert calls == [("!!!", "en"), ("!!!", "en")]
        shared = std.with_vocab(set())
        for _ in range(2):
            with pytest.raises(InvalidLanguage):
                shared.standardize("dog", "EN")
        assert len(calls) == 4

    def test_results_no_vocabulary_decides_are_shared(self, calls):
        rules = Standardizer()
        for vocab in ({"cat"}, set(), None):
            std = rules.with_vocab(vocab)
            assert std.uri("Big Dogs", "fr") == "/c/fr/big_dogs"
            assert std.uri("dog", "en") == "/c/en/dog"
            assert std.uri("went", "en") == "/c/en/go"  # an exception entry
        assert calls == [("Big Dogs", "fr"), ("dog", "en"), ("went", "en")]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_vocabulary_boundary(self, calls, order):
        """`cats` reaches the vocabulary check, so each vocabulary decides
        its own result, in whichever order the standardizers run."""
        rules = Standardizer()
        cases = [({"cat"}, "/c/en/cat"), (set(), "/c/en/cats"), (None, "/c/en/cat")]
        stds = [rules.with_vocab(vocab) for vocab, _want in cases]
        for _ in range(2):
            for i in order:
                assert stds[i].uri("cats", "en") == cases[i][1]
                assert stds[i].uri("Cats!", "en") == cases[i][1]
        assert len(calls) == 6  # two texts per standardizer, each once


# Reference versions of the label checks, tokenizer and lemmatizer as they
# were before their ASCII fast paths: one code path for every string.
def reference_label_check(language, text):
    validate_language(language)
    if not text:
        raise EmptyAfterNormalization("label text is empty")
    for token in text.split("_"):
        if not token:
            raise ValueError(f"empty token in label text: {text!r}")
    if any(ch.isspace() for ch in text):
        raise ValueError(f"whitespace in label text: {text!r}")
    if any(ch.isupper() or unicodedata.category(ch) == "Lt" for ch in text):
        raise ValueError(f"uppercase in label text: {text!r}")


def reference_tokenize(text):
    text = unicodedata.normalize("NFC", text).replace("_", " ")
    tokens = []
    for chunk in text.split():
        core = labels._strip_punctuation(chunk)
        if core:
            tokens.append(unicodedata.normalize("NFC", core.casefold()))
    return tokens


def reference_lemmatize(token, rules, vocab=None):
    hit = rules.exceptions.get(token)
    if hit is not None:
        return hit
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


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the differential compares any failure
        return type(exc), str(exc)


TRICKY = [
    "ǅ", "ǆungla", "ß", "Straße", "İstanbul", "i\u0307", "\x1c", "a\x1cb", "a\x1fb",
    "_", "_a", "a_", "a__b", "__", "a_b", "a b", "a\tb", "A", "aB", "New York",
    " Mixed  CASE\n", "ÉCOLE", "\u00e9cole", "e\u0301cole", "\ufb01sh", "Σίσυφος",
    "cats", "CATS", "dogs_and_cats", "…", "¡hola!", "it's", "'quoted'", "x",
    "a\u00a0b", "a\u3000b", "Ⅻ", "ǈ", "naïve_Café", "bus", "ss", "s", "",
    "running", "flies", "women", "women's", "ABC_def", "1999", "#", "r&d",
]


class TestAsciiFastPaths:
    """The ASCII branches give the same labels, tokens and lemmas, and the
    same exception types and messages, as the one-path references."""

    @pytest.mark.parametrize("text", TRICKY)
    def test_label_check_matches_reference(self, text):
        for language in ("en", "fr", "EN"):
            got = outcome(lambda: StandardLabel(language, text).text)
            want = outcome(lambda: reference_label_check(language, text) or text)
            assert got == want

    @pytest.mark.parametrize("text", TRICKY)
    def test_tokenize_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @pytest.mark.parametrize("text", TRICKY)
    def test_lemmatize_matches_reference(self, text):
        rules = default_rules()
        for token in reference_tokenize(text) + [text]:
            for vocab in (None, {"cat", "fly", "woman", "bu", "runn", "s"}):
                assert lemmatize(token, rules, vocab) == \
                    reference_lemmatize(token, rules, vocab)
        bare = LemmaRuleSet()
        assert lemmatize(text, bare) == reference_lemmatize(text, bare)

    @pytest.mark.parametrize("text", TRICKY)
    def test_standardize_matches_reference(self, text, monkeypatch):
        got = outcome(lambda: standardize(text, "en").uri)
        monkeypatch.setattr(labels, "tokenize", reference_tokenize)
        monkeypatch.setattr(labels, "lemmatize", reference_lemmatize)
        monkeypatch.setattr(StandardLabel, "__post_init__",
                            lambda self: reference_label_check(self.language, self.text))
        want = outcome(lambda: standardize(text, "en", rules=default_rules()).uri)
        assert got == want

    def test_whitespace_regex_is_isspace_on_every_code_point(self):
        # the label check relies on this for non-ASCII text too
        differ = [cp for cp in range(sys.maxunicode + 1)
                  if (labels._SPACE_RE.match(chr(cp)) is not None) != chr(cp).isspace()]
        assert differ == []
