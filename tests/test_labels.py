import dataclasses
import itertools
import random
import re
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

    def test_uri_is_derived_not_compared(self):
        label = StandardLabel(language="en", text="area_#")
        plain = standardize("cats", "fr")  # the plain-text shortcut
        assert plain.uri == "/c/fr/cats"
        assert plain == StandardLabel("fr", "cats")
        assert hash(plain) == hash(StandardLabel("fr", "cats"))
        assert [f.name for f in dataclasses.fields(label) if f.compare] == \
            ["language", "text"]
        assert repr(label) == "StandardLabel(language='en', text='area_#')"
        moved = dataclasses.replace(label, text="area_1")
        assert (moved.uri, str(moved)) == ("/c/en/area_1", "/c/en/area_1")
        assert dataclasses.replace(label, language="fr").uri == "/c/fr/area_#"
        with pytest.raises(TypeError):
            StandardLabel(language="en", text="a", uri="/c/en/b")

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
        path.write_text("# comment\nran\trun\nmice\tmouse\nxx\t!!\n", encoding="utf-8")
        exceptions = load_exceptions(path)
        assert exceptions == {"ran": "run", "mice": "mouse", "xx": "!!"}
        # a lemma of punctuation only leaves nothing of its word
        rules = LemmaRuleSet(rules=default_rules().rules, exceptions=exceptions)
        with pytest.raises(EmptyAfterNormalization, match="nothing remains of 'xx'"):
            standardize("xx", "en", rules=rules)
        assert Standardizer(rules=rules).uris(["xx", "ran"], "en") == [None, "/c/en/run"]

    def test_load_exceptions_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "exc.txt"
        path.write_text("just-one-field\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_exceptions(path)

    @pytest.mark.parametrize("lemma", ["mouse trap", "mouse_trap"])
    def test_load_exceptions_rejects_a_multi_token_lemma(self, tmp_path, lemma):
        path = tmp_path / "exc.txt"
        path.write_text(f"ran\trun\nmice\t{lemma}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="not a single token") as err:
            load_exceptions(path)
        assert (err.value.path, err.value.line) == (str(path), 2)

    @pytest.mark.parametrize("load, content", [
        (load_stopwords, b"# comment\rfoo\n\xff\n"),
        (load_exceptions, b"# comment\nran\trun\nmice\tmo\xc3use\n"),
    ])
    def test_not_utf8_names_its_line(self, tmp_path, load, content):
        path = tmp_path / "rules.txt"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="not UTF-8") as err:
            load(path)
        assert (err.value.path, err.value.line) == (str(path), 3)

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
        for _ in range(2):
            with pytest.raises(InvalidLanguage):
                std.standardize("dog", "EN")
        assert len(calls) == 4

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_vocabulary_boundary(self, calls, order):
        """`cats` reaches the vocabulary check, so each vocabulary decides
        its own result, in whichever order the standardizers run."""
        cases = [({"cat"}, "/c/en/cat"), (set(), "/c/en/cats"), (None, "/c/en/cat")]
        stds = [Standardizer(vocab=vocab) for vocab, _want in cases]
        for _ in range(2):
            for i in order:
                assert stds[i].uri("cats", "en") == cases[i][1]
                assert stds[i].uri("Cats!", "en") == cases[i][1]
        assert len(calls) == 6  # two texts per standardizer, each once


# Reference versions of the label checks, tokenizer and lemmatizer as they
# were before their ASCII fast paths: one code path for every string.
def reference_label_check(language, text):
    validate_language(language)
    reference_text_check(text)


def reference_text_check(text):
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
    # plain lowercase alphanumeric texts: the standardizer's shortest path
    # where no lemma rule reaches them. A word ending in each rule suffix,
    "buses", "boxes", "buzzes", "churches", "wishes", "cities", "firemen",
    "goes", "walked", "singing", "taller", "tallest", "es", "ed", "ing", "24s",
    # exception forms,
    "went", "was", "ran", "gave",
    # digits, letters with digits, one letter, lone stopwords, plain words
    "42", "0", "mp3", "a1b2", "3d", "a", "i", "7", "the", "of", "and",
    "dog", "tree", "kotama", "cat",
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

    @staticmethod
    def one_path(monkeypatch):
        """Route `standardize` through the reference steps, with no plain
        text shortcut; returns the list of label texts that passed the
        reference check, in check order."""
        checked = []

        def check(text):
            reference_text_check(text)
            checked.append(text)
        monkeypatch.setattr(labels, "_PLAIN_RE", re.compile(r"(?!)"))
        monkeypatch.setattr(labels, "tokenize", reference_tokenize)
        monkeypatch.setattr(labels, "lemmatize", reference_lemmatize)
        monkeypatch.setattr(labels, "_check_label_text", check)
        return checked

    @pytest.mark.parametrize("text", TRICKY)
    def test_standardize_matches_reference(self, text, monkeypatch):
        languages = ("en", "fr")
        got = [outcome(lambda: standardize(text, lang).uri) for lang in languages]
        checked = self.one_path(monkeypatch)
        want = [outcome(lambda: standardize(text, lang).uri) for lang in languages]
        assert got == want
        # every label the one-path run returns passed the reference check
        assert checked == [split_uri(uri)[1] for ok, uri in want if ok == "ok"]

    @pytest.mark.parametrize("text", TRICKY)
    def test_same_memo_as_reference(self, text, monkeypatch):
        """A Standardizer's memoised label, on its first call and from its
        memo, is the one-path computation's label."""
        vocab = {"cat", "bus", "box", "city", "walk", "tall"}
        std = Standardizer(vocab=vocab)
        languages = ("en", "fr")
        got = [[outcome(lambda: std.standardize(text, lang).uri) for lang in languages]
               for _ in range(2)]
        self.one_path(monkeypatch)
        want = [outcome(lambda: standardize(text, lang, vocab=vocab).uri)
                for lang in languages]
        assert got == [want, want]

    @pytest.mark.parametrize("vocab", [None, {"cat", "bus", "walk", "tall"}])
    def test_bulk_uris_match_uri(self, vocab):
        """`uris` gives what `uri` gives, and None where `uri` raises
        EmptyAfterNormalization or ValueError, for texts and for URIs."""
        def one_by_one(items):
            std = Standardizer(vocab=vocab)
            out = []
            for item in items:
                try:
                    text, language = item if isinstance(item, tuple) else split_uri(item)[::-1]
                    out.append(std.uri(text, language))
                except (EmptyAfterNormalization, ValueError):
                    out.append(None)
            return out

        for language in ("en", "fr"):
            assert Standardizer(vocab=vocab).uris(TRICKY, language) == \
                one_by_one([(text, language) for text in TRICKY])
        raw = [f"/c/{language}/{text}" for text in TRICKY for language in ("en", "fr")]
        raw += ["cat", "", "/c/en", "/x/en/cat", "c/en/cat", "/c/en/a/b"]
        assert Standardizer(vocab=vocab).uris(raw) == one_by_one(raw)

    def test_bulk_uris_reach_standardize_only_for_labels_not_their_own(self, monkeypatch):
        seen = []
        inner = Standardizer.standardize
        monkeypatch.setattr(Standardizer, "standardize",
                            lambda self, text, lang: seen.append(text) or inner(self, text, lang))
        std = Standardizer()
        assert std.uris(["cat", "cats", "Dog", "x1", "ran"], "en") == [
            "/c/en/cat", "/c/en/cat", "/c/en/dog", "/c/en/x1", "/c/en/run"]
        assert std.uris(["/c/fr/chats", "/c/fr/Chat", "/c/en/dog"]) == [
            "/c/fr/chats", "/c/fr/chat", "/c/en/dog"]
        assert seen == ["cats", "Dog", "ran", "Chat"]

    def test_bulk_uris_raise_on_an_invalid_language(self):
        with pytest.raises(InvalidLanguage):
            Standardizer().uris(["cat"], "EN")
        with pytest.raises(InvalidLanguage):
            Standardizer().uris(["/c/en/cat", "/c/english/cat"])
        with pytest.raises(InvalidLanguage):  # a given language, with no text
            Standardizer().uris([], "EN")
        assert Standardizer().uris([], "en") == []

    def test_whitespace_regex_is_isspace_on_every_code_point(self):
        # the label check relies on this for non-ASCII text too
        differ = [cp for cp in range(sys.maxunicode + 1)
                  if (labels._SPACE_RE.match(chr(cp)) is not None) != chr(cp).isspace()]
        assert differ == []
