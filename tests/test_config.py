import json
import re
from pathlib import Path

import pytest

from vecfuse import cli
from vecfuse.config import config_from_dict, load_config
from vecfuse.errors import ConfigError


def minimal_config():
    return {
        "schema_version": 1,
        "embeddings": [
            {"id": "alpha", "path": "a.txt", "format": "glove_text"},
        ],
    }


class TestConfigValidation:
    def test_minimal_accepted(self):
        config = config_from_dict(minimal_config())
        assert config.enabled_embeddings()[0].id == "alpha"
        assert config.merge_strategy == "zipf"
        assert config.column_norm == "l1"
        assert config.retrofit_iterations == 10

    def test_schema_version_required(self):
        raw = minimal_config()
        raw["schema_version"] = 2
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        del raw["schema_version"]
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_needs_enabled_embedding(self):
        raw = minimal_config()
        raw["embeddings"][0]["enabled"] = False
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        raw["embeddings"] = []
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_bad_format(self):
        raw = minimal_config()
        raw["embeddings"][0]["format"] = "csv"
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_native_needs_labels_path(self):
        raw = minimal_config()
        raw["embeddings"][0]["format"] = "native"
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        raw["embeddings"][0]["labels_path"] = "a.labels"
        config_from_dict(raw)

    def test_duplicate_ids(self):
        raw = minimal_config()
        raw["embeddings"].append(dict(raw["embeddings"][0]))
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_bad_merge_strategy(self):
        raw = minimal_config()
        raw["merge"] = {"strategy": "median"}
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_bad_column_norm(self):
        raw = minimal_config()
        raw["normalize"] = {"columns": "max"}
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_bad_iterations(self):
        raw = minimal_config()
        raw["retrofit"] = {"iterations": 0}
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("max_words", [0, -1])
    def test_max_words_below_one(self, tmp_path, capsys, max_words):
        """Such a limit would drop every edge of every filtered graph."""
        raw = minimal_config()
        raw["term_filter"] = {"max_words": max_words}
        with pytest.raises(ConfigError, match=r"^term_filter\.max_words must be >= 1$"):
            config_from_dict(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["graph", "--config", str(path), "--out",
                         str(tmp_path / "edges.tsv")]) == cli.EXIT_CONFIG
        assert "term_filter.max_words" in capsys.readouterr().err
        raw["term_filter"] = {"max_words": 1}
        assert config_from_dict(raw).filter_max_words == 1

    @pytest.mark.parametrize("key", ["english", "EN", "", "others"])
    def test_min_count_key_not_a_language(self, tmp_path, capsys, key):
        """A dict replaces the defaults whole, so a misspelt language would
        silently fall back to the `other` threshold."""
        raw = minimal_config()
        raw["term_filter"] = {"min_count": {key: 1}}
        with pytest.raises(ConfigError, match=rf"^term_filter\.min_count key {key!r}: "):
            config_from_dict(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["graph", "--config", str(path), "--out",
                         str(tmp_path / "edges.tsv")]) == cli.EXIT_CONFIG
        assert f"term_filter.min_count key {key!r}" in capsys.readouterr().err
        raw["term_filter"] = {"min_count": {"en": 1, "fra": 2, "other": 5}}
        assert config_from_dict(raw).filter_min_count == {"en": 1, "fra": 2, "other": 5}

    def test_graphs_require_standardization(self):
        raw = minimal_config()
        raw["graphs"] = [{"id": "g", "path": "edges.tsv"}]
        raw["standardize"] = {"enabled": False}
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        raw["graphs"][0]["enabled"] = False
        config_from_dict(raw)

    def test_bad_eval_split(self):
        raw = minimal_config()
        raw["evaluations"] = [{"id": "x", "path": "g.txt", "splits": ["holdout"]}]
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("splits", [[], ["dev", "dev"]])
    def test_eval_splits_empty_or_repeated(self, splits):
        raw = minimal_config()
        raw["evaluations"] = [{"id": "x", "path": "g.txt", "splits": splits}]
        with pytest.raises(ConfigError, match="^dataset x: splits must be non-empty"):
            config_from_dict(raw)

    @pytest.mark.parametrize("num_chunks, ok", [(1, False), (2, True)])
    def test_dev_split_needs_two_chunks(self, num_chunks, ok):
        """With one chunk the test chunk is every pair, so dev is always
        empty."""
        raw = minimal_config()
        raw["evaluations"] = [{"id": "simlex", "path": "g.txt", "splits": ["all", "dev"],
                               "num_chunks": num_chunks, "test_chunk": 1}]
        if ok:
            assert config_from_dict(raw).evaluations[0].num_chunks == 2
            return
        with pytest.raises(ConfigError, match="^dataset simlex: the dev split is empty "
                                              "unless num_chunks >= 2$"):
            config_from_dict(raw)
        raw["evaluations"][0]["splits"] = ["all", "test"]
        assert config_from_dict(raw).evaluations[0].num_chunks == 1

    def test_eval_needs_some_path(self):
        raw = minimal_config()
        raw["evaluations"] = [{"id": "x"}]
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value", [("path", "g.txt"), ("splits", ["test"]),
                                            ("num_chunks", 5), ("test_chunk", 1)])
    @pytest.mark.parametrize("partition", [["dev_path"], ["test_path"],
                                           ["dev_path", "test_path"]],
                             ids=["dev", "test", "both"])
    def test_partition_dataset_rejects_round_robin_keys(self, key, value, partition):
        """A dataset with published partition files has no round robin, so
        a round-robin setting would be ignored."""
        raw = minimal_config()
        raw["evaluations"] = [{"id": "men", key: value,
                               **{name: name + ".txt" for name in partition}}]
        with pytest.raises(ConfigError, match=f"^dataset men: {key} cannot be combined "
                                              "with dev_path/test_path$"):
            config_from_dict(raw)
        del raw["evaluations"][0][key]
        assert config_from_dict(raw).evaluations[0].splits == ("all",)

    def test_partition_dataset_with_splits_exits_1(self, tmp_path, capsys):
        raw = minimal_config()
        raw["evaluations"] = [{"id": "men", "dev_path": "men.dev", "test_path": "men.test",
                               "splits": ["test"], "num_chunks": 5}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "dataset men: splits cannot be combined with dev_path/test_path" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("language", ["english", "EN"])
    def test_bad_language(self, language):
        raw = minimal_config()
        raw["embeddings"][0]["language"] = language
        with pytest.raises(ConfigError, match="embedding source alpha"):
            config_from_dict(raw)
        raw = minimal_config()
        raw["evaluations"] = [{"id": "x", "path": "g.txt", "language": language}]
        with pytest.raises(ConfigError, match="dataset x"):
            config_from_dict(raw)


def with_id(section, value):
    raw = minimal_config()
    if section == "embeddings":
        raw["embeddings"][0]["id"] = value
    elif section == "graphs":
        raw["graphs"] = [{"id": value, "path": "edges.tsv"}]
    else:
        raw["evaluations"] = [{"id": value, "path": "g.txt"}]
    return raw


ID_OWNERS = {"embeddings": "embedding source", "graphs": "graph source",
             "evaluations": "evaluation dataset"}


class TestIds:
    """An id names stage cache files and starts report.tsv rows."""

    @pytest.mark.parametrize("section", ID_OWNERS)
    @pytest.mark.parametrize("value", ["glove/840B", "a\\b", "rw\tall", "a\rb", "a\nb",
                                       "a\0b"],
                             ids=["slash", "backslash", "tab", "cr", "lf", "nul"])
    def test_id_that_breaks_files_is_config_error_naming_it(self, section, value):
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{ID_OWNERS[section]} id {value!r} must not hold")):
            config_from_dict(with_id(section, value))

    @pytest.mark.parametrize("section", ID_OWNERS)
    def test_other_ids_accepted(self, section):
        config_from_dict(with_id(section, "glove.840B-300d_v1 (cased)"))

    @pytest.mark.parametrize("section", ID_OWNERS)
    def test_empty_id(self, section):
        with pytest.raises(ConfigError, match=f"^{ID_OWNERS[section]} needs an id$"):
            config_from_dict(with_id(section, ""))

    def test_slash_in_id_exits_1_with_stage_cache(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(with_id("embeddings", "glove/840B")), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(path),
                         "--stage-cache-dir", str(tmp_path / "cache")]) == cli.EXIT_CONFIG
        assert "embedding source id 'glove/840B' must not hold" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


# (top-level key, value, the setting the error must name)
WRONG_JSON_TYPES = {
    "excluded_sources_string": ("retrofit", {"excluded_sources": "cn"},
                                "retrofit.excluded_sources"),
    "enabled_string": ("standardize", {"enabled": "false"}, "standardize.enabled"),
    "k_float": ("fusion", {"k": 2.5}, "fusion.k"),
    "iterations_bool": ("retrofit", {"iterations": True}, "retrofit.iterations"),
    "min_count_string_value": ("term_filter", {"min_count": {"en": "4"}},
                               "term_filter.min_count"),
    "iterations_string": ("retrofit", {"iterations": "10"}, "retrofit.iterations"),
    "num_chunks_string": ("evaluations", [{"id": "x", "path": "g.txt", "num_chunks": "3"}],
                          "evaluations[0].num_chunks"),
    "section_null": ("standardize", None, "standardize"),
    "embeddings_object": ("embeddings", {"id": "alpha", "path": "a.txt",
                                         "format": "glove_text"}, "embeddings"),
}


class TestJsonTypes:
    @pytest.mark.parametrize("key, value, setting", WRONG_JSON_TYPES.values(),
                             ids=WRONG_JSON_TYPES.keys())
    def test_wrong_type_is_config_error_naming_setting(self, key, value, setting):
        raw = minimal_config()
        raw[key] = value
        with pytest.raises(ConfigError, match="^" + re.escape(setting) + " must be a JSON"):
            config_from_dict(raw)

    def test_readme_example_parses(self):
        """The full example config of the README is accepted as written."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        config = config_from_dict(json.loads(blocks[0]))
        assert [s.id for s in config.enabled_embeddings()] == ["glove", "w2v"]
        assert config.fusion_out_dims == 600 and config.stopwords_path is None
        assert config.filter_min_count == {"en": 4, "other": 3}


def misspelt_iterations(raw):
    raw["retrofit"] = {"iteratons": 3}


def misspelt_language(raw):
    raw["embeddings"][0]["langauge"] = "fr"


def misspelt_section(raw):
    raw["fusoin"] = {"k": 2}


class TestUnknownKeys:
    @pytest.mark.parametrize("misspell, setting", [
        (misspelt_iterations, "retrofit.iteratons"),
        (misspelt_language, "embeddings[0].langauge"),
        (misspelt_section, "fusoin"),
    ])
    def test_unknown_key_is_config_error_naming_it(self, misspell, setting):
        raw = minimal_config()
        misspell(raw)
        with pytest.raises(ConfigError, match="^unknown setting " + re.escape(setting) + "$"):
            config_from_dict(raw)

    def test_unknown_key_exits_1_from_cli(self, tmp_path, capsys):
        raw = minimal_config()
        raw["evaluations"] = [{"id": "x", "path": "g.txt", "drop_oovs": True}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "unknown setting evaluations[0].drop_oovs" in capsys.readouterr().err


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config()), encoding="utf-8")
        assert load_config(path).enabled_embeddings()[0].id == "alpha"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="^config file not found: "):
            load_config(tmp_path / "nope.json")

    def test_directory_exits_1_naming_it(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=re.escape(f"config file {tmp_path}: ")):
            load_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(tmp_path)]) == cli.EXIT_CONFIG
        assert f"cannot read config file {tmp_path}: " in capsys.readouterr().err

    def test_not_utf8_exits_1_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(minimal_config(), indent=1).encode()
                         .replace(b'"alpha"', b'"alph\xe4"'))
        with pytest.raises(ConfigError, match=re.escape(f"{path}:5: not UTF-8")):
            load_config(path)
        assert cli.main(["pipeline", "--config", str(path)]) == cli.EXIT_CONFIG
        assert f"{path}:5: not UTF-8" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)
