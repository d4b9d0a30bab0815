import json

import pytest

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

    def test_eval_needs_some_path(self):
        raw = minimal_config()
        raw["evaluations"] = [{"id": "x"}]
        with pytest.raises(ConfigError):
            config_from_dict(raw)

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


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config()), encoding="utf-8")
        assert load_config(path).enabled_embeddings()[0].id == "alpha"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)
