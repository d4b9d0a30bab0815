"""The README's code examples run as written, and its CLI block matches the parser."""

import argparse
import itertools
import re
from pathlib import Path

import numpy as np

from vecfuse import cli

README = Path(__file__).parents[1] / "README.md"

GLOVE = """\
cat 0.8 0.2 0.1
Cats 0.7 0.3 0.1
dog 0.6 0.4 0.2
fish 0.5 0.5 0.3
stone 0.4 0.6 0.4
"""

# every pair of five terms: each is on 4 edges, the English minimum
# `filter_terms` keeps by default; `rock` is a graph-only term
CONCEPTNET = "".join(f"/c/en/{a}\t/c/en/{b}\t1.0\tomcs\n" for a, b in
                     itertools.combinations(["cat", "dog", "fish", "stone", "rock"], 2))

GOLD = """\
cat dog 6.0
dog fish 5.0
cat fish 4.0
fish stone 3.0
dog stone 2.0
cats rock 1.5
stone tree 1.0
"""


def test_library_use_block_runs(tmp_path, monkeypatch):
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    for name, text in (("glove.txt", GLOVE), ("conceptnet.tsv", CONCEPTNET),
                       ("rw-3col.txt", GOLD)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(blocks[0], scope)
    # `Cats` merges into the `cat` row; the graph adds `rock`
    assert scope["matrix"].labels == ["/c/en/cat", "/c/en/dog", "/c/en/fish",
                                      "/c/en/stone"]
    assert scope["retrofitted"].labels == scope["matrix"].labels + ["/c/en/rock"]
    assert np.isfinite(scope["retrofitted"].data).all()
    reports = scope["reports"]
    assert [(r.dataset, r.split) for r in reports] == [
        ("rw", "dev"), ("rw", "test"), ("rw", "all")]
    assert [r.n for r in reports] == [5, 2, 7]
    # only `tree` is missing
    assert reports[-1].oov_fraction == 1 / 7


def test_cli_block_matches_the_parser():
    """Each line of the README's CLI block parses with and without its
    optional `[...]` parts, and names a subcommand; each subcommand of the
    parser has exactly one line."""
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"## CLI\n\n```\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    parser = cli.build_parser()
    commands = []
    for line in blocks[0].splitlines():
        program, *required = re.sub(r"\[[^]]*\]", " ", line).split()
        optional = " ".join(re.findall(r"\[([^]]*)\]", line)).split()
        assert program == "vecfuse", line
        for argv in (required, required + optional):
            assert parser.parse_args(argv).command == required[0], line
        commands.append(required[0])
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert sorted(commands) == sorted(subcommands)
