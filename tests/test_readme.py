"""README examples stay true to the library: the config file example parses,
and the library snippet runs and does what its comments say."""

import json
import re
import warnings
from pathlib import Path

import numpy as np

from kmsa import KmsaConfig, NonMonotoneWarning

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under a README heading."""
    section = README.split(heading + "\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S)[1]


def test_config_file_example_parses():
    doc = json.loads(code_block("### Config file", "json"))
    cfg = KmsaConfig.from_dict(doc)
    assert cfg.to_dict()["graph"]["kind"] == doc["graph"]["kind"] == "lpp"


def test_library_snippet_runs_and_transform_reproduces_embeddings(capsys):
    namespace = {}
    with warnings.catch_warnings():
        # the README's learned-weight lpp fit may rise on a sweep
        warnings.simplefilter("ignore", NonMonotoneWarning)
        exec(code_block("## Library", "python"), namespace)
    model, embedded = namespace["model"], namespace["embedded"]
    assert len(embedded) == len(model.embeddings) == 4
    for Y, Z in zip(model.embeddings, embedded):
        assert np.array_equal(Y, Z)
    assert int(np.argmin(model.alpha)) == 3  # the noise view, as the comment says
    assert len(capsys.readouterr().out.splitlines()) == 3
