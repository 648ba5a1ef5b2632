"""README examples stay true to the library: the config file example parses,
the library snippet runs and does what its comments say, and the model
directory listing names the files save_model writes."""

import json
import re
import warnings
from pathlib import Path

import numpy as np

from kmsa import KmsaConfig, NonMonotoneWarning, fit, generate_synthetic, save_model

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


def test_model_directory_bullets_name_every_file_save_model_writes(tmp_path):
    section = README.split("### Model directory\n", 1)[1].split("\n### ", 1)[0]
    names = re.findall(r"^- `([^`]+)`", section, re.M)
    data = generate_synthetic(classes=2, per_class=4, informative_views=2, noise_views=0)
    model = fit(data, KmsaConfig(d=2, max_iters=1, ridge=1e-2, center_kernel=True),
                learn_weights=False)
    save_model(model, tmp_path / "m", train_data=data)
    listed = {name.replace("<v>", str(v)).rstrip("/") for name in names for v in (1, 2)}
    assert listed == {p.name for p in (tmp_path / "m").iterdir()}
