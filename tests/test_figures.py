"""Figure recipes: every recipe under figures/ names a generator of
demos/make_figures.py, the Monte Carlo markers of the SEP-versus-SNR
figure agree with its exact curve, the committed CSVs of the quick
recipes are what the generators write today, and a recipe's quantizer kind
is one of the two strings the generators know."""
import csv
import importlib.util
import json
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECIPES = sorted((ROOT / "figures").glob("fig_*.json"))


@pytest.fixture(scope="module")
def make_figures():
    spec = importlib.util.spec_from_file_location("make_figures",
                                                  ROOT / "demos" / "make_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recipes_and_generators_agree(make_figures):
    assert RECIPES
    kinds = set()
    for path in RECIPES:
        cfg = json.loads(path.read_text())
        assert cfg["figure"] == path.stem, path.name
        assert cfg["kind"] in make_figures.KINDS, path.name
        kinds.add(cfg["kind"])
    assert kinds == set(make_figures.KINDS)


def test_sep_nakagami_markers_on_exact_curve(make_figures, tmp_path, monkeypatch):
    # the committed recipe's grid, trial count and seed, for m = 1 only
    cfg = json.loads((ROOT / "figures" / "fig_sep_nakagami.json").read_text())
    cfg["m_list"] = [1]
    monkeypatch.setattr(make_figures, "OUT", tmp_path)
    make_figures.sep_vs_snr_by_m(cfg)
    rendered = (tmp_path / "fig_sep_nakagami.csv").read_bytes().splitlines(keepends=True)
    committed = (ROOT / "figures" / "out" / "fig_sep_nakagami.csv").read_bytes()
    header, *body = committed.splitlines(keepends=True)
    assert rendered == [header] + [row for row in body if row.startswith(b"1.000000000000e+00,")]
    with open(tmp_path / "fig_sep_nakagami.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["m", "snr_db", "sep", "q1", "method"]
    exact = {r["snr_db"]: r for r in rows if r["method"] == "closed_form"}
    markers = [r for r in rows if r["method"] == "monte_carlo"]
    assert len(exact) == 16 and len(markers) == 4
    n = cfg["mc_trials"]
    for marker in markers:
        curve = exact[marker["snr_db"]]
        assert marker["q1"] == curve["q1"]
        p = float(curve["sep"])
        stderr = math.sqrt(p * (1.0 - p) / n)
        assert abs(float(marker["sep"]) - p) < 3.0 * stderr, marker["snr_db"]


@pytest.mark.parametrize("figure", ["fig_sep_vs_c", "fig_error_floor_bits",
                                    "fig_error_floor_shape"])
def test_committed_csv_is_current(make_figures, tmp_path, monkeypatch, figure):
    cfg = json.loads((ROOT / "figures" / f"{figure}.json").read_text())
    monkeypatch.setattr(make_figures, "OUT", tmp_path)
    make_figures.KINDS[cfg["kind"]](cfg)
    committed = ROOT / "figures" / "out" / f"{figure}.csv"
    assert (tmp_path / f"{figure}.csv").read_bytes() == committed.read_bytes()


# a recipe's quantizer kind string becomes the library's uniform= flag; a misspelt one
# is an error naming its key, raised before anything is computed
@pytest.mark.parametrize("figure,key,misspell", [
    ("fig_error_floor_bits", "quantizer_kinds",
     lambda cfg: cfg["quantizer_kinds"].append("unifrom")),
    ("fig_error_floor_shape", "quantizer_kind",
     lambda cfg: cfg.update(quantizer_kind="unifrom")),
    ("fig_div_order", "cases[].quantizer_kind",
     lambda cfg: cfg["cases"][-1].update(quantizer_kind="unifrom")),
])
def test_unknown_quantizer_kind_names_its_key(make_figures, monkeypatch, figure, key,
                                              misspell):
    cfg = json.loads((ROOT / "figures" / f"{figure}.json").read_text())
    misspell(cfg)
    for name in ("optimal_floor_log2", "dvo_experiment"):
        monkeypatch.setattr(make_figures, name, lambda *a, **k: pytest.fail("computed"))
    with pytest.raises(ValueError, match=re.escape(f"recipe key {key}: unknown quantizer "
                                                   f"kind 'unifrom'")):
        make_figures.KINDS[cfg["kind"]](cfg)
