"""Figures: every CSV committed under figures/out/ is what its figure function
in demos/make_figures.py writes today, and the Monte Carlo markers of the
SEP-versus-SNR figure agree with its exact curve."""
import csv
import functools
import importlib.util
import io
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED = sorted((ROOT / "figures" / "out").glob("fig_*.csv"))


@pytest.fixture(scope="module")
def render(tmp_path_factory):
    """A figure's CSV bytes by function name, each figure rendered once per module
    into a temporary directory."""
    spec = importlib.util.spec_from_file_location("make_figures",
                                                  ROOT / "demos" / "make_figures.py")
    make_figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_figures)
    make_figures.OUT = tmp_path_factory.mktemp("figures")

    @functools.cache
    def render(name):
        make_figures.FIGURES[name]()
        return (make_figures.OUT / f"{name}.csv").read_bytes()
    return render


@pytest.mark.parametrize("committed", COMMITTED, ids=lambda path: path.stem)
def test_committed_csv_is_current(render, committed):
    assert render(committed.stem) == committed.read_bytes()


def test_sep_nakagami_markers_on_exact_curve(render):
    rows = list(csv.DictReader(io.StringIO(render("fig_sep_nakagami").decode())))
    assert list(rows[0]) == ["m", "snr_db", "sep", "q1", "method"]
    exact = {(r["m"], r["snr_db"]): r for r in rows if r["method"] == "closed_form"}
    markers = [r for r in rows if r["method"] == "monte_carlo"]
    assert len(exact) == 3 * 16 and len(markers) == 3 * 4
    n = 200000  # fig_sep_nakagami's trials per marker
    for marker in markers:
        curve = exact[marker["m"], marker["snr_db"]]
        assert marker["q1"] == curve["q1"]
        p = float(curve["sep"])
        stderr = math.sqrt(p * (1.0 - p) / n)
        assert abs(float(marker["sep"]) - p) < 3.0 * stderr, (marker["m"], marker["snr_db"])
