"""Figures: every CSV committed under figures/out/ is what its figure function
in demos/make_figures.py writes today, the Monte Carlo markers of the
SEP-versus-SNR figure agree with its exact curve, the SEP-versus-q_1 figure's
three omega curves coincide, and the error floor falls as m grows."""
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


def test_sep_vs_c_minimum_is_omega_invariant(render):
    # at fixed omega * SNR, scaling omega only rescales the boundary by sqrt(omega):
    # every row of q1 / sqrt(omega) has one SEP for all three omegas, and so does the minimum
    rows = list(csv.DictReader(io.StringIO(render("fig_sep_vs_c").decode())))
    curves = {}
    for r in rows:
        curves.setdefault(float(r["omega"]), []).append((float(r["q1_over_sqrt_omega"]),
                                                         float(r["sep"])))
    assert sorted(curves) == [0.5, 1.0, 2.0]
    first, *others = curves.values()
    assert len(first) == 120
    for curve in others:
        assert [q for q, _ in curve] == [q for q, _ in first]
        assert [sep for _, sep in curve] == pytest.approx([sep for _, sep in first],
                                                          rel=1e-12, abs=0)
        assert min(curve, key=lambda p: p[1])[0] == min(first, key=lambda p: p[1])[0]


def test_error_floor_falls_with_m(render):
    # milder fading lowers the optimized noiseless floor: at each resolution,
    # log2_floor strictly decreases over the figure's 15 values of m
    rows = list(csv.DictReader(io.StringIO(render("fig_error_floor_shape").decode())))
    for bits in (2, 3, 4):
        curve = [(float(r["m"]), float(r["log2_floor"])) for r in rows if float(r["bits"]) == bits]
        assert len(curve) == 15 and curve == sorted(curve)
        floors = [floor for _, floor in curve]
        assert all(a > b for a, b in zip(floors, floors[1:])), bits
