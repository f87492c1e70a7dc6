"""Link-level Monte Carlo: reproducibility, calibration against the
analytic SEP, the noiseless limit (an SNR of +inf), and the
multi-antenna path."""
import csv
import math

import numpy as np
import pytest

from pamq import montecarlo
from pamq import (
    ChannelModel,
    Constellation,
    Quantizer,
    SimSpec,
    floor_geometric,
    sep_closed_form,
    sep_noiseless,
    simulate,
)
from pamq.cli import main
from pamq.system import _schedule_q1

C13 = Constellation((1.0, 3.0))
RAYLEIGH = ChannelModel(1, 1.0)
Q1_STAR = 1.5722206109523074


def make_spec(**kw):
    base = dict(
        constellation=C13,
        quantizer=Quantizer((Q1_STAR,), bits=2),
        channel=RAYLEIGH,
        snr_db=(10.0,),
        trials=100_000,
        seed=11,
    )
    base.update(kw)
    return SimSpec(**base)


class TestDeterminism:
    def test_worker_count_invariance(self):
        spec = make_spec(trials=300_000, batch_size=50_000)
        a = simulate(spec, workers=1)
        b = simulate(spec, workers=4)
        assert [e.errors for e in a] == [e.errors for e in b]

    def test_worker_count_invariance_simo(self):
        spec = make_spec(snr_db=(5.0, 15.0), trials=100_000, batch_size=30_000, n_r=2)
        a = simulate(spec, workers=1)
        b = simulate(spec, workers=2)
        assert [e.errors for e in a] == [e.errors for e in b]

    def test_worker_count_invariance_noiseless(self):
        spec = make_spec(snr_db=(math.inf,), trials=300_000, batch_size=50_000)
        a = simulate(spec, workers=1)
        b = simulate(spec, workers=2)
        assert a == b

    def test_mixed_finite_and_noiseless_grid(self):
        spec = make_spec(snr_db=(10.0, math.inf), trials=60_000, batch_size=25_000)
        a = simulate(spec, workers=1)
        assert a == simulate(spec, workers=2)
        assert a[0] == simulate(make_spec(snr_db=(10.0,), trials=60_000, batch_size=25_000))[0]
        assert a[1].snr_db == math.inf

    def test_rerun_reproduces(self):
        spec = make_spec(trials=200_000, batch_size=30_000)
        a = simulate(spec)
        b = simulate(spec)
        assert a[0].errors == b[0].errors

    def test_seed_sensitivity(self):
        a = simulate(make_spec(seed=1))
        b = simulate(make_spec(seed=2))
        assert a[0].errors != b[0].errors


class TestPinnedCounts:
    """Error counts of fixed specs, captured when the batch used
    rng.choice, np.searchsorted and masked selection. They hold the whole
    chain (draw order, quantizer, both detectors, reduction) to the same
    counts bit for bit."""

    C8 = Constellation((1.0, 3.0, 5.0, 7.0))
    Q3 = Quantizer((0.8, 1.6, 2.4), bits=3)
    Q5 = Quantizer.uniform(0.25, 5)
    Q8_4 = Quantizer(tuple(float(v) for v in range(1, 8)), bits=4)
    SYSTEMS = {
        "siso_b2": dict(),
        "siso_b3": dict(quantizer=Q3),
        "siso_b5": dict(quantizer=Q5, channel=ChannelModel(2, 1.0)),
        "siso_mod8_b4": dict(constellation=C8, quantizer=Q8_4),
        "siso_m1_5_omega2": dict(quantizer=Q3, channel=ChannelModel(1.5, 2.0)),
        "simo_r2_b2": dict(n_r=2),
        "simo_r3_mod8": dict(constellation=C8, quantizer=Quantizer((2.0, 4.0, 6.0), bits=3),
                             n_r=3),
    }
    SIMULATE = {
        "siso_b2": [28498, 14227, 10125, 9911],
        "siso_b3": [27282, 9462, 2759, 2205],
        "siso_b5": [25246, 5323, 182, 9],
        "siso_mod8_b4": [41811, 25095, 9717, 6431],
        "siso_m1_5_omega2": [21532, 5601, 1544, 1328],
        "simo_r2_b2": [22189, 6649, 3400, 3085],
        "simo_r3_mod8": [33854, 12991, 3804, 2884],
    }
    NOISELESS = {"siso_b3": 2174, "siso_mod8_b4": 6265, "siso_b5": 2}

    @pytest.mark.parametrize("name", list(SIMULATE))
    def test_simulate(self, name):
        # 60 000 trials in batches of 25 000: the last batch is partial
        spec = make_spec(snr_db=(0.0, 10.0, 20.0, 30.0), trials=60_000, seed=21,
                         batch_size=25_000, **self.SYSTEMS[name])
        assert [e.errors for e in simulate(spec)] == self.SIMULATE[name]

    @pytest.mark.parametrize("name", list(NOISELESS))
    def test_noiseless(self, name):
        spec = make_spec(snr_db=(math.inf,), trials=60_000, seed=22, batch_size=25_000,
                         **self.SYSTEMS[name])
        assert [e.errors for e in simulate(spec)] == [self.NOISELESS[name]]

    def test_sign_draw_is_choice_stream(self):
        # the batch draws signs as integers(0, 2) * 2 - 1; this must stay
        # the values and stream position of choice([-1, 1])
        ss = np.random.SeedSequence(5, spawn_key=(1, 2))
        a, b = (np.random.Generator(np.random.Philox(ss)) for _ in range(2))
        for n in (1, 7, 1000, 200_001):
            want = a.choice([-1, 1], size=n)
            got = b.integers(0, 2, size=n) * 2 - 1
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert a.integers(0, 2**62) == b.integers(0, 2**62)


class TestSpecValidation:
    @pytest.mark.parametrize("field,value", [
        ("trials", 0), ("n_r", 0), ("batch_size", 0), ("batch_size", -5),
    ])
    def test_rejects_below_one(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            make_spec(**{field: value})

    def test_rejects_negative_seed(self):
        # once accepted here, then refused by NumPy inside the first batch
        with pytest.raises(ValueError, match="seed must be >= 0"):
            make_spec(seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("trials", 1000.5), ("batch_size", 300.5), ("n_r", 2.5), ("seed", 1.0),
        ("trials", True), ("n_r", True),
    ])
    def test_rejects_non_integer(self, field, value):
        # trials=True once ran one trial and wrote True in the CSV
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            make_spec(**{field: value})

    def test_noiseless_wants_one_antenna(self):
        # the product-likelihood rule divides by the noise standard deviation
        with pytest.raises(ValueError, match="n_r = 2"):
            simulate(make_spec(snr_db=(10.0, math.inf), n_r=2, trials=10))

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan, -4000.0, 4000.0])
    def test_other_snr_edges_raise(self, snr_db):
        with pytest.raises((ValueError, OverflowError)):
            simulate(make_spec(snr_db=(snr_db,), trials=10))

    @pytest.mark.parametrize("workers,error", [
        (2.5, TypeError), (True, TypeError), (0, ValueError),
    ])
    def test_rejects_bad_workers(self, workers, error):
        # workers=2.5 once failed inside the process pool, and True ran
        with pytest.raises(error, match="workers must be"):
            simulate(make_spec(trials=10), workers=workers)

    def test_numpy_integers_accepted(self):
        spec = make_spec(trials=np.int64(1000), n_r=np.int32(2), seed=np.uint8(3))
        assert simulate(spec)[0].trials == 1000


class TestPoolSize:
    @pytest.fixture
    def made(self, monkeypatch):
        """max_workers of every pool simulate builds; the stand-in pool
        maps in-process, so no test starts a process."""
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        return made

    def test_capped_at_batch_count(self, made):
        # 7 one-batch points: 64 requested workers start 7
        spec = make_spec(snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), trials=10)
        got = simulate(spec, workers=64)
        assert made == [7]
        assert [e.errors for e in got] == [e.errors for e in simulate(spec, workers=1)]

    def test_one_batch_runs_in_process(self, made):
        spec = make_spec(trials=10)
        simulate(spec, workers=64)
        simulate(make_spec(snr_db=(math.inf,), trials=10), workers=8)
        assert made == []

    def test_fewer_workers_than_batches_kept(self, made):
        simulate(make_spec(trials=100, batch_size=10), workers=3)
        assert made == [3]


class TestCalibration:
    def test_matches_closed_form(self):
        spec = make_spec(trials=400_000)
        est = simulate(spec)[0]
        exact = sep_closed_form(C13, spec.quantizer, RAYLEIGH, 10.0).value
        assert abs(est.sep_hat - exact) < 3 * est.stderr

    def test_random_guessing_limit(self):
        spec = make_spec(snr_db=(-60.0,), trials=200_000)
        est = simulate(spec)[0]
        assert abs(est.sep_hat - 0.75) < 3 * est.stderr

    def test_zscore_calibration(self):
        # coarse unbiasedness band over independent seeds
        exact = sep_closed_form(
            C13, Quantizer((Q1_STAR,), bits=2), RAYLEIGH, 10.0
        ).value
        zs = []
        for seed in range(50):
            est = simulate(make_spec(seed=seed, trials=50_000))[0]
            zs.append((est.sep_hat - exact) / est.stderr)
        zs = np.asarray(zs)
        assert abs(zs.mean()) < 0.5
        assert 0.5 < zs.var() < 2.0


class TestSimo:
    def test_two_antennas_beat_one(self):
        spec1 = make_spec(snr_db=(30.0,), trials=400_000)
        spec2 = make_spec(snr_db=(30.0,), trials=400_000, n_r=2)
        e1 = simulate(spec1)[0]
        e2 = simulate(spec2)[0]
        assert e2.sep_hat + 3 * e2.stderr < e1.sep_hat - 3 * e1.stderr


class TestNoiseless:
    def test_matches_analytic_floor(self):
        spec = make_spec(snr_db=(math.inf,), trials=10**6)
        (est,) = simulate(spec)
        exact = sep_noiseless(C13, spec.quantizer, RAYLEIGH).value
        assert abs(est.sep_hat - exact) < 3 * est.stderr

    def test_tiny_boundary_limit(self):
        # every observation saturates: only the top symbol of each half
        # is ever decided, so half the transmissions are lost
        q = Quantizer((1e-6,), bits=2)
        (est,) = simulate(make_spec(snr_db=(math.inf,), quantizer=q, trials=400_000))
        exact = sep_noiseless(C13, q, RAYLEIGH).value
        assert exact == pytest.approx(0.5, abs=1e-5)
        assert abs(est.sep_hat - exact) < 3 * est.stderr

    def test_below_geometric_bound(self):
        rho = 0.2
        q1 = _schedule_q1(rho, 4, 4.0)
        bounds = tuple(q1 / rho**j for j in range(3))
        spec = make_spec(
            constellation=Constellation.geometric(rho, 4),
            quantizer=Quantizer(bounds, bits=3),
            snr_db=(math.inf,),
            trials=400_000,
        )
        (est,) = simulate(spec)
        bound = floor_geometric(rho, 4, q1, RAYLEIGH, bits=3)
        assert est.sep_hat <= bound + 3 * est.stderr


class TestCsv:
    def test_columns_and_round_trip(self, tmp_path):
        path = tmp_path / "mc.csv"
        ests = simulate(make_spec(snr_db=(5.0, 10.0), trials=20_000))
        assert main([
            "simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", repr(Q1_STAR), "--snr-db", "5,10", "--trials", "20000", "--seed", "11",
            "--out", str(path),
        ]) == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [
            "snr_db", "trials", "errors", "sep_hat", "stderr", "method",
        ]
        assert len(rows) == 2
        assert int(rows[0]["errors"]) == ests[0].errors
        assert float(rows[1]["sep_hat"]) == ests[1].sep_hat
