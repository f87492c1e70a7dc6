"""Minimum-SEP design: known optima, structural invariants of returned
designs, the geometric-ratio diagnostics, and the analytic schedule
minimizer."""
import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.optimize
from scipy.stats import qmc

from pamq import (
    ChannelModel,
    Constellation,
    DesignProblem,
    DesignResult,
    Quantizer,
    check_prop2,
    equidistant_constellation,
    lemma7_rho_star,
    optimize,
    optimize_sweep,
    sep_closed_form,
    xg_design,
)
from pamq import optimizer
from pamq.optimizer import _objective
from pamq.sep import sep_exact
from pamq.system import MAX_BITS

C13 = Constellation((1.0, 3.0))
RAYLEIGH = ChannelModel(1, 1.0)
Q1_STAR = 1.5722206109523074
FLOOR_STAR = 0.1622952508215144


def quantizer_problem(**kw):
    base = dict(
        channel=RAYLEIGH, M=4, bits=2, snr=None, constellation=C13, n_starts=8, seed=0,
    )
    base.update(kw)
    return DesignProblem(**base)


def decoded_design(p, theta):
    """The (Quantizer, Constellation) that the objective of p decodes theta to."""
    edges, amps, _ = optimizer._decode(p, theta)
    return Quantizer(edges[1:-1], p.bits), Constellation(amps)


class TestKnownOptima:
    def test_noiseless_two_bit(self):
        r = optimize(quantizer_problem())
        assert r.quantizer.positive_boundaries[0] == pytest.approx(
            Q1_STAR, abs=1e-6
        )
        assert r.sep == pytest.approx(FLOOR_STAR, abs=1e-10)
        assert r.converged

    def test_large_shape_low_snr_awgn_midpoint(self):
        # with m = 50 the fade concentrates at sqrt(omega); at low SNR the
        # optimal single boundary approaches the AWGN midpoint 2 sqrt(omega)
        ch = ChannelModel(50, 1.0)
        r = optimize(quantizer_problem(channel=ch, snr=1.0))
        assert r.quantizer.positive_boundaries[0] == pytest.approx(2.0, rel=0.02)

    def test_result_matches_engine_reevaluation(self):
        r = optimize(quantizer_problem(snr=10.0))
        again = sep_closed_form(C13, r.quantizer, RAYLEIGH, 10.0).value
        assert r.sep == pytest.approx(again, abs=1e-10)


class TestStructure:
    def test_joint_unit_energy_and_ordering(self):
        p = DesignProblem(
            channel=RAYLEIGH, M=4, bits=3, snr=100.0, n_starts=6, seed=1,
        )
        r = optimize(p)
        amps = r.constellation.amplitudes
        assert abs(sum(a * a for a in amps) - 1.0) < 1e-10
        q = r.quantizer.positive_boundaries
        assert all(a < b for a, b in zip(q, q[1:]))

    def test_start_count_monotonicity(self):
        seps = []
        for n in (2, 4, 8):
            r = optimize(quantizer_problem(bits=3, snr=10.0, n_starts=n, seed=5))
            seps.append(r.sep)
        assert seps[0] >= seps[1] >= seps[2]

    def test_local_optimality(self):
        r = optimize(quantizer_problem(snr=10.0))
        q0 = r.quantizer.positive_boundaries[0]
        for dq in (-1e-4, 1e-4):
            perturbed = sep_closed_form(
                C13, Quantizer((q0 + dq,), bits=2), RAYLEIGH, 10.0
            ).value
            assert perturbed >= r.sep - 1e-10

    def test_omega_scaling_covariance(self):
        k = 4.0
        r1 = optimize(quantizer_problem(snr=10.0))
        ch_k = ChannelModel(1, k)
        rk = optimize(quantizer_problem(channel=ch_k, snr=10.0 / k))
        q1 = r1.quantizer.positive_boundaries[0]
        qk = rk.quantizer.positive_boundaries[0]
        assert qk == pytest.approx(q1 * math.sqrt(k), rel=1e-5)
        assert rk.sep == pytest.approx(r1.sep, abs=1e-8)

    @pytest.mark.parametrize("bad", [
        dict(n_starts=0), dict(bits=1), dict(M=6), dict(M=2), dict(bits=MAX_BITS + 1),
        dict(bits=MAX_BITS + 1, constellation=None),
    ])
    def test_size_validation(self, bad):
        with pytest.raises(ValueError):
            quantizer_problem(**bad)

    @pytest.mark.parametrize("snr", [0.0, -1.0, math.inf, math.nan])
    def test_snr_positive_and_finite(self, snr):
        # an infinite or NaN SNR fails here, not at optimize's last SEP call
        with pytest.raises(ValueError, match="snr must be positive and finite"):
            quantizer_problem(snr=snr)

    def test_snr_stored_as_python_float(self):
        # a NumPy scalar from an np.arange grid is stored as a float, also after replace
        p = quantizer_problem(snr=np.float64(100.0))
        assert type(p.snr) is float
        assert type(replace(p, seed=1).snr) is float
        assert type(replace(p, snr=np.float64(10.0)).snr) is float

    def test_seed_non_negative(self):
        # once accepted here, then refused by NumPy inside the design
        with pytest.raises(ValueError, match="seed must be >= 0"):
            quantizer_problem(seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5), ("seed", True), ("n_starts", 2.5), ("n_starts", True), ("n_starts", "4"),
    ])
    def test_counts_are_integers(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            quantizer_problem(**{field: value})

    @pytest.mark.parametrize("n_starts", [0, optimizer._SCHEDULE_SIZE + 1])
    def test_start_count_within_schedule(self, n_starts):
        # the start schedule has 64 points: more starts would be cut to 64
        with pytest.raises(ValueError, match="n_starts must be 1 to 64"):
            quantizer_problem(n_starts=n_starts)
        p = quantizer_problem(n_starts=optimizer._SCHEDULE_SIZE)
        assert len(optimizer._start_points(p)) == optimizer._SCHEDULE_SIZE

    @pytest.mark.parametrize("uniform", [False, True],
                             ids=["quantizer_only", "uniform_step_only"])
    def test_M_must_match_fixed_constellation(self, uniform):
        with pytest.raises(ValueError, match="disagrees"):
            quantizer_problem(M=16, uniform=uniform)

    def test_variable_kind_validation(self):
        # what a design varies follows from its inputs: a kind string is no input
        with pytest.raises(TypeError, match="variables"):
            quantizer_problem(variables="quantizer_only")
        with pytest.raises(TypeError, match="positional argument"):
            DesignProblem(RAYLEIGH, 4, 2, "quantizer_only")

    @pytest.mark.parametrize("uniform", [False, True])
    def test_constellation_given_means_quantizer_only(self, uniform):
        fixed = quantizer_problem(bits=3, uniform=uniform)
        joint = quantizer_problem(bits=3, uniform=uniform, constellation=None)
        assert fixed.n_boundary_vars == joint.n_boundary_vars == (1 if uniform else 3)
        assert fixed.dim == fixed.n_boundary_vars
        assert joint.dim == joint.n_boundary_vars + joint.M // 2

    def test_given_constellation_is_kept(self):
        # 2 bits at 30 dB from 2 starts: without a constellation the amplitudes are
        # designed; a given one is the design's, not a scale for joint starts
        joint = optimize(quantizer_problem(snr=1e3, n_starts=2, constellation=None))
        fixed = optimize(quantizer_problem(snr=1e3, n_starts=2,
                                           constellation=Constellation((10.0, 30.0))))
        assert joint.sep < 0.03
        assert fixed.constellation == Constellation((10.0, 30.0))


def _continuation(p, snr_db_grid):
    """The per-SNR loop that dvo_experiment ran before optimize_sweep existed."""
    init = p.init
    designs = []
    for sdb in snr_db_grid:
        snr = 10.0 ** (sdb / 10.0)
        point = DesignProblem(
            channel=p.channel, M=p.M, bits=p.bits, snr=snr,
            constellation=p.constellation, uniform=p.uniform, n_starts=p.n_starts, seed=p.seed,
            init=init,
        )
        r = optimize(point)
        init = r.constellation, r.quantizer
        designs.append(r)
    return designs


class TestSweep:
    GRID = (10.0, 17.5, 25.0)

    def test_quantizer_only_matches_continuation_loop(self):
        p = quantizer_problem(bits=3, n_starts=2, seed=3)
        assert optimize_sweep(p, self.GRID) == _continuation(p, self.GRID)

    def test_joint_matches_continuation_loop(self):
        p = DesignProblem(
            channel=RAYLEIGH, M=4, bits=2, n_starts=2,
            seed=1, init=xg_design(0.3, 0.05, M=4, bits=2),
        )
        designs = optimize_sweep(p, self.GRID)
        assert designs == _continuation(p, self.GRID)
        assert [r.starts_used for r in designs] == [3, 3, 3]

    def test_numpy_grid_matches_float_grid(self):
        # the np.arange grid that the CLI and acceptance 8 pass, against its Python floats
        p = quantizer_problem(bits=3, n_starts=2, seed=3)
        grid = np.arange(20.0, 27.5 + 1e-9, 2.5)
        assert optimize_sweep(p, grid) == optimize_sweep(p, grid.tolist())


class TestInit:
    """init is one (Constellation, Quantizer) start, checked against the problem
    when the problem is made."""

    @pytest.mark.parametrize("kw,init", [
        # a 3-bit start on a 2-bit problem
        (dict(), (C13, Quantizer((0.5, 1.0, 1.5), 3))),
        # an 8-PAM start on a joint 4-PAM problem
        (dict(constellation=None), (Constellation((1.0, 3.0, 5.0, 7.0)), Quantizer((1.5,), 2))),
        # another constellation than the fixed one
        (dict(), (Constellation((1.0, 2.0)), Quantizer((1.5,), 2))),
        # free boundaries on a uniform-step problem, which would read q_1 alone
        (dict(bits=3, uniform=True), (C13, Quantizer((0.5, 1.2, 1.5), 3))),
        (dict(bits=3, uniform=True, constellation=None), (C13, Quantizer((0.5, 1.0, 1.6), 3))),
    ], ids=["bits", "joint_size", "fixed_constellation", "uniform_fixed", "uniform_joint"])
    def test_mismatch_rejected(self, kw, init, monkeypatch):
        monkeypatch.setattr(optimizer, "_sep_and_grad", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match="init"):
            quantizer_problem(init=init, **kw)

    def test_pair_in_order(self):
        # the order xg_design returns: a swapped pair names init, not a missing attribute
        with pytest.raises(TypeError, match="init must be a"):
            quantizer_problem(init=(Quantizer((1.5,), 2), C13))

    def test_one_start_field(self):
        # a quantizer alone or a constellation alone is no start
        assert [f.name for f in fields(DesignProblem) if f.name.startswith("init")] == ["init"]

    @pytest.mark.parametrize("kw,init", [
        (dict(), (C13, Quantizer((1.2,), 2))),
        (dict(bits=3, uniform=True), (C13, Quantizer.uniform(0.7, 3))),
        (dict(constellation=None, M=8, bits=3), xg_design(0.4, 0.1, M=8, bits=3)),
    ])
    def test_first_start_encodes_init(self, kw, init):
        p = quantizer_problem(init=init, **kw)
        starts = optimizer._start_points(p)
        assert len(starts) == p.n_starts + 1
        quant, cons = decoded_design(p, starts[0])
        assert quant.positive_boundaries == pytest.approx(init[1].positive_boundaries, rel=1e-12)
        assert cons.amplitudes == pytest.approx(init[0].amplitudes, rel=1e-12)
        assert all(np.array_equal(a, b) for a, b in
                   zip(starts[1:], optimizer._start_points(quantizer_problem(**kw))))


class TestReportedSep:
    """DesignResult.sep is the objective's value at the returned design, the
    least over the starts, and optimize calls no SEP engine outside its
    objective. In each problem L-BFGS-B abandons a line search (ABNORMAL) on
    some start; with the exact gradient its own fun there is the last trial
    point's, not its x's."""

    @pytest.mark.parametrize("kw,stale", [
        (dict(channel=RAYLEIGH, M=4, bits=3, constellation=C13, n_starts=6, seed=2), True),
        (dict(channel=RAYLEIGH, M=4, bits=4, snr=1000.0, n_starts=4, seed=4), True),
        (dict(channel=ChannelModel(1.5), M=8, bits=2, snr=1000.0,
              constellation=Constellation.geometric(0.4, 8), n_starts=4, seed=2), False),
    ], ids=["noiseless", "integer_m", "m1_5"])
    def test_minimum_over_starts(self, kw, stale, monkeypatch):
        p = DesignProblem(**kw)
        runs, lbfgsb_funs, calls = [], [], []

        def minimize(*args, _minimize=scipy.optimize.minimize, **kwargs):
            runs.append(_minimize(*args, **kwargs))
            lbfgsb_funs.append(runs[-1].fun)
            return runs[-1]

        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        for name in ("_sep_quadrature", "_sep_and_grad"):
            engine = getattr(optimizer, name)
            monkeypatch.setattr(optimizer, name,
                                lambda *a, engine=engine: calls.append(1) or engine(*a))
        r = optimize(p)
        # one engine call per objective call, less those whose candidate fails
        # to decode (the engines raise on none of these)
        assert len(calls) == r.evals - r.failed_evals
        values = [sep_exact(cons, quant, p.channel, p.snr).value
                  for quant, cons in (decoded_design(p, run.x) for run in runs)]
        assert r.sep == min(values)
        assert r.sep == sep_exact(r.constellation, r.quantizer, p.channel, p.snr).value
        assert [run.fun for run in runs] == values
        abnormal = [fun != value for run, fun, value in zip(runs, lbfgsb_funs, values)
                    if run.message.startswith("ABNORMAL")]
        assert abnormal and any(abnormal) == stale


class TestStopPaths:
    """Each start's reported value is the one the objective recorded at its x, so
    L-BFGS-B must return a point it scored. It does at every kind of stop: here
    the iteration and call caps cut every start short, on TestReportedSep's
    problems."""

    PROBLEMS = [
        dict(channel=RAYLEIGH, M=4, bits=3, constellation=C13, n_starts=6, seed=2),
        dict(channel=RAYLEIGH, M=4, bits=4, snr=1000.0, n_starts=4, seed=4),
        dict(channel=ChannelModel(1.5), M=8, bits=2, snr=1000.0,
             constellation=Constellation.geometric(0.4, 8), n_starts=4, seed=2),
    ]

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    @pytest.mark.parametrize("kw", PROBLEMS, ids=["noiseless", "integer_m", "m1_5"])
    def test_capped_starts_report_their_value(self, kw, cap, monkeypatch):
        p = DesignProblem(**kw)

        def minimize(*args, options, _minimize=scipy.optimize.minimize, **kwargs):
            return _minimize(*args, options=dict(options, maxiter=cap, maxfun=cap), **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        r = optimize(p)
        assert r.sep == sep_exact(r.constellation, r.quantizer, p.channel, p.snr).value

    def test_unscored_end_point_raises(self, monkeypatch):
        def minimize(*args, _minimize=scipy.optimize.minimize, **kwargs):
            res = _minimize(*args, **kwargs)
            res.x = np.nextafter(res.x, np.inf)
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        with pytest.raises(KeyError):
            optimize(quantizer_problem(n_starts=1))


class TestObjectiveBits:
    """float.hex of one objective evaluation per case, and of each entry of its
    theta-gradient, equal to a decode through np.logaddexp, np.cumsum and np.sum:
    any change to the decode, the energy sum, the SEP arithmetic or the pull-back
    shows here. Non-integer m runs the quadrature, snr None the noiseless engine;
    M = 16 has 8 amplitudes, where NumPy's sum turns pairwise, and its theta gives
    another last bit if the squares are added in order. Where the gradient is
    exact the objective returns the pair (SEP, gradient); non-integer m at finite
    SNR has none and returns the SEP alone."""

    CASES = [
        (dict(channel=ChannelModel(1), M=4, bits=3, snr=100.0,
              constellation=C13), [0.3, -0.2, 0.5], "0x1.781ca43f755e0p-5"),
        (dict(channel=ChannelModel(2), M=8, bits=3, uniform=True, snr=1000.0,
              constellation=equidistant_constellation(8).normalized()),
         [-0.4], "0x1.0cea2dfa5619ep-1"),
        (dict(channel=RAYLEIGH, M=4, bits=2, snr=1000.0),
         [0.1, -0.3, 0.7], "0x1.db5b92cb6a4bcp-3"),
        (dict(channel=ChannelModel(3, 2.0), M=4, bits=3, uniform=True, snr=316.0),
         [0.2, 0.4, -0.1], "0x1.3a70cc66e4e10p-3"),
        (dict(channel=RAYLEIGH, M=16, bits=3, snr=1e4),
         [0.5, -0.1, 0.3, -1.0, 0.2, 0.1, 0.4, -0.3, 0.6, 0.0, -0.28], "0x1.bcc85437d78c6p-1"),
        (dict(channel=ChannelModel(1.5), M=4, bits=2, snr=30.0,
              constellation=C13), [0.8], "0x1.8eaad6be75920p-3"),
        (dict(channel=ChannelModel(2), M=8, bits=3, snr=None,
              constellation=Constellation.geometric(0.4, 8)),
         [-2.0, -1.0, 0.5], "0x1.07e6de5872a0fp-2"),
        # softplus(-800) is 0.0: the smallest amplitude vanishes
        (dict(channel=RAYLEIGH, M=4, bits=2, snr=1000.0),
         [0.0, -800.0, 0.0], "0x1.0000000000000p+0"),
        # M = 16 again, at a theta where the pull-back's in-order norm of the 8 amplitudes
        # and normalized()'s pairwise one differ after the square root: a shared norm
        # moves gradient bits here
        (dict(channel=RAYLEIGH, M=16, bits=3, snr=1e4),
         [0.3, -0.2, 0.1, -0.4, 2.0, 0.6, 0.7, -0.5, -1.6, 0.2, 0.1], "0x1.bc2ceca73af8fp-1"),
    ]
    # the theta-gradient of each case; None where there is none (m = 1.5 at finite
    # SNR) or the candidate fails
    GRADIENTS = [
        ["0x1.28311c1a4a1acp-5", "-0x1.6a34cf936e0b0p-10", "-0x1.4bccbef52a63ap-8"],
        ["0x1.1957c94777c4fp-2"],
        ["0x1.bf6f8f30df1cbp-3", "0x1.c2d5472319b97p-6", "-0x1.63b5a3d23a720p-6"],
        ["0x1.993428efda8d8p-5", "0x1.61763552ea30bp-3", "-0x1.8d5b12cd731eep-3"],
        ["0x1.8b88723e32c86p-6", "0x1.46335fdd8ed7bp-13", "0x1.3ec8702eae79bp-28",
         "0x1.66e63cc0d7e82p-11", "0x1.5da64a9e878fdp-10", "0x1.137f78e5935fep-10",
         "0x1.96263e0cc2ad9p-11", "0x1.a8540e0ef2e24p-14", "-0x1.5ca63c788d9a4p-11",
         "-0x1.6107b0f1c804ep-10", "-0x1.04bbf132fa671p-9"],
        None,
        ["0x1.803c07ab01e02p-6", "0x1.e6b389c15e1d5p-5", "0x1.5e0c5cca471e3p-5"],
        None,
        ["0x1.d2176cd5d5bf0p-6", "0x1.7c238708be4bfp-13", "0x1.2d9d5a8cff009p-27",
         "0x1.954e3bdd1f4c3p-11", "0x1.a208151f81da6p-10", "0x1.9b0f85ff12f99p-11",
         "0x1.0cf75c176b287p-12", "-0x1.1367dadd1f5f6p-12", "-0x1.4b8d0b0746748p-12",
         "-0x1.c0538fb1e89ecp-10", "-0x1.36f0ed457e95dp-9"],
    ]

    @pytest.mark.parametrize("kw,theta,expected", CASES)
    def test_pinned(self, kw, theta, expected):
        f = _objective(DesignProblem(**kw))
        out = f(np.array(theta))
        assert (out[0] if f.exact else out).hex() == expected

    @pytest.mark.parametrize("case,expected_grad", list(zip(CASES, GRADIENTS)))
    def test_pinned_gradient(self, case, expected_grad):
        kw, theta, expected = case
        f = _objective(DesignProblem(**kw))
        if not f.exact:  # scipy's finite differences: no gradient to pin
            assert expected_grad is None
            return
        value, grad = f(np.array(theta))
        if expected_grad is None:  # a failed candidate: 1.0 with a zero gradient
            assert (value, f.failed) == (1.0, 1)
            expected_grad = ["0x0.0p+0"] * len(theta)
        else:
            assert value.hex() == expected
        assert [g.hex() for g in grad.tolist()] == expected_grad


class TestStartSchedule:
    """The start schedule is scipy's scrambled Latin hypercube, drawn in
    NumPy: the same points bit for bit, so a seed keeps its starts."""

    SEEDS = (0, 1, 2, 7, 12345, 2**40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_scipy_latin_hypercube(self, seed):
        for d in range(1, 25):
            expected = qmc.LatinHypercube(d=d, seed=seed).random(optimizer._SCHEDULE_SIZE)
            assert np.array_equal(optimizer._latin_hypercube(d, seed), expected), d

    @pytest.mark.parametrize("kw", [
        dict(M=4, bits=3, constellation=C13),
        dict(M=8, bits=3),
    ])
    def test_prefix_is_independent_of_start_count(self, kw):
        full = optimizer._start_points(DesignProblem(RAYLEIGH, n_starts=16, seed=7, **kw))
        for n in (1, 5, 16):
            starts = optimizer._start_points(DesignProblem(RAYLEIGH, n_starts=n, seed=7, **kw))
            assert len(starts) == n
            assert all(np.array_equal(a, b) for a, b in zip(starts, full[:n]))


class TestFailedEvals:
    def test_counts_degenerate_candidates(self):
        p = DesignProblem(channel=RAYLEIGH, M=4, bits=2, snr=1000.0)
        f = _objective(p)
        for theta in ([0.0, -800.0, 0.0], [0.1, -0.3, 0.7], [-800.0, 0.0, 0.0]):
            f(np.array(theta))
        assert f.failed == 2
        assert f.evals == 3

    # candidates that break the rule of Quantizer and Constellation (positive, finite,
    # strictly increasing) only in the decode's float arithmetic: softplus(-800) is
    # 0.0, so a boundary or an amplitude repeats, and 1e308 + 1e308 is inf
    DECODE_FAILURES = [
        (dict(M=4, bits=3, constellation=C13), [0.3, -800.0, 0.5]),
        (dict(M=8, bits=2), [0.2, 0.1, 0.3, -800.0, 0.4]),
        (dict(M=4, bits=3, constellation=C13), [0.3, 1e308, 1e308]),
        (dict(M=4, bits=2), [0.1, 1e308, 1e308]),
        (dict(M=4, bits=3, uniform=True), [1e308, 0.1, 0.2]),
    ]

    # an objective with the exact gradient (integer m) and one without (m = 1.5)
    @pytest.mark.parametrize("integer_m", [False, True])
    @pytest.mark.parametrize("kw,theta", DECODE_FAILURES)
    def test_decode_failures_score_one(self, kw, theta, integer_m):
        channel = RAYLEIGH if integer_m else ChannelModel(1.5)
        p = DesignProblem(channel=channel, snr=1000.0, **kw)
        with pytest.raises(ValueError):
            optimizer._decode(p, np.array(theta))
        f = _objective(p)
        assert f.exact == integer_m
        if integer_m:
            value, gradient = f(np.array(theta))
            assert gradient.tolist() == [0.0] * p.dim
        else:
            value = f(np.array(theta))
        assert value == 1.0
        assert (f.failed, f.evals) == (1, 1)

    def test_reported_by_optimize(self, monkeypatch):
        # candidates with q1 > 2 fail to evaluate; the returned best one does not
        sep_and_grad, failed = optimizer._sep_and_grad, []

        def flaky(amps, edges, ch, snr):
            failed.append(edges[1] > 2.0)
            if failed[-1]:
                raise ArithmeticError("injected")
            return sep_and_grad(amps, edges, ch, snr)

        monkeypatch.setattr(optimizer, "_sep_and_grad", flaky)
        r = optimize(quantizer_problem())
        assert r.failed_evals == sum(failed) > 0
        assert r.evals == len(failed)
        assert r.converged

    def test_start_on_failed_candidates_is_not_converged(self, monkeypatch):
        def failing(amps, edges, ch, snr):
            raise ArithmeticError("injected")

        monkeypatch.setattr(optimizer, "_sep_and_grad", failing)
        r = optimize(quantizer_problem(n_starts=2))
        assert not r.converged
        assert r.failed_evals == r.evals > 0

    def test_zero_on_readme_example(self):
        # pamq optimize --noiseless --m 1 --bits 2 --mod 4 --constellation 1,3 --starts 8
        r = optimize(quantizer_problem())
        assert r.failed_evals == 0
        assert r.evals > 0

    def test_evals_count_objective_calls(self, monkeypatch):
        calls = []
        decode = optimizer._decode
        monkeypatch.setattr(optimizer, "_decode", lambda p, t: calls.append(1) or decode(p, t))
        r = optimize(quantizer_problem(snr=10.0, n_starts=3))
        assert r.evals == len(calls) - 1  # optimize decodes the best point once more


class TestObjectiveGradient:
    """The theta-gradient of the objective against a four-point central difference of
    its value, for every kind of design, at finite SNR and noiseless; a failed
    candidate has a zero gradient."""

    H = 1e-5

    # TestObjectiveBits' cases that have an exact gradient, and two more noiseless ones
    CASES = [(kw, theta) for kw, theta, _ in TestObjectiveBits.CASES
             if kw["snr"] is None or float(kw["channel"].m).is_integer()] + [
        (dict(channel=ChannelModel(1.5), M=4, bits=3, snr=None,
              constellation=C13), [0.3, -0.2, 0.5]),
        (dict(channel=ChannelModel(2), M=4, bits=2, snr=None),
         [0.1, -0.3, 0.7]),
    ]

    @pytest.mark.parametrize("kw,theta", CASES)
    def test_matches_central_difference(self, kw, theta):
        p = DesignProblem(**kw)
        f = _objective(p)
        value, grad = f(np.array(theta))
        try:
            quant, cons = decoded_design(p, np.array(theta))
        except ValueError:  # a failed candidate
            assert (value, f.failed) == (1.0, 1)
        else:
            assert value == sep_exact(cons, quant, p.channel, p.snr).value
        for k in range(len(theta)):
            def at(d):
                t = np.array(theta)
                t[k] += d
                return f(t)[0]
            h = self.H
            fd = (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestGradientDesign:
    """L-BFGS-B on the exact gradient against the multi-start Nelder-Mead this
    package used before, at start seed 0: the same or a lower SEP with at
    least 5x fewer objective calls (Nelder-Mead took 642 and 2831)."""

    JOINT3 = dict(channel=RAYLEIGH, M=4, bits=3, n_starts=4,
                  seed=0)

    def test_two_bit_quantizer_at_10_db(self):
        r = optimize(quantizer_problem(snr=10.0))
        assert r.sep <= 0.2328454185938077 * (1.0 + 1e-10)
        assert r.evals <= 642 / 5

    def test_three_bit_joint_at_30_db(self):
        r = optimize(DesignProblem(snr=1000.0, **self.JOINT3))
        assert r.sep <= 0.003939245825341553 * (1.0 + 1e-10)
        assert r.evals <= 2831 / 5

    def test_three_bit_joint_at_50_db(self):
        # Nelder-Mead stalled at 2.87e-4 here
        r = optimize(DesignProblem(snr=1e5, **self.JOINT3))
        assert r.sep <= 1e-4
        assert r.converged


class TestProp2Diagnostics:
    def test_geometric_fixed_point(self):
        p = DesignProblem(
            channel=RAYLEIGH, M=8, bits=3, snr=None, constellation=Constellation.geometric(0.4, 8),
        n_starts=10, seed=0,
        )
        ratios, dev = check_prop2(optimize(p), 0.4)
        assert len(ratios) == 2
        assert dev < 0.01 * 0.4

    def test_single_boundary_vacuous(self):
        r = optimize(quantizer_problem())
        ratios, dev = check_prop2(r, 0.4)
        assert ratios == () and dev == 0.0

    def test_perturbed_negative_control(self):
        bad = DesignResult(
            quantizer=Quantizer((0.1, 0.5, 0.6), bits=3),
            constellation=Constellation.geometric(0.4, 8), sep=0.5, starts_used=1,
            converged=True, failed_evals=0, evals=0,
        )
        _, dev = check_prop2(bad, 0.4)
        assert dev > 0.01


class TestScheduleMinimizer:
    def test_unit_case(self):
        assert lemma7_rho_star(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_ratio_diverges_as_noise_vanishes(self):
        prev = 0.0
        for sigma in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            ratio = lemma7_rho_star(2.0, 2.0, 1.0, sigma) ** 2 / sigma**2
            assert ratio > prev
            prev = ratio
        assert prev >= 1e6

    def test_objective_log_log_slope(self):
        # f(rho) = (sigma^2/rho^B)^C + rho^A at rho* decays like
        # (1/sigma^2)^(AC/(A+BC)); A=2, B=2, C=1 gives slope -0.5
        A, B, C = 2.0, 2.0, 1.0
        xs, ys = [], []
        for sigma in np.logspace(-1, -4, 12):
            rho = lemma7_rho_star(A, B, C, sigma)
            f = (sigma**2 / rho**B) ** C + rho**A
            xs.append(math.log10(1.0 / sigma**2))
            ys.append(math.log10(f))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.02)

    def test_regime_error(self):
        with pytest.raises(ValueError):
            lemma7_rho_star(0.5, 0.1, 1.0, 1.0)  # C >= A + B*C

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("at", range(4), ids=["A", "B", "C", "sigma"])
    def test_inputs_positive_and_finite(self, at, bad):
        # a NaN input once returned NaN
        args = [2.0, 2.0, 1.0, 0.1]
        args[at] = bad
        with pytest.raises(ValueError, match="A, B, C, sigma must be positive and finite"):
            lemma7_rho_star(*args)

    def test_xg_design_ratio_chain(self):
        cons, quant = xg_design(0.3, 0.05, M=4, bits=3)
        q = quant.positive_boundaries
        for lo, hi in zip(q, q[1:]):
            assert lo / hi == pytest.approx(0.3, rel=1e-12)
        assert cons.M == 4

    def test_xg_design_boundaries(self):
        _, quant = xg_design(0.3, 0.05, M=4, bits=3)
        assert quant.positive_boundaries == (0.05, 0.05 / 0.3, 0.05 / 0.3**2)
        # 1e10 / 0.5^1022 overflows; 0.5^2046 underflows to 0
        for q1, bits in ((1e10, 11), (1.0, 12)):
            with pytest.raises(ValueError, match="boundaries must be finite"):
                xg_design(0.5, q1, M=4, bits=bits)
        with pytest.raises(ValueError, match=f"bits must be <= {MAX_BITS}"):
            xg_design(0.9, 0.1, M=4, bits=MAX_BITS + 1)

