import re
import tracemalloc

import numpy as np
import pytest

from spectralmix import harness, model
from spectralmix.model import (
    EdgeDistribution,
    InvariantError,
    SupportError,
    build_omega,
    check_block_matrix,
    check_membership,
    check_theta,
    make_synthetic_membership,
    make_theta,
    sample_adjacency,
)


def pure_two_block(theta=None):
    Pi = np.array([[1.0, 0.0], [0.0, 1.0]])
    P = np.eye(2)
    theta = np.ones(2) if theta is None else theta
    return P, Pi, theta


class TestBuildOmega:
    def test_identity_block_orthogonal_pure_rows(self):
        P, Pi, theta = pure_two_block()
        omega = build_omega(P, Pi, theta)
        assert omega[0, 1] == 0.0

    def test_offdiagonal_block_entry(self):
        P = np.array([[1.0, 0.2], [0.2, 1.0]])
        Pi = np.array([[1.0, 0.0], [0.0, 1.0]])
        omega = build_omega(P, Pi, np.ones(2))
        assert omega[0, 1] == pytest.approx(0.2, abs=1e-15)

    def test_mixed_rows_quadratic_form(self):
        # hand-expanded: 0.7^2*1 + 2*0.7*0.3*(-0.2) + 0.3^2*1 = 0.496
        P = np.array([[1.0, -0.2], [-0.2, 1.0]])
        Pi = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.3], [0.7, 0.3]])
        omega = build_omega(P, Pi, np.ones(4))
        assert omega[2, 3] == pytest.approx(0.496, abs=1e-12)

    def test_symmetry_and_rank(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, K = int(rng.integers(10, 60)), int(rng.integers(2, 5))
            from conftest import random_ground_truth

            P, Pi, theta = random_ground_truth(rng, n, K)
            omega = build_omega(P, Pi, theta)
            assert np.array_equal(omega, omega.T)
            sv = np.linalg.svd(omega, compute_uv=False)
            assert sv[K - 1] > 1e-10 * sv[0]
            assert sv[K] < 1e-10 * sv[0]

    def test_theta_scale_covariance(self):
        rng = np.random.default_rng(1)
        from conftest import random_ground_truth

        P, Pi, theta = random_ground_truth(rng, 30, 3)
        c = 2.7
        omega1 = build_omega(P, Pi, theta)
        omega2 = build_omega(P, Pi, c * theta)
        assert np.allclose(omega2, c * c * omega1, rtol=1e-13, atol=0)

    def test_dimension_mismatch(self):
        P, Pi, _ = pure_two_block()
        with pytest.raises(InvariantError):
            build_omega(P, Pi, np.ones(5))

    def test_invariant_violations_report_cause(self):
        with pytest.raises(InvariantError, match="sums to"):
            build_omega(np.eye(2), np.array([[0.5, 0.4], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(InvariantError, match="symmetric"):
            build_omega(np.array([[1.0, 0.3], [0.1, 1.0]]),
                        np.eye(2), np.ones(2))
        with pytest.raises(InvariantError, match="diagonal"):
            build_omega(np.array([[0.9, 0.1], [0.1, 1.0]]), np.eye(2), np.ones(2))
        with pytest.raises(InvariantError, match="positive"):
            build_omega(np.eye(2), np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(InvariantError, match="pure"):
            build_omega(np.eye(2), np.array([[0.9, 0.1], [0.1, 0.9]]), np.ones(2))


class TestSampleAdjacency:
    def test_degenerate_bernoulli(self):
        omega = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = sample_adjacency(omega, EdgeDistribution("bernoulli"), seed=0)
        assert A[0, 1] == 1.0

    def test_signed_zero_mean(self):
        n = 1415  # ~1e6 upper-triangle entries
        omega = np.zeros((n, n))
        A = sample_adjacency(omega, EdgeDistribution("signed"), seed=7)
        vals = A[np.triu_indices(n, 1)]
        assert set(np.unique(vals)) == {-1.0, 1.0}
        assert abs(vals.mean()) < 0.005

    def test_poisson_moments(self):
        n = 1415
        omega = np.full((n, n), 0.3)
        A = sample_adjacency(omega, EdgeDistribution("poisson"), seed=3)
        vals = A[np.triu_indices(n, 1)]
        assert abs(vals.mean() - 0.3) < 0.01
        assert abs(vals.var() - 0.3) < 0.01
        assert np.all(vals >= 0) and np.all(vals == np.round(vals))

    def test_symmetric_and_zero_diagonal(self):
        omega = np.full((6, 6), 0.4)
        A = sample_adjacency(omega, EdgeDistribution("bernoulli"), seed=5)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0)

    def test_keep_self_loops(self):
        omega = np.full((4, 4), 1.0)
        A = sample_adjacency(omega, EdgeDistribution("bernoulli"), seed=5,
                             keep_self_loops=True)
        assert np.all(np.diag(A) == 1.0)

    def test_reproducible(self):
        omega = np.full((8, 8), 0.5)
        d = EdgeDistribution("normal", variance=1.0)
        assert np.array_equal(sample_adjacency(omega, d, seed=42),
                              sample_adjacency(omega, d, seed=42))
        assert not np.array_equal(sample_adjacency(omega, d, seed=42),
                                  sample_adjacency(omega, d, seed=43))

    def test_support_violation_reports_entry(self):
        omega = np.array([[0.0, 1.2], [1.2, 0.0]])
        with pytest.raises(SupportError, match=r"\(0,1\)"):
            sample_adjacency(omega, EdgeDistribution("bernoulli"), seed=0)
        with pytest.raises(SupportError):
            sample_adjacency(-omega, EdgeDistribution("poisson"), seed=0)
        with pytest.raises(SupportError):
            sample_adjacency(1.5 * omega, EdgeDistribution("signed"), seed=0)

    def test_unbiased_over_seeds(self):
        # fixed entry, many independent seeds, 4*sigma/sqrt(m) tolerance
        m = 100_000
        omega = np.array([[0.0, 0.3], [0.3, 0.0]])
        dist = EdgeDistribution("bernoulli")
        draws = np.fromiter(
            (sample_adjacency(omega, dist, seed=s)[0, 1] for s in range(m)),
            dtype=float, count=m)
        sigma = np.sqrt(0.3 * 0.7)
        assert abs(draws.mean() - 0.3) < 4 * sigma / np.sqrt(m)


def reference_build_omega(P, Pi, theta):
    """``build_omega``'s arithmetic as first written, with new temporaries."""
    omega = theta[:, None] * (Pi @ P @ Pi.T) * theta[None, :]
    return 0.5 * (omega + omega.T)


def reference_sample_adjacency(omega, dist, seed, keep_self_loops=False):
    """``sample_adjacency`` as first written: index arrays, a one-sided fill
    mirrored by ``A + A.T``, and ``Generator.normal`` for the normal family."""
    def draw(means):
        if dist.kind == "normal":
            return rng.normal(means, np.sqrt(dist.variance))
        if dist.kind == "bernoulli":
            return rng.binomial(1, means).astype(float)
        if dist.kind == "poisson":
            return rng.poisson(means).astype(float)
        return 2.0 * rng.binomial(1, (1.0 + means) / 2.0) - 1.0

    n = omega.shape[0]
    dist.validate(omega)
    rng = model._stream(seed)
    iu = np.triu_indices(n, 1)
    A = np.zeros((n, n))
    A[iu] = draw(omega[iu])
    A = A + A.T
    if keep_self_loops:
        A[np.diag_indices(n)] = draw(np.diag(omega))
    return A


class TestBitwiseReference:
    """The rewritten sampler gives the bits of the code it replaced."""

    FAMILIES = {"normal": (EdgeDistribution("normal", variance=0.7), -2.0, 2.0),
                "bernoulli": (EdgeDistribution("bernoulli"), 0.0, 1.0),
                "poisson": (EdgeDistribution("poisson"), 0.0, 3.0),
                "signed": (EdgeDistribution("signed"), -1.0, 1.0)}

    def test_sizes_straddle_block_boundaries(self):
        # the strict upper triangle is one sampling block up to n=512, two
        # from 513; build_omega takes one row strip up to n=362, two from 363
        assert [len(model._upper_blocks(n)) for n in (511, 512, 513)] == [1, 1, 2]
        assert [len(model._row_strips(n)) for n in (361, 362, 363)] == [1, 1, 2]
        assert len(model._upper_blocks(1222)) > 2 and len(model._row_strips(1222)) > 2

    @pytest.mark.parametrize("keep_self_loops", [False, True], ids=["no-loops", "loops"])
    @pytest.mark.parametrize("n", [2, 3, 57, 400, 511, 512, 513, 1222])
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_sample_adjacency(self, kind, n, keep_self_loops):
        dist, lo, hi = self.FAMILIES[kind]
        rng = np.random.default_rng(n)
        omega = rng.uniform(lo, hi, size=(n, n))
        omega = (omega + omega.T) / 2
        # means at the ends of the support, placed asymmetrically
        omega[rng.random((n, n)) < 0.1] = hi
        omega[rng.random((n, n)) < 0.1] = lo
        # the sizes past 400 test block boundaries, which one seed shows
        for seed in (0, 11, 2**40 + 3) if n <= 400 else (11,):
            got = sample_adjacency(omega, dist, seed, keep_self_loops=keep_self_loops)
            want = reference_sample_adjacency(omega, dist, seed, keep_self_loops)
            assert got.tobytes() == want.tobytes()

    def test_build_omega(self):
        rng = np.random.default_rng(2)
        from conftest import random_ground_truth

        for n, K in ((2, 2), (57, 3), (361, 3), (362, 3), (363, 3), (400, 4), (1222, 2)):
            P, Pi, theta = random_ground_truth(rng, n, K)
            assert build_omega(P, Pi, theta).tobytes() == \
                reference_build_omega(P, Pi, theta).tobytes()


class TestDrawTemporaries:
    """Past its result, and its input for the sampler, a draw's peak traced
    memory is a few strips and blocks of about ``BLOCK_ENTRIES`` entries,
    the same at any n."""

    LIMIT = 4 * 2**20  # bytes: an n=1000 omega alone takes 8 MB

    @staticmethod
    def traced_peak(call):
        """``call()``, and the peak of traced memory above the start while it ran."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = call()
            return out, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @staticmethod
    def parameters(n):
        cfg = harness.experiment_config(2, n=n, n0=n // 10)
        return cfg.block_matrix(), cfg.membership(), make_theta(n, 1.0, seed=n)

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_build_omega(self, n):
        P, Pi, theta = self.parameters(n)
        omega, peak = self.traced_peak(lambda: build_omega(P, Pi, theta))
        assert peak - omega.nbytes < self.LIMIT

    @pytest.mark.parametrize("keep_self_loops", [False, True], ids=["no-loops", "loops"])
    @pytest.mark.parametrize("kind", EdgeDistribution.KINDS)
    @pytest.mark.parametrize("n", [1000, 2000])
    def test_sample_adjacency(self, n, kind, keep_self_loops):
        # experiment 2's means lie in [0, 1], inside every family's support
        omega = build_omega(*self.parameters(n))
        dist = EdgeDistribution(kind, variance=1.0 if kind == "normal" else None)
        A, peak = self.traced_peak(
            lambda: sample_adjacency(omega, dist, seed=n, keep_self_loops=keep_self_loops))
        assert peak - A.nbytes < self.LIMIT


class TestSyntheticLayouts:
    def test_paper_style_layout(self):
        profiles = [((0.1, 0.1, 0.8), 70), ((0.1, 0.8, 0.1), 70),
                    ((0.8, 0.1, 0.1), 70), ((1 / 3, 1 / 3, 1 / 3), 70)]
        Pi = make_synthetic_membership(400, 3, 40, profiles)
        assert np.array_equal(Pi[0], [1, 0, 0])
        assert np.array_equal(Pi[40], [0, 1, 0])
        assert np.allclose(Pi[120], [0.1, 0.1, 0.8])

    def test_fully_pure(self):
        Pi = make_synthetic_membership(12, 3, 4)
        assert np.linalg.matrix_rank(Pi) == 3
        assert np.all(Pi.sum(axis=1) == 1)
        assert set(np.unique(Pi)) == {0.0, 1.0}

    def test_two_community_mixed_tail(self):
        Pi = make_synthetic_membership(30, 2, 10, [((0.7, 0.3), 10)])
        assert np.array_equal(Pi[9], [1, 0])
        assert np.array_equal(Pi[19], [0, 1])
        assert np.allclose(Pi[20:], [0.7, 0.3])

    def test_count_mismatch(self):
        with pytest.raises(InvariantError, match="expected n"):
            make_synthetic_membership(10, 2, 4, [((0.5, 0.5), 3)])

    def test_negative_count_rejected(self):
        # the counts sum to n, so only the sign check stops the -3 from
        # leaving the first profile no rows
        p = (0.5, 0.5)
        with pytest.raises(InvariantError, match=re.escape("mixed profile (0.5, 0.5) has count -3")):
            make_synthetic_membership(10, 2, 5, [(p, 3), (p, -3)])

    def test_profile_off_simplex(self):
        with pytest.raises(InvariantError, match="simplex"):
            make_synthetic_membership(9, 2, 4, [((0.6, 0.5), 1)])


class TestMakeTheta:
    def test_linear_ramp_values(self):
        theta = make_theta(16, 10.0, "linear_ramp")
        assert theta[-1] == pytest.approx(10.0, abs=1e-12)
        assert theta[7] == pytest.approx(9.5, abs=1e-12)  # i = 8 in 1-based form

    def test_uniform_half_range(self):
        theta = make_theta(500, 1.0, "uniform_half", seed=1)
        assert np.all(theta > 0.5) and np.all(theta <= 1.0)

    def test_uniform_half_reproducible(self):
        assert np.array_equal(make_theta(20, 2.0, "uniform_half", seed=9),
                              make_theta(20, 2.0, "uniform_half", seed=9))

    def test_preconditions(self):
        with pytest.raises(InvariantError):
            make_theta(0, 1.0, "linear_ramp")
        with pytest.raises(InvariantError):
            make_theta(5, -1.0, "linear_ramp")


class TestEdgeDistribution:
    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            EdgeDistribution("cauchy")

    def test_normal_needs_variance(self):
        with pytest.raises(ValueError):
            EdgeDistribution("normal")
        with pytest.raises(ValueError):
            EdgeDistribution("poisson", variance=1.0)

    @pytest.mark.parametrize("kind", EdgeDistribution.KINDS)
    def test_nan_mean_rejected(self, kind):
        dist = EdgeDistribution(kind, variance=1.0 if kind == "normal" else None)
        omega = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(SupportError, match=rf"{kind} mean at \(0,1\) is nan"):
            sample_adjacency(omega, dist, seed=0)

    # one bad diagonal mean per family: above, below, NaN, infinite
    BAD_DIAGONAL = {"bernoulli": 1.5, "poisson": -0.5, "normal": np.nan, "signed": np.inf}

    @pytest.mark.parametrize("kind", EdgeDistribution.KINDS)
    def test_bad_self_loop_mean_rejected_when_drawn(self, kind):
        dist = EdgeDistribution(kind, variance=1.0 if kind == "normal" else None)
        omega = np.full((3, 3), 0.5)
        omega[1, 1] = self.BAD_DIAGONAL[kind]
        lo, hi = dist.support
        message = (f"{kind} mean at (1,1) is {omega[1, 1]:.6g}, not a finite value "
                   f"in [{lo:g}, {hi:g}] (1 offending entries)")
        with pytest.raises(SupportError, match=f"^{re.escape(message)}$"):
            sample_adjacency(omega, dist, seed=0, keep_self_loops=True)
        # without self loops the diagonal is not drawn, so not checked
        A = sample_adjacency(omega, dist, seed=0)
        assert np.all(np.diag(A) == 0) and np.all(np.isfinite(A))

    def test_off_diagonal_offenders_past_the_first_strip(self):
        # the first offender in row-major order is named and all are counted,
        # with the bad diagonal means, which are not drawn, left out
        n = 1000
        assert model._row_strips(n)[0][1] < 700
        omega = np.full((n, n), 0.5)
        omega[700, 3] = omega[3, 700] = 1.25
        omega[900, 950] = omega[950, 900] = -0.5
        np.fill_diagonal(omega, 2.0)
        message = "bernoulli mean at (3,700) is 1.25, not a finite value in [0, 1] (4 offending entries)"
        with pytest.raises(SupportError, match=f"^{re.escape(message)}$"):
            sample_adjacency(omega, EdgeDistribution("bernoulli"), seed=0)



class TestBoundaryErrors:
    CASES = {
        "membership-1d": (lambda: check_membership(np.ones(3)), InvariantError,
                          "membership matrix must be 2-d"),
        "membership-negative": (lambda: check_membership([[1.5, -0.5], [0.0, 1.0]]),
                                InvariantError, "membership entry (0,1)=-0.5 is negative"),
        "membership-rank-deficient": (
            lambda: check_membership([[1.0, 0.0], [1.0, 0.0]]), InvariantError,
            "membership matrix is rank deficient (sigma_K/sigma_1 = 0)"),
        "block-not-square": (lambda: check_block_matrix(np.ones((2, 3))), InvariantError,
                             "block matrix must be square"),
        "block-rank-deficient": (lambda: check_block_matrix(np.ones((2, 2))), InvariantError,
                                 "block matrix is rank deficient"),
        "theta-empty": (lambda: check_theta([]), InvariantError, "theta is empty"),
        "block-size-mismatch": (lambda: build_omega(np.eye(3), np.eye(2), np.ones(2)),
                                InvariantError,
                                "block matrix is 3x3 but membership has 2 columns"),
        "omega-not-square": (lambda: sample_adjacency(np.zeros((2, 3)),
                                                      EdgeDistribution("bernoulli"), seed=0),
                             ValueError, "omega must be square"),
        "unknown-theta-rule": (lambda: make_theta(5, 1.0, rule="bogus"), ValueError,
                               "unknown theta rule 'bogus'"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_raises_named_error(self, case):
        call, error, message = self.CASES[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
