"""Discrete optimal transport: solvers, duality certification, fibers."""

import functools
import itertools
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from otsobolev import (
    cli,
    geometry,
    inequalities,
    pipeline,
    submanifold,
    transport,
)
from otsobolev.errors import (
    CutLocusError,
    SizeCapError,
)
from otsobolev.fields import field_from_expression
from otsobolev.pipeline import ScenarioConfig

from chart_checks import model_space


def small_instance(seed=5, ns=12, nt=20):
    rng = np.random.default_rng(seed)
    M = model_space(geometry.EUCLIDEAN, 3)
    xs = rng.standard_normal((ns, 3))
    zs = rng.standard_normal((nt, 3)) + np.array([2.0, 0.0, 0.0])
    mu = transport.DiscreteMeasure(xs, np.full(ns, 1.0 / ns))
    nu = transport.DiscreteMeasure(zs, np.full(nt, 1.0 / nt))
    C = transport.cost_matrix(M, mu, nu)
    return M, mu, nu, C


def criterion5_instance():
    """The 50 x 50 instance of acceptance criterion 5."""
    rng = np.random.default_rng(42)
    M = model_space(geometry.EUCLIDEAN, 3)
    xs = rng.standard_normal((50, 3))
    zs = rng.standard_normal((50, 3)) + np.array([2.0, 0.0, 0.0])
    mu = transport.DiscreteMeasure(xs, np.full(50, 0.02))
    nu = transport.DiscreteMeasure(zs, np.full(50, 0.02))
    return M, mu, nu, transport.cost_matrix(M, mu, nu)


def shell_instance(npts):
    """The flat unit disk at resolution 8 (256 nodes) in R^4 with a
    uniform density, and ``npts`` targets uniform in the shell
    3 <= |z| <= 5 around it; returns (M, mesh, mu, nu, C)."""
    M = model_space(geometry.EUCLIDEAN, 4)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=1.0), 8)
    rng = np.random.default_rng(17)
    dirs = rng.standard_normal((npts, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = (3.0**4 + rng.random(npts) * (5.0**4 - 3.0**4)) ** 0.25
    zs = radii[:, None] * dirs
    mu = transport.source_measure(mesh, field_from_expression(mesh, "1.0"))
    nu = transport.target_measure(zs)
    return M, mesh, mu, nu, transport.cost_matrix(M, mu, nu)


def annulus_instance():
    """256 x 500, the shape of the entropic_annulus benchmark's solve."""
    M, _, mu, nu, C = shell_instance(500)
    return M, mu, nu, C


def outlier_instance(moved, shift):
    """small_instance at 30 x 200 with its first source or target point
    (``moved``) moved by ``shift`` along the first axis, far from every
    point of the other measure."""
    M, mu, nu, _ = small_instance(ns=30, nt=200)
    (mu if moved == "source" else nu).points[0, 0] += shift
    return M, mu, nu, transport.cost_matrix(M, mu, nu)


def schedule_length(C, eps_reg):
    """Stages of solve_entropic's schedule, 0.1 x mean cost halved while
    above 1.5 eps_reg, then eps_reg."""
    e, n = 0.1 * float(C.mean()), 1
    while e > 1.5 * eps_reg:
        e, n = e / 2.0, n + 1
    return n


def reference_solve_entropic(mu, nu, C, eps_reg, max_iter=20000,
                             stop_tol=1e-9):
    """The log-domain Sinkhorn iteration with solve_entropic's schedule,
    stop test and plan, on fresh temporaries and scipy's logsumexp, with
    the plan built each iteration: the oracle for the solver."""
    ns, nt = mu.size, nu.size
    log_mu = np.log(mu.weights)
    log_nu = np.log(nu.weights)
    f = np.zeros(ns)
    g = np.zeros(nt)
    scale = float(C.mean())
    eps_schedule = []
    e = max(eps_reg, 0.1 * scale if scale > 0 else eps_reg)
    while e > eps_reg * 1.5:
        eps_schedule.append(e)
        e /= 2.0
    eps_schedule.append(eps_reg)
    it = 0
    converged = False
    for eps in eps_schedule:
        last = eps == eps_reg
        while it < max_iter:
            it += 1
            f = -eps * logsumexp((g[None, :] - C) / eps + log_nu[None, :], axis=1)
            g = -eps * logsumexp((f[:, None] - C) / eps + log_mu[:, None], axis=0)
            log_plan = (f[:, None] + g[None, :] - C) / eps \
                + log_mu[:, None] + log_nu[None, :]
            row = np.exp(logsumexp(log_plan, axis=1))
            col = np.exp(logsumexp(log_plan, axis=0))
            resid = max(np.abs(row - mu.weights).max(),
                        np.abs(col - nu.weights).max())
            if resid < (stop_tol if last else 1e-4):
                if last:
                    converged = True
                break
    plan = np.exp(log_plan)
    plan /= plan.sum()
    cost = float((plan * C).sum())
    gap = cost - float(f @ mu.weights + g @ nu.weights)
    ii, jj = np.nonzero(plan > 1e-12 * mu.weights.min())
    return transport.DiscreteCoupling(mu, nu, ii, jj, plan[ii, jj], C, cost,
                                      f, solver="entropic", reg=eps_reg,
                                      duality_gap=gap, converged=converged)


class TestMeasures:
    def test_weights_must_be_normalized(self):
        with pytest.raises(ValueError):
            transport.DiscreteMeasure(np.zeros((2, 3)), np.array([0.3, 0.3]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            transport.DiscreteMeasure(np.zeros((2, 3)),
                                      np.array([1.5, -0.5]))

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.0, 0.5], "1 of 3 are not"),
        ([0.5, np.nan, 0.5], "1 of 3 are not"),
        ([np.nan] * 3, "3 of 3 are not"),
        ([np.inf, 0.5, 0.5], "sum to inf")])
    def test_zero_or_nan_weights_rejected(self, weights, message):
        """Every point keeps its index, so a zero weight is refused, not
        dropped; a NaN weight is not positive, and a NaN or infinite sum
        is not 1."""
        with pytest.raises(ValueError, match=message):
            transport.DiscreteMeasure(np.zeros((3, 2)), np.array(weights))

    def test_source_measure_power_weighting(self):
        M = model_space(geometry.EUCLIDEAN, 4)
        mesh = submanifold.build_submanifold(
            M, submanifold.FlatDisk(radius=1.0), 8)
        f = field_from_expression(mesh, "3.0")
        mu = transport.source_measure(mesh, f)
        # constant f: weights proportional to the quadrature weights
        assert np.allclose(mu.weights, mesh.weights / mesh.weights.sum())


class TestExactSolver:
    def test_matches_brute_force_on_permutations(self):
        """Equal-weight square instances have permutation-matrix optima."""
        rng = np.random.default_rng(9)
        for trial in range(5):
            C = rng.random((4, 4))
            mu = transport.DiscreteMeasure(np.zeros((4, 2)), np.full(4, 0.25))
            nu = transport.DiscreteMeasure(np.ones((4, 2)), np.full(4, 0.25))
            cpl = transport.solve_exact(mu, nu, C)
            best = min(sum(C[i, p[i]] for i in range(4)) / 4.0
                       for p in itertools.permutations(range(4)))
            assert np.isclose(cpl.cost, best, atol=1e-12)

    def test_duality_gap_vanishes(self):
        _, mu, nu, C = small_instance()
        cpl = transport.solve_exact(mu, nu, C)
        assert abs(cpl.duality_gap) < 1e-10
        _, rres, cres = cpl.marginals()
        assert rres < 1e-12 and cres < 1e-12

    def test_certification_passes_and_sets_potentials(self):
        """The certificate carries phi^cc, the double c-transform of the
        solver's phi, and leaves the coupling as it was."""
        _, mu, nu, C = small_instance()
        cpl = transport.solve_exact(mu, nu, C)
        before = pickle.dumps(cpl)
        rep = transport.certify_support(cpl)
        assert rep.worst_violation <= 1e-8
        assert rep.atom_count >= max(mu.size, nu.size) - 1
        psi = transport.c_transform(cpl.phi, C, "from_source")
        assert np.array_equal(
            rep.phi_cc, transport.c_transform(psi, C, "from_target"))
        assert pickle.dumps(cpl) == before

    def test_suboptimal_plan_fails_certification(self):
        _, mu, nu, C = small_instance(ns=6, nt=6)
        cpl = transport.solve_exact(mu, nu, C)
        # a plan with atoms off the optimal support breaks the condition
        bad_cols = np.roll(cpl.cols, 1)
        worse = transport.DiscreteCoupling(
            mu, nu, cpl.rows, bad_cols, cpl.mass, C, cpl.cost,
            cpl.phi, solver="exact")
        assert transport.certify_support(worse).worst_violation > 1e-8

    def test_target_permutation_invariance(self):
        _, mu, nu, C = small_instance()
        perm = np.random.default_rng(1).permutation(nu.size)
        nu2 = transport.DiscreteMeasure(nu.points[perm], nu.weights)
        C2 = C[:, perm]
        c1 = transport.solve_exact(mu, nu, C)
        c2 = transport.solve_exact(mu, nu2, C2)
        assert np.isclose(c1.cost, c2.cost, atol=1e-12)

    def test_cost_scaling_linear(self):
        _, mu, nu, C = small_instance()
        c1 = transport.solve_exact(mu, nu, C)
        c2 = transport.solve_exact(mu, nu, 3.0 * C)
        assert np.isclose(c2.cost, 3.0 * c1.cost, atol=1e-10)

    def test_size_cap(self):
        _, mu, nu, C = small_instance()
        with pytest.raises(SizeCapError):
            transport.solve_exact(mu, nu, C, size_cap=(4, 4))

    def test_lp_certifies_at_the_certification_tolerance(self):
        """The 256 x 600 hyperbolic instance of seed 9 (bundled seed + 9,
        shrunk as the benchmark's exact_hyperbolic workload shrinks it):
        with the solver's default dual tolerance of 1e-7 its plan had an
        off-support reduced cost of -1.2e-8, which failed certification
        at 1e-8."""
        config = ScenarioConfig.load(
            cli.bundled_scenario_path("hyperbolic_disk_r1.cfg"),
            (("scenario", "seed", str(20240608 + 9)),
             ("submanifold", "resolution", "8"),
             ("domain", "samples", "600"), ("jacobi", "atoms", "20")))
        M = config.build_manifold()
        mesh = submanifold.build_submanifold(
            M, submanifold.CHARTS[config.chart](**config.chart_params),
            config.resolution)
        dom = inequalities.build_target_domain(
            M, mesh, config.domain_variant, config.domain_params,
            config.domain_samples, config.seed)
        mu = transport.source_measure(mesh, field_from_expression(mesh, "1.0"))
        nu = transport.target_measure(dom.points)
        cpl = transport.solve_exact(mu, nu, transport.cost_matrix(M, mu, nu))
        assert (mu.size, nu.size) == (256, 600)
        rep = transport.certify_support(cpl)
        assert rep.worst_violation <= 1e-8, rep.worst_violation


class TestEntropicSolver:
    def test_close_to_exact(self):
        _, mu, nu, C = small_instance(ns=30, nt=40)
        exact = transport.solve_exact(mu, nu, C)
        ent = transport.solve_entropic(mu, nu, C,
                                       eps_reg=5e-3 * float(C.mean()))
        assert ent.converged
        assert ent.cost >= exact.cost - 1e-9   # entropic plan is feasible
        assert (ent.cost - exact.cost) / exact.cost < 5e-2
        _, rres, cres = ent.marginals()
        assert max(rres, cres) < 1e-6

    def test_entropic_violation_scales_with_reg(self):
        """Support violation is O(reg * log N): recorded, not tight."""
        _, mu, nu, C = small_instance(ns=20, nt=25)
        reg = 5e-3 * float(C.mean())
        ent = transport.solve_entropic(mu, nu, C, eps_reg=reg)
        scale = reg * math.log(mu.size * nu.size)
        rep = transport.certify_support(ent)
        assert 0.0 < rep.worst_violation <= 50.0 * scale


    @staticmethod
    def assert_matches_reference(got, ref):
        """The scaling iteration against the log-domain oracle.  Both take
        the same iterations; their values differ by rounding, since the
        mat-vecs sum in another order than the log-sum-exps.  The plan
        has the same atoms and the same ``converged``.  Each bound is ten
        times the worst measured over the cases of this class (x86-64,
        numpy 2.4 with OpenBLAS), rounded up: mass 9.2e-11 relative,
        per atom (criterion5: its lightest atoms sit near the floor);
        phi 2.4e-15 x max cost (criterion5), relative to the largest
        cost because f_i + g_j ~ c_ij fixes the potentials' size (phi
        reaches 5e5 for a source moved by 1000); cost 3.3e-13 relative
        and duality gap 1.1e-14 x max cost (both the source moved by
        1000; the gap is cost minus <f, mu> + <g, nu>, each of the size
        of the largest cost)."""
        assert np.array_equal(got.rows, ref.rows)
        assert np.array_equal(got.cols, ref.cols)
        assert got.converged is ref.converged
        cmax = float(ref.cost_matrix.max())
        assert np.abs(got.mass / ref.mass - 1.0).max() <= 1e-9
        assert np.abs(got.phi - ref.phi).max() <= 3e-14 * cmax
        assert abs(got.cost / ref.cost - 1.0) <= 4e-12
        assert abs(got.duality_gap - ref.duality_gap) <= 2e-13 * cmax

    @pytest.mark.parametrize("instance, reg_factor, max_iter, converged", [
        (functools.partial(small_instance, ns=30, nt=40), 5e-3, 20000, True),
        (criterion5_instance, 1e-4, 20000, True),
        (small_instance, 0.1, 20000, True),    # a one-stage schedule
        (criterion5_instance, 1e-4, 3, False),  # stopped by the cap
        (annulus_instance, 5e-3, 20000, True),
    ], ids=["small_30x40", "criterion5", "one_stage", "max_iter_3",
            "annulus_256x500"])
    def test_agrees_with_reference(self, instance, reg_factor, max_iter,
                                   converged):
        _, mu, nu, C = instance()
        reg = reg_factor * float(C.mean())
        got = transport.solve_entropic(mu, nu, C, reg, max_iter=max_iter)
        ref = reference_solve_entropic(mu, nu, C, reg, max_iter=max_iter)
        assert ref.converged is converged
        self.assert_matches_reference(got, ref)

    def test_stalled_solve_is_not_converged(self):
        """At reg 5e-3 x mean cost the row residual of the 12 x 20
        instance stalls near 1e-7, above stop_tol: the solver stops at
        max_iter and says so."""
        _, mu, nu, C = small_instance()
        ent = transport.solve_entropic(mu, nu, C, 5e-3 * float(C.mean()),
                                       max_iter=1000, stop_tol=1e-9)
        assert ent.converged is False
        assert ent.marginals().source_residual > 1e-9

    def test_bad_arguments_rejected(self):
        _, mu, nu, C = small_instance()
        with pytest.raises(ValueError):
            transport.solve_entropic(mu, nu, C, eps_reg=0.0)
        with pytest.raises(ValueError):
            transport.solve_entropic(mu, nu, C, eps_reg=1.0, max_iter=0)

    @staticmethod
    def count_calls(monkeypatch, solve, *args, **kwargs):
        """``solve``'s result and the number of logsumexp calls it makes,
        through ``transport.logsumexp`` or this module's scipy import."""
        calls = []

        def counting(fn):
            def wrapper(*a, **kw):
                calls.append(1)
                return fn(*a, **kw)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(transport, "logsumexp", counting(transport.logsumexp))
            m.setattr(sys.modules[__name__], "logsumexp",
                      counting(logsumexp))
            result = solve(*args, **kwargs)
        return result, len(calls)

    @pytest.mark.parametrize("max_iter, stages", [(7, 1), (20000, 5)])
    def test_one_logsumexp_call_per_stage(self, monkeypatch, max_iter,
                                          stages):
        """With the scalings in range, the one log-sum-exp of a stage is
        its opening f-update; the iterations are mat-vecs.  At this reg
        the schedule has five stages, and the first takes more than seven
        iterations, which a log-sum-exp per iteration would show."""
        _, mu, nu, C = small_instance(ns=30, nt=40)
        reg = 5e-3 * float(C.mean())
        assert schedule_length(C, reg) == 5
        _, calls = self.count_calls(monkeypatch, transport.solve_entropic,
                                    mu, nu, C, reg, max_iter=max_iter)
        assert calls == stages

    @pytest.mark.parametrize("shift", [30.0, 1000.0])
    @pytest.mark.parametrize("moved", ["target", "source"])
    def test_outlier_converges_as_the_reference(self, monkeypatch, moved,
                                                shift):
        """Control for the absorption.  On the first stage the column sum
        of the kernel at a target moved by 30 is 1.2e-245, below
        1/SCALING_RANGE, and at one moved by 1000 it underflows to 0, so
        the g-update is redone in the log domain: the target cases make
        more log-sum-exps than stages.  A scaling loop without that step
        divides by zero at 1000 and ends with NaN potentials.  Every case
        converges, without a numpy warning, to the oracle's plan."""
        _, mu, nu, C = outlier_instance(moved, shift)
        reg = 5e-3 * float(C.mean())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, calls = self.count_calls(
                monkeypatch, transport.solve_entropic, mu, nu, C, reg)
        assert got.converged
        self.assert_matches_reference(
            got, reference_solve_entropic(mu, nu, C, reg))
        if moved == "target":
            assert calls > schedule_length(C, reg)

    @pytest.mark.parametrize("instance, reg_factor", [
        (functools.partial(small_instance, ns=30, nt=40), 5e-3),
        (small_instance, 0.1),
    ], ids=["small_30x40", "one_stage"])
    def test_max_iter_at_the_stop_iteration(self, monkeypatch, instance,
                                            reg_factor):
        """With n the iterations the reference needs, max_iter = n stops
        converged and max_iter = n - 1 stops at the cap, both as the
        reference does: the stop test runs before the cap test."""
        _, mu, nu, C = instance()
        reg = reg_factor * float(C.mean())
        _, calls = self.count_calls(monkeypatch, reference_solve_entropic,
                                    mu, nu, C, reg)
        n = calls // 4
        assert n > 1
        self.test_agrees_with_reference(instance, reg_factor, n, True)
        self.test_agrees_with_reference(instance, reg_factor, n - 1, False)


class TestCTransform:
    def test_triple_transform_idempotent(self):
        rng = np.random.default_rng(3)
        C = rng.random((8, 11))
        phi = rng.standard_normal(8)
        psi1 = transport.c_transform(phi, C, "from_source")
        phi1 = transport.c_transform(psi1, C, "from_target")
        psi2 = transport.c_transform(phi1, C, "from_source")
        assert np.allclose(psi1, psi2, atol=1e-14)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(4)
        C = rng.random((6, 9))
        phi = rng.standard_normal(6)
        a = 0.37
        assert np.allclose(
            transport.c_transform(phi + a, C, "from_source"),
            transport.c_transform(phi, C, "from_source") - a, atol=1e-14)


def test_cut_locus_refused_in_cost():
    M = model_space(geometry.SPHERE, 2, 1.0)
    x = np.array([[1.0, 0.0, 0.0]])
    mu = transport.DiscreteMeasure(x, np.array([1.0]))
    nu = transport.DiscreteMeasure(-x, np.array([1.0]))
    with pytest.raises(CutLocusError):
        transport.cost_matrix(M, mu, nu)


@pytest.fixture(scope="module")
def annulus_run():
    M, mesh, mu, nu, C = shell_instance(600)
    cpl = transport.solve_exact(mu, nu, C)
    cert = transport.certify_support(cpl)
    assert cert.worst_violation <= 1e-8
    dmax = float(np.sqrt(2.0 * C.max()))
    grad, _ = transport.potential_gradient_on_sigma(
        mesh, cert.phi_cc, max_target_distance=dmax)
    return M, mesh, cpl, cert.phi_cc, grad


def atom_table(M, mesh, cpl):
    """(nodes, velocities log_x zeta, lengths) of the plan atoms."""
    ii, jj, _ = cpl.atoms()
    x, z = mesh.points[ii], cpl.target.points[jj]
    return ii, geometry.log_map(M, x, z), geometry.distance(M, x, z)


@pytest.mark.parametrize("scenario", ["sphere_transport",
                                      "hyperbolic_disk_r1"])
def test_atom_lengths_are_the_geodesic_distances(monkeypatch, scenario):
    """Oracle: the run's atom lengths, the norms of log_x zeta, are the
    closed-form distances d(x, zeta) on the curved model spaces."""
    contexts = []
    ibp = pipeline.CHECKS["ibp"]
    monkeypatch.setitem(pipeline.CHECKS, "ibp", ibp._replace(
        run=lambda ctx: contexts.append(ctx) or ibp.run(ctx)))
    config = ScenarioConfig.load(
        cli.bundled_scenario_path(f"{scenario}.cfg"),
        [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
         ("jacobi", "atoms", "1")])
    pipeline.run_scenario(config)
    ctx, = contexts
    ii, jj, _ = ctx.atoms
    oracle = geometry.distance(ctx.M, ctx.mesh.points[ii],
                               ctx.coupling.target.points[jj])
    assert len(oracle) > 0
    np.testing.assert_allclose(ctx.atom_distances, oracle, rtol=1e-12,
                               atol=0.0)


class TestFiberChecks:
    def test_tangency_small_and_adversarial_large(self, annulus_run):
        M, mesh, cpl, _, grad = annulus_run
        nodes, logs, _ = atom_table(M, mesh, cpl)
        fib = transport.tangency_residuals(mesh, nodes, logs, grad)
        good = fib["median"]
        # corrupting the gradient must blow the residual up by 10x
        bad = grad + np.array([5.0, -5.0])
        fib_bad = transport.tangency_residuals(mesh, nodes, logs, bad)
        assert fib_bad["median"] > 10.0 * good

    def test_fiber_mass_marginals(self, annulus_run):
        """The exact plan keeps the source marginal: its row masses are
        the source weights, and the residual is their largest gap."""
        _, _, cpl, _, _ = annulus_run
        marg = cpl.marginals()
        assert marg.source_residual < 1e-12
        assert marg.source_residual == np.abs(
            marg.row_masses - cpl.source.weights).max()

    def test_gradient_cap_flags(self, annulus_run):
        _, mesh, _, phi_cc, _ = annulus_run
        grad, flags = transport.potential_gradient_on_sigma(
            mesh, phi_cc, max_target_distance=1e-3)
        assert flags.all()
        assert np.linalg.norm(grad, axis=1).max() <= 1e-3 + 1e-12

    def test_semiconcavity_passes(self, annulus_run):
        M, mesh, cpl, phi_cc, _ = annulus_run
        margin = transport.semiconcavity_check(
            M, mesh, submanifold.lsq_hessian(mesh, phi_cc), cpl.atoms(),
            atom_table(M, mesh, cpl)[2])
        assert margin >= 0.0


def tied_atom_table(seed, size, nodes=12, targets=15):
    """A random (nodes, targets, masses) atom table whose masses take five
    values, so that ties are common; (node, target) pairs repeat too, so
    some ties are broken by the index alone."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, nodes, size), rng.integers(0, targets, size),
            rng.choice([0.1, 0.2, 0.3, 0.4, 0.5], size))


@pytest.mark.parametrize("seed", range(4))
def test_heaviest_atoms_equal_the_full_sort(seed):
    """Oracle: the heaviest-atom selection is the first k of the full
    lexsort it replaced, heaviest first, then by node, target and index,
    for k = 1, at the end of a run of equal masses, inside one, N - 1, N
    and beyond N."""
    ii, jj, mm = atoms = tied_atom_table(seed, 200)
    oracle = np.lexsort((jj, ii, -mm))
    # the end of the first run of equal masses in heaviest-first order
    run_end = int(np.sum(mm == mm.max()))
    assert 1 < run_end < len(mm) - 1
    for k in (1, run_end, run_end + 1, run_end - 1, len(mm) - 1, len(mm),
              len(mm) + 7):
        np.testing.assert_array_equal(transport.heaviest_atoms(atoms, k),
                                      oracle[:k])


@pytest.mark.parametrize("seed", range(4))
def test_assigned_distances_equal_lexsort_and_unique(seed):
    """Oracle: each node's assigned atom is the one the lexsort and unique
    it replaced picked, the first of the heaviest.  Node 3 has two
    equally heavy atoms above all others, and the last node has no atom,
    so its distance stays 0."""
    ii, jj, mm = tied_atom_table(seed, 150)
    ii, jj = np.append(ii, [3, 3]), np.append(jj, [0, 1])
    mm = np.append(mm, [0.9, 0.9])
    node_count = ii.max() + 2
    # each atom's distance names it
    lengths = np.arange(1.0, len(mm) + 1.0)
    order = np.lexsort((-mm, ii))
    nodes, first = np.unique(ii[order], return_index=True)
    expected = np.zeros(node_count)
    expected[nodes] = lengths[order[first]]
    got = transport.assigned_distances((ii, jj, mm), lengths, node_count)
    np.testing.assert_array_equal(got, expected)
    assert got[3] == len(mm) - 1 and got[-1] == 0.0


def test_no_sort_of_the_atom_table(monkeypatch):
    """Atom selection is linear in the atom count: on a shrunk entropic
    run, whose plan is dense, no ``np.lexsort``, ``np.argsort`` or
    ``np.unique`` call receives an array as long as the atom table."""
    shapes = []
    for name in ("lexsort", "argsort", "unique"):
        def traced(a, *args, fn=getattr(np, name), **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        monkeypatch.setattr(np, name, traced)
    config = ScenarioConfig.load(
        cli.bundled_scenario_path("flat_disk_annulus.cfg"),
        [("solver", "method", "entropic"), ("submanifold", "resolution", "6"),
         ("domain", "samples", "150"), ("jacobi", "atoms", "20")])
    checks = pipeline.run_scenario(config).checks
    atom_count = checks["certification"]["atom_count"]
    assert checks["jacobi"]["atom_count"] == 20 and atom_count > 1000
    assert "semiconcavity" in checks and shapes
    assert [shape for shape in shapes if atom_count in shape] == []
