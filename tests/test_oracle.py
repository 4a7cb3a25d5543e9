"""Fair-optimal solvers, the worked example's closed forms, and the ledger."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairprice import (
    AcceptanceModel,
    EliminationLedger,
    FpaAgent,
    FpaConfig,
    LedgerEntry,
    MarketConfig,
    OracleConfig,
    PolicyPair,
    PriceGrid,
    alpha_bounds,
    best_fixed_price,
    closed_form_example_optimum,
    empirical_optimizer,
    eps_family_policy,
    example1_market,
    example_eps_market,
    example_revenue_surface,
    expected_revenue,
    fixed_price_policy,
    lowerbound_family_market,
    max_probability_policies,
    max_probability_policy,
    member,
    procedural_gap,
    run_episode,
    solve_fair_optimal,
    solve_relaxed_optimal,
    substantive_gap,
)
from fairprice import oracle
from fairprice.core import GroupDistribution
from fairprice.linsolve import OPTIMAL, LinearProgram, lp_maximize, vertex_enumerate
from fairprice.oracle import ParamPoint
from fairprice.validation import brute_force_fair_optimal

EPS_GRID = (0.0, 0.01, 0.03, 0.05)


# ---------------------------------------------------------------------------
# closed forms of the worked example
# ---------------------------------------------------------------------------

def test_closed_form_base_values(example_closed_form):
    opt = example_closed_form
    assert opt.revenue == pytest.approx(74.0 / 145.0, abs=1e-12)
    assert opt.v_s == pytest.approx(8.0 / 11.0, abs=1e-12)
    assert opt.alpha == pytest.approx(9.0 / 638.0, abs=1e-12)
    np.testing.assert_allclose(opt.policy.weights(1),
                               [20.0 / 29.0, 0.0, 9.0 / 29.0], atol=1e-12)
    np.testing.assert_allclose(opt.policy.weights(2),
                               [0.0, 25.0 / 29.0, 4.0 / 29.0], atol=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_closed_form_is_doubly_fair_and_self_consistent(eps):
    market = example_eps_market(eps)
    opt = closed_form_example_optimum(eps)
    assert procedural_gap(market.grid, opt.policy) <= 1e-12
    assert substantive_gap(market, opt.policy) <= 1e-12
    assert expected_revenue(market, opt.policy) == pytest.approx(opt.revenue, abs=1e-12)
    assert example_revenue_surface(eps, opt.v_s, opt.alpha) == pytest.approx(
        opt.revenue, abs=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_family_reconstruction_matches_closed_form(eps):
    opt = closed_form_example_optimum(eps)
    rebuilt = eps_family_policy(eps, opt.v_s, opt.alpha)
    np.testing.assert_allclose(rebuilt.weights(1), opt.policy.weights(1), atol=1e-12)
    np.testing.assert_allclose(rebuilt.weights(2), opt.policy.weights(2), atol=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_optimal_premium_sits_inside_its_feasible_band(eps):
    opt = closed_form_example_optimum(eps)
    bounds = alpha_bounds(eps, opt.v_s)
    assert bounds.feasible
    assert bounds.lower - 1e-12 <= opt.alpha <= bounds.upper + 1e-12


def test_family_rejects_infeasible_premiums():
    opt = closed_form_example_optimum(0.0)
    bounds = alpha_bounds(0.0, opt.v_s)
    with pytest.raises(ValueError):
        eps_family_policy(0.0, opt.v_s, bounds.upper + 0.05)


def test_closed_form_domain_checks():
    for eps in (-0.01, 0.051, 0.5):
        with pytest.raises(ValueError):
            closed_form_example_optimum(eps)
    with pytest.raises(ValueError):
        example_revenue_surface(0.0, 0.5, 0.01)       # v_s below the pole
    with pytest.raises(ValueError):
        example_revenue_surface(0.0, 1.0, 0.01)       # at the pole
    with pytest.raises(ValueError):
        example_revenue_surface(0.0, 0.8, -0.01)      # negative premium
    with pytest.raises(ValueError):
        alpha_bounds(0.0, 0.625)


def test_param_point_exposes_proposed_mean():
    pt = ParamPoint(0.7, 0.02)
    assert pt.v_r == pytest.approx(0.72, abs=1e-15)


# ---------------------------------------------------------------------------
# the exact solver
# ---------------------------------------------------------------------------

def test_scan_reproduces_the_example_optimum(example_market, example_solution,
                                             example_closed_form):
    sol, opt = example_solution, example_closed_form
    assert sol.revenue == pytest.approx(74.0 / 145.0, abs=1e-12)
    for g in (1, 2):
        np.testing.assert_allclose(sol.policy.weights(g), opt.policy.weights(g),
                                   atol=1e-10)
    assert procedural_gap(example_market.grid, sol.policy) <= 1e-9
    assert substantive_gap(example_market, sol.policy) <= 1e-9
    assert sol.point.v_s == pytest.approx(8.0 / 11.0, abs=1e-10)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_scan_tracks_the_family_across_eps(eps):
    market = example_eps_market(eps)
    sol = solve_relaxed_optimal(market, 0.0)
    assert sol.revenue == pytest.approx(closed_form_example_optimum(eps).revenue,
                                        abs=1e-10)


def _statement_lp(market, delta, v_s, objective, entries=()):
    """The anchor LP at v_s, built from the problem statement rather than the
    solver's code: both groups sum to one, equal proposed means, group 1's
    accepted mean at v_s, group 2's within delta of it (linearized), and each
    snapshot's revenue floor."""
    v, q = market.grid.prices, market.q
    f1, f2 = market.accept.group1, market.accept.group2
    zero, one = np.zeros(v.size), np.ones(v.size)
    band = (v - v_s) * f2
    floors = [-np.r_[q * v * e.fhat.group1, (1 - q) * v * e.fhat.group2] for e in entries]
    return LinearProgram(
        objective,
        a_ub=[np.r_[zero, band - delta * f2], np.r_[zero, -band - delta * f2]] + floors,
        b_ub=[0.0, 0.0] + [-e.revenue_floor for e in entries],
        a_eq=[np.r_[one, zero], np.r_[zero, one], np.r_[v, -v],
              np.r_[(v - v_s) * f1, zero]],
        b_eq=[1.0, 1.0, 0.0, 0.0])


def _revenue_weights(market):
    v, q = market.grid.prices, market.q
    return np.r_[q * v * market.accept.group1, (1 - q) * v * market.accept.group2]


def _anchor_lp_value(market, delta, v_s):
    """Optimum of the anchor LP at v_s by brute-force vertex enumeration."""
    return vertex_enumerate(_statement_lp(market, delta, v_s, _revenue_weights(market))).value


def test_relaxed_solver_is_monotone_in_the_band(example_market, example_solution):
    revenues = [example_solution.revenue]
    for delta in (0.005, 0.02):
        sol = solve_relaxed_optimal(example_market, delta)
        assert substantive_gap(example_market, sol.policy) <= delta + 1e-9
        revenues.append(sol.revenue)
    assert revenues == sorted(revenues)
    # frozen regression value for the mid band (the last solve), equal to the
    # vertex optimum of the anchor LP at the v_s it reports
    assert revenues[2] == pytest.approx(0.512, abs=1e-9)
    assert revenues[2] == pytest.approx(
        _anchor_lp_value(example_market, 0.02, sol.point.v_s), abs=1e-12)
    with pytest.raises(ValueError):
        solve_relaxed_optimal(example_market, -0.01)


def _random_market(rng, d):
    while True:
        prices = np.sort(rng.uniform(0.2, 1.0, d))
        if np.all(np.diff(prices) >= 0.04):
            break
    curves = [np.sort(rng.uniform(0.15, 0.95, d))[::-1] for _ in (1, 2)]
    return MarketConfig(PriceGrid(prices), AcceptanceModel(*curves),
                        q=float(rng.uniform(0.2, 0.8)))


@pytest.mark.parametrize("d", [5, 8])
def test_general_solver_handles_wide_grids(d):
    """The general-d search's LPs take 2d variables; d <= 8 must fit."""
    market = _random_market(np.random.default_rng(d), d)
    sol = solve_fair_optimal(market)
    assert procedural_gap(market.grid, sol.policy) <= 1e-9
    assert substantive_gap(market, sol.policy) <= 1e-9
    assert sol.revenue >= best_fixed_price(market)[1] - 1e-12
    assert sol.revenue == pytest.approx(expected_revenue(market, sol.policy), abs=1e-12)


@pytest.mark.parametrize("d, seeds", [(3, (74, 108, 0, 1, 2)), (4, (95, 145, 0, 1, 2)),
                                      (5, (5, 93, 0, 1, 2)), (6, (21, 105, 0, 1, 2))],
                         ids=["d3", "d4", "d5", "d6"])
def test_walk_reaches_the_best_of_dense_anchors(d, seeds):
    """The walk in v_s is exact: on random markets its optimum is at least
    the best LP optimum over 1,001 evenly spaced anchors, and at d = 3 it is
    the vertex optimum of the anchor LP at the v_s it reports.  The first two
    seeds of each d give markets whose optimum is a stationary point inside
    one basis, not a breakpoint."""
    for seed in seeds:
        market = _random_market(np.random.default_rng(seed), d)
        v = market.grid.prices
        for delta in (0.0, 0.03):
            sol = solve_relaxed_optimal(market, delta)
            dense = max(res.value for res in (
                lp_maximize(_statement_lp(market, delta, v_s, _revenue_weights(market)))
                for v_s in np.linspace(v[0], v[-1], 1001)) if res.status == OPTIMAL)
            assert sol.revenue >= dense - 1e-12, (seed, delta)
            if d == 3:
                assert sol.revenue == pytest.approx(
                    _anchor_lp_value(market, delta, sol.point.v_s), abs=1e-12)


def test_searches_solve_few_lps(monkeypatch):
    """One LP per basis the walk crosses, not one per anchor of a grid (the
    seed grid took 203 per search), and a vertex re-solve only for the
    candidates that can still win (scoring every candidate took 6 and 6).
    The counts are deterministic."""
    calls, vertices = [], []
    real, real_vertex = oracle.lp_maximize, oracle._Rows.vertex
    monkeypatch.setattr(oracle, "lp_maximize", lambda lp: calls.append(lp) or real(lp))
    monkeypatch.setattr(oracle._Rows, "vertex",
                        lambda rows, x: vertices.append(x) or real_vertex(rows, x))
    solve_fair_optimal(lowerbound_family_market(2, 4, 100_000))
    assert 0 < len(calls) <= 40
    assert 0 < len(vertices) <= 4
    calls.clear()
    vertices.clear()
    solve_relaxed_optimal(_random_market(np.random.default_rng(4), 4), 0.03)
    assert 0 < len(calls) <= 40
    assert 0 < len(vertices) <= 3


def _golden_solve(name):
    """The market and band a GOLDEN_SOLVES key names: ``eps-<eps>-<delta>``,
    ``hard-<d>-<delta>`` (lowerbound_family_market(2, d, 1e5)) or
    ``random-<d>-<seed>-<delta>`` (_random_market)."""
    kind, *args = name.split("-")
    if kind == "eps":
        return example_eps_market(float(args[0])), float(args[1])
    if kind == "hard":
        return lowerbound_family_market(2, int(args[0]), 100_000), float(args[1])
    d, seed, delta = args
    return _random_market(np.random.default_rng(int(seed)), int(d)), float(delta)


def _solve_digest(market, delta):
    """SHA-256 of a relaxed solve's revenue, weights and point, and of the
    number of LPs it solved."""
    with mock.patch.object(oracle, "lp_maximize", wraps=oracle.lp_maximize) as spy:
        sol = solve_relaxed_optimal(market, delta)
    p = sol.point
    bits = np.r_[sol.revenue, sol.policy.weights(1), sol.policy.weights(2), p.v_s, p.alpha, p.beta]
    return hashlib.sha256(bits.tobytes() + str(spy.call_count).encode()).hexdigest()


# _solve_digest of each solve, recorded at commit f1d4455.  A change meant to
# keep the search's bits and LP count must keep these; one that moves them on
# purpose records the new digests here and says why.
GOLDEN_SOLVES = {
    "eps-0-0": "e57f3e169098ee8a6bc33e48d11cf2aad03d81ceb6aaa462d640eb6799bfd378",
    "eps-0-0.01": "983fb83c75e8cb22196bc3e4c9ccffc7727e76ebabda725ad1409a6c4cf6534d",
    "eps-0-0.03": "e9fe9a0a33a4b45699b87760e9669131d87b4633f9b3c0a52725b73bbd5ea091",
    "eps-0.0001-0": "b8a6e548a7ca475725f9917019adc105c097a22c620c4031d8009d3efeb73fb7",
    "eps-0.0001-0.01": "b323e5d00a3eb60cde7490257b6d4db534f6c5c26dcd827a2e1690b2d5be4a3b",
    "eps-0.0001-0.03": "2ef2387cadf380108408904f28af4b1957b266d2d31365c2d89249d6a4ca9e39",
    "eps-0.001-0": "4bb931ccc3927b90a21aab4fde2b4e6153ca8903a15eba75e12141c3890e8046",
    "eps-0.001-0.01": "59962b3120ac9776ec2aa6eab492af68b7fae9ccb3af6843bf87f95c03f60aaf",
    "eps-0.001-0.03": "94078a9425ad5650593dcff862217028a7f9e91f16fab0a78bb692cb4d9ae76c",
    "eps-0.01-0": "b0488a26bb85d6c14368f9cd85202893edbf9fafb343524f55c064c0a0947be3",
    "eps-0.01-0.01": "ebe7518cbaaae8de466f58031e409eb0adcdb70724761d56f4810eba784dead6",
    "eps-0.01-0.03": "0ec9e471d66ebc8ae68fda0f0f0a6a46de79a163e0754426ab9c35608d6e641b",
    "hard-4-0": "0c16191f18067eb04adb685efd8ebfce414d806990a43087305dfe608b752418",
    "hard-4-0.03": "0c16191f18067eb04adb685efd8ebfce414d806990a43087305dfe608b752418",
    "hard-5-0": "0f95658187343bfbb3d1d483ac562d98377dbbec6c9ada1d5bb99957f281be7d",
    "hard-5-0.03": "0f95658187343bfbb3d1d483ac562d98377dbbec6c9ada1d5bb99957f281be7d",
    "random-3-0-0": "18b5e2c151a0118ffd4c92268c0ecafbeda632d83ca85542db866cc7249d19a5",
    "random-3-0-0.03": "80184dcfe42df6cd7237dafc376428f10ccb0716111e4cc7168f823cbfe92755",
    "random-3-1-0": "b09f8ca70a4f8a6be9c883bb8bfc25923e507814afdec053b4a78ca6603df423",
    "random-3-1-0.03": "1451cde52791cd4f2c32724cc70a2700ae3e44694a33a3aa0245a904501166af",
    "random-3-2-0": "96ed18a588fa4a5c4e541bd96870243d9bbf45203865a66e3f410574528b65a7",
    "random-3-2-0.03": "cc9a96c3531a3bd1e11324fbd71f647bc6382bcf19b8f1ae3dc416ba61535caf",
    "random-3-3-0": "96f8989e3049b776acf8c2de5867d5ea3da29aca6c46696bbdcded122d56b567",
    "random-3-3-0.03": "1d08578743e50968c88fa8edcfdebe67d4e79411082a101fa0388089c9077918",
    "random-3-4-0": "0c387eebe40c17ec6e93f4947b3f90269de5d55a57784bea34685b01cde1518a",
    "random-3-4-0.03": "54711e29444f5f20703cf689c5c8ac93f4062a48facec8be5017707cd18aa166",
    "random-4-0-0": "5eb7f5e7ed71bbef1cf731bc5931a27f5da2627ca18976c3b8299f21a01416cb",
    "random-4-0-0.03": "ddeda93198600830fc730a8086ba268c0a1b6f654f2e033f3be29ba60cade870",
    "random-4-1-0": "74b8e6fb28eb86e1ba4b314fd18a9baa82d3cbd970a48149bfcdf12ee804110d",
    "random-4-1-0.03": "74b8e6fb28eb86e1ba4b314fd18a9baa82d3cbd970a48149bfcdf12ee804110d",
    "random-4-2-0": "0a86edc82c7f2f7be6530c4b441c964ae8c9f27178e0b64dcb104ad11addf979",
    "random-4-2-0.03": "dfd128283d9991d2f458c5b2d2ab79d960a9f22348b495b0aad7090047890c89",
    "random-4-3-0": "cd97cd6688a4349a4edc3558a25a99534c6b8df454ed71cec6c8e1a2cd87d39f",
    "random-4-3-0.03": "067c703311f3d492ac56ec50aba917d4f2391820b17ef0a0def27c42ce0c033f",
    "random-4-4-0": "b8f78c6184f8a695570a1dcbc3b2163a4f5f1e480f878d10984b6479d86eda49",
    "random-4-4-0.03": "b8f78c6184f8a695570a1dcbc3b2163a4f5f1e480f878d10984b6479d86eda49",
    "random-5-0-0": "2650a0ce18b0f78e5f9532a0b725183d9c179d5361c0edf43b57ef50dde3452a",
    "random-5-0-0.03": "5a3fcee85e985666a012f1ff0a4122a519032a6a9c8067e8634f4b99e34ac823",
    "random-5-1-0": "9ddda38cdaaee860ed1eff058d143d2eec695e478af8d6e01cbb9fdae4d3dce0",
    "random-5-1-0.03": "9ddda38cdaaee860ed1eff058d143d2eec695e478af8d6e01cbb9fdae4d3dce0",
    "random-5-2-0": "387f3f67fb90dd4ac06c5e95263e15ccae3630b92012a09ebabc5b1db08a99a0",
    "random-5-2-0.03": "b200be3f336a80dbd8dc1906f07b98a5407a340e11e74333d147ec867dec1611",
    "random-5-3-0": "be78e38e982f2a519d0a525e4b6de7936e2638f4920c0f7aa5f46bbd1115d418",
    "random-5-3-0.03": "ccdbbf900e5cca71e73775cc44482e27d35e8efdea4d2276adfdbc6dc1e52dc0",
    "random-5-4-0": "a85eda2c77093e8e1aba7cb1d4a9d875899ab34baaeb89a42abb2e719aab6ab1",
    "random-5-4-0.03": "264039eb8fd04d34dce99746533d0806ad1a7a31ffcab48542c32ac7b5e9251b",
    "random-6-0-0": "cb980b2523b7c4ee2df30b6b6accda48245f04cd2ca1a38698c04eab91184cd8",
    "random-6-0-0.03": "03b98a11b7486e87c436ced8d81f153e92c4abfe303944cf6c756b59615255b7",
    "random-6-1-0": "9f8cf8e6ded291fa891d6820c542c9bcf7408f89e203662d90276ab815b493db",
    "random-6-1-0.03": "f9d74610b447b27de3c21fccb7316e1c33001c9b2c2ff73380f14ecb4c879ca7",
    "random-6-2-0": "94e39d356a4249bd56a9539de09fc8f73e5d96f0babf7902171506663e2a99af",
    "random-6-2-0.03": "863bfcf7846d3a707bbdab91e0b5a2fdc6487241eecb45855bc2a958e04ae8dd",
    "random-6-3-0": "da0b30b3766af7e0e69cf97454f6226594b74ece57c3d1497ba1c3566c24cb8f",
    "random-6-3-0.03": "f2e5d8441ebe99d2bc642206b5f811c5453becf1c9d078e02209384f1aba9969",
    "random-6-4-0": "d99da68270eb39c9757c3a13a5aedf38e4dbb648a4db6800c0e29f05ed1ffaec",
    "random-6-4-0.03": "b468bf8a85898747b0660084b8e3b7645e808dc67e6775db2255464eacdc6192",
    "random-7-0-0": "838b41677a1e446bab47695066a509b2650d203a9842f069ed4bfe34a4f0f626",
    "random-7-0-0.03": "e94dac3374c07592ba14df8ddc3f97b49d7022d0c39e5e690bec52a11cd1f417",
    "random-7-1-0": "ae133f7935d7554e4527e2a0c6332b5e08f97c191494ef416ed53523f1b1d9be",
    "random-7-1-0.03": "07bcf3428e309eb757ea3c37910598cb1332172e57bc5c507822aae010c50027",
    "random-7-2-0": "70ffc4c18363435105f40b407ea14b2b58d73b27c04fadcab79e4310f335af5a",
    "random-7-2-0.03": "d01889823ddf691e0c3a7a71649cc9425e9e64893bd059114e0e5490b5f0367d",
    "random-7-3-0": "78c23f81df304283af513675dd4a57e34d27ab404c8f13fecfc85dab772d3899",
    "random-7-3-0.03": "34525aa99d9de24b88b39c084e98e10be8dc55a7324a306cc722751548f0cde2",
    "random-7-4-0": "6038f2a43e707d6a35b58393c3193608c2eab2401ca501c4c192a5dac39cea5f",
    "random-7-4-0.03": "55cc87dbc0ec581caa38ca6808057f6533315fba80157c0c567a3d5adb3445b7",
    "random-8-0-0": "090bae65cb7fe920b5f4adee7af4241c3ba473c399a10e81d77086b3f97dc8e8",
    "random-8-0-0.03": "f537f4761fedf64294e2ecf7381214d222432b622ff64abedebeec7f2841b4b0",
    "random-8-1-0": "152c2d36ffbfc7fa6d81a1e051681a535793600fac43c8783c1b40f0d88595e8",
    "random-8-1-0.03": "11b2fb67d1298fd07e654cc6d5b1e925e828a16f0691964f97e20283e83e2c58",
    "random-8-2-0": "79ebbdb6be94bdb7b26e3b121c9b62cf567aadcb543f699127f2e5b6ed71bd0f",
    "random-8-2-0.03": "344fc47a644cdcc12d95eaf22434f79a7459ca65448cce5fded9da01d7f12960",
    "random-8-3-0": "fc7cdece38562542a5e1e359eb9cf2013f596cd6fbf6955842dd33b0ab243bfb",
    "random-8-3-0.03": "fcbc5385dbe0cf74ba8176ea4ac14f09f5efe3dad6b73050bab4f0d7e16c1c22",
    "random-8-4-0": "bd454155a5d9f67737d7920c44a353338213a64929d909e730f916960f759e55",
    "random-8-4-0.03": "0a23938905bff44d9006945d3c7a3508418a5a55ac05c5489c4fa4e2d26d6dc8",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVES))
def test_solve_bits_match_the_golden_digests(name):
    assert _solve_digest(*_golden_solve(name)) == GOLDEN_SOLVES[name]


def _roots_one_at_a_time(polys, lo, hi):
    """The walk's root finding before it was batched: np.roots on each
    polynomial, after dropping leading coefficients below 1e-10 of its
    largest."""
    found = []
    for poly in polys:
        big = np.flatnonzero(np.abs(poly) > 1e-10 * np.max(np.abs(poly), initial=0.0))
        if big.size == 0 or big[0] >= poly.size - 1:
            continue
        roots = np.roots(poly[big[0]:])
        roots = roots.real[np.abs(roots.imag) <= 1e-7]
        found += list(roots[(roots >= lo) & (roots <= hi)])
    return np.sort(found)


@st.composite
def polynomial_lists(draw):
    """Up to six polynomials of 1-9 coefficients: some with a leading
    coefficient at 1e-12 of the largest, some with exact trailing zeros,
    some all zero."""
    polys = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, 9))
        coef = st.one_of(st.just(0.0), st.floats(-100.0, 100.0, allow_subnormal=False))
        poly = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
        if n > 1 and draw(st.booleans()):
            poly[0] = 1e-12 * np.max(np.abs(poly))
        poly[n - draw(st.integers(0, n)):] = 0.0
        polys.append(poly)
    return polys


@settings(max_examples=300)
@given(polynomial_lists(), st.floats(-5.0, 0.0), st.floats(0.0, 5.0))
def test_batched_roots_are_the_roots_of_each_polynomial(polys, lo, hi):
    """One stack of companion matrices per degree finds, bit for bit, the
    roots np.roots finds one polynomial at a time; shorter polynomials are
    padded with leading zeros into one array."""
    width = max((p.size for p in polys), default=1)
    stack = np.zeros((len(polys), width))
    for row, poly in zip(stack, polys):
        row[width - poly.size:] = poly
    assert np.array_equal(oracle._real_roots(stack, lo, hi), _roots_one_at_a_time(polys, lo, hi))
    # No rows at all, at any width: no roots, as floats.
    none = oracle._real_roots(np.zeros((0, max(width, 5))), lo, hi)
    assert none.shape == (0,) and none.dtype == np.float64


@st.composite
def random_markets(draw, d=None):
    """A valid market with d in 1..8: spaced prices in (0, 1], nonincreasing
    curves above the default floor, a non-extreme group mix."""
    d = draw(st.integers(1, 8)) if d is None else d
    low = draw(st.floats(0.05, 0.6))
    steps = draw(st.lists(st.floats(0.01, 0.2), min_size=d - 1, max_size=d - 1))
    prices = low + np.r_[0.0, np.cumsum(steps)]
    prices /= max(1.0, prices[-1])

    def curve():
        start = draw(st.floats(0.1, 1.0))
        ratios = draw(st.lists(st.floats(0.3, 1.0), min_size=d - 1, max_size=d - 1))
        return np.maximum(start * np.cumprod(np.r_[1.0, ratios]), 0.06)

    return MarketConfig(PriceGrid(prices), AcceptanceModel(curve(), curve()),
                        q=draw(st.floats(0.05, 0.95)))


@settings(max_examples=25)
@given(random_markets())
def test_solutions_are_fair_and_bracketed_on_random_markets(market):
    v = market.grid.prices
    fixed = best_fixed_price(market)[1]
    ceiling = (market.q * float(np.max(v * market.accept.group1))
               + (1 - market.q) * float(np.max(v * market.accept.group2)))
    revenues = []
    for delta in (0.0, 0.01, 0.03):
        sol = solve_relaxed_optimal(market, delta)
        assert procedural_gap(market.grid, sol.policy) <= 1e-9
        assert substantive_gap(market, sol.policy) <= delta + 1e-9
        assert sol.revenue == expected_revenue(market, sol.policy)
        assert fixed - 1e-12 <= sol.revenue <= ceiling + 1e-12
        revenues.append(sol.revenue)
    assert revenues == sorted(revenues)  # no slack, as the benchmark checks it


@settings(max_examples=15)
@given(random_markets(d=3))
def test_solutions_beat_the_dense_enumeration_on_random_markets(market):
    dense_revenue, _, _ = brute_force_fair_optimal(market, step=0.02)
    assert solve_fair_optimal(market).revenue >= dense_revenue - 1e-9


# ---------------------------------------------------------------------------
# lazy candidate scoring: the same bits as re-solving every candidate
# ---------------------------------------------------------------------------

def _search_bits(market, fhat, ledger, delta):
    """Every public search on one ledger, as bytes: the relaxed solve of the
    market, the revenue search and three probes under fhat."""
    d = market.grid.d
    sol = solve_relaxed_optimal(market, delta)
    out = [np.r_[sol.revenue, sol.policy.weights(1), sol.policy.weights(2)].tobytes(), sol.point]
    opt = empirical_optimizer(fhat, ledger, delta)
    out += [np.r_[opt.revenue_hat, opt.policy.weights(1), opt.policy.weights(2)].tobytes(),
            opt.point, opt.ledger_infeasible]
    for res in max_probability_policies([(0, 1), (d // 2, 2), (d - 1, 2)], fhat, ledger, delta):
        out += [res.achieved_prob, res.point, res.ledger_infeasible]
        if res.policy is not None:
            out.append(np.r_[res.policy.weights(1), res.policy.weights(2)].tobytes())
    return out


def _noisy_snapshot(market, rng, epoch, delta_s, noise=0.05):
    """A snapshot made with estimates off the market's curves by normal
    noise, its floor 0.03 under the best fixed price's estimated revenue."""
    curves = [np.sort(np.clip(f + rng.normal(0.0, noise, f.size), 0.05, 1.0))[::-1].copy()
              for f in (market.accept.group1, market.accept.group2)]
    fhat = AcceptanceModel(*curves)
    v, q = market.grid.prices, market.q
    floor = float(np.max(q * v * fhat.group1 + (1.0 - q) * v * fhat.group2)) - 0.03
    return LedgerEntry(epoch, fhat, delta_s, floor)


@pytest.mark.parametrize("d", range(2, 9))
def test_lazy_scoring_gives_the_bits_of_scoring_every_candidate(d, monkeypatch):
    """The walk re-solves only the candidates whose fitted value can still
    win; with the stop margin at infinity it re-solves all of them.  Both
    give the same bytes on ledgers of 0, 1 and 2 snapshots (d = 3 with
    snapshots takes the scan, which has no candidates to skip)."""
    market = _random_market(np.random.default_rng(40 + d), d)
    rng = np.random.default_rng(d)
    entries = [_noisy_snapshot(market, rng, k + 1, 0.05 / (k + 1)) for k in range(2)]
    for n in range(3):
        ledger = EliminationLedger(market.grid, market.q, entries[:n])
        fhat = entries[n - 1].fhat if n else market.accept
        delta = entries[n - 1].delta_s if n else 0.03
        lazy = _search_bits(market, fhat, ledger, delta)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_RESOLVE_MARGIN", np.inf)
            assert _search_bits(market, fhat, ledger, delta) == lazy, n


def test_lazy_scoring_passes_over_candidates_a_snapshot_rejects(monkeypatch):
    """A snapshot band rejects the best fitted candidates: with the band
    pieces switched off every candidate of a basis is listed, so those
    outside an old snapshot's band reach the membership test and fail it.
    The lazy walk goes on down the list to the same result as re-solving
    every candidate."""
    market = _random_market(np.random.default_rng(2), 4)
    old = _noisy_snapshot(market, np.random.default_rng(102), 1, 0.01, noise=0.1)
    ledger = EliminationLedger(market.grid, market.q, [old])
    monkeypatch.setattr(oracle, "_band_pieces",
                        lambda v, entries, weights, lo, hi: (np.array([lo]), np.array([hi])))
    fitted, real = [], oracle._basis_points

    def basis_points(*args):
        points, values = real(*args)
        fitted.extend(values)
        return points, values

    monkeypatch.setattr(oracle, "_basis_points", basis_points)
    lazy = _search_bits(market, market.accept, ledger, 0.05)
    fitted.clear()
    best = empirical_optimizer(market.accept, ledger, 0.05)
    assert max(fitted) > best.revenue_hat + 1e-3  # the best fitted candidates were rejected
    monkeypatch.setattr(oracle, "_RESOLVE_MARGIN", np.inf)
    solved, real_point = [], oracle._Rows.basis_point
    monkeypatch.setattr(oracle._Rows, "basis_point",
                        lambda rows, *basis: solved.append(basis) or real_point(rows, *basis))
    fitted.clear()
    empirical_optimizer(market.accept, ledger, 0.05)
    assert len(solved) == len(fitted)  # at infinity every candidate is re-solved
    assert _search_bits(market, market.accept, ledger, 0.05) == lazy


@pytest.mark.parametrize("delta,bases", [(0.0, 3), (0.01, 7), (0.03, 2)])
def test_the_walk_fits_each_basis_once(delta, bases, monkeypatch):
    """The example's optimum sits where the fair LP's feasible stretch ends
    (v_s = 8/11), so the walk nudges past a degenerate vertex and meets the
    same trial bases again: each is fitted once per search all the same."""
    fits, real = [], oracle._fit_basis

    def fit_basis(nodes, rows, cols):
        # n_eq tells the two phases' nodes apart (phase 1 has two fewer)
        fits.append((nodes.n_eq, tuple(rows), tuple(cols)))
        return real(nodes, rows, cols)

    monkeypatch.setattr(oracle, "_fit_basis", fit_basis)
    solve_relaxed_optimal(example_eps_market(0.0), delta)
    assert len(set(fits)) == len(fits) == bases


def test_a_basis_offers_no_point_where_it_is_singular():
    """Where a fitted basis's D vanishes its weights N / D have a pole, so
    it offers no candidate there: of the two ends of its stretch, the one
    1e-13 past D's root is dropped and the other kept."""
    v = np.array([0.5, 1.0])
    coef = np.zeros((5, 3))
    coef[3:, 0] = [1.0, -0.25]  # D = u - 0.25
    coef[4, 1:] = 1.0           # both weights' numerators are 1
    points, fitted = oracle._basis_points(v, [], coef, [0, 2], 0.25 + 1e-13, 1.0,
                                          (np.eye(4)[0],))
    assert points.tolist() == [1.0] and fitted.tolist() == [1.0 / 0.75]


@pytest.mark.parametrize("market", [example_eps_market(0.0), lowerbound_family_market(2, 4, 1e5)],
                         ids=["example", "hard-d4"])
def test_the_walk_keeps_the_first_of_tied_candidates(market, monkeypatch):
    """Every candidate ties on (value, revenue), and each basis lists one
    point, the start of its stretch, fitted higher the later it comes: the
    search returns the first candidate in walk order, the one at the
    lowest v_s, not the first one re-solved or the last one walked."""
    rows, starts, real = [], [], oracle._row_from_weights

    def row_from_weights(*args):
        rows.append(real(*args))
        rows[-1].value = rows[-1].revenue = 0.0
        return rows[-1]

    def basis_points(v, entries, coef, cols, lo, hi, objectives):
        starts.append(lo)
        return np.array([lo]), np.array([2.0 + lo])

    monkeypatch.setattr(oracle, "_row_from_weights", row_from_weights)
    monkeypatch.setattr(oracle, "_basis_points", basis_points)
    v, f1, f2, q = market.grid.prices, market.accept.group1, market.accept.group2, market.q
    spec = oracle._Objective(np.r_[q * v * f1, (1.0 - q) * v * f2])
    best = oracle._search_lp(v, f1, f2, q, 0.03, [], spec)
    assert len(rows) == len(starts) >= 2  # no nudged vertex: walk order is v_s order
    first = min(rows, key=lambda r: r.point.v_s)
    assert any(not np.array_equal(np.r_[r.pi1, r.pi2], np.r_[first.pi1, first.pi2])
               for r in rows)
    assert best is first


# ---------------------------------------------------------------------------
# elimination ledger and membership
# ---------------------------------------------------------------------------

def _ledger_with(market, delta_s, floor):
    ledger = EliminationLedger(market.grid, market.q)
    ledger.append(LedgerEntry(1, market.accept, delta_s, floor))
    return ledger


def test_ledger_entry_validation(example_market):
    acc = example_market.accept
    with pytest.raises(ValueError):
        LedgerEntry(-1, acc, 0.1, 0.4)
    with pytest.raises(ValueError):
        LedgerEntry(1, acc, 0.0, 0.4)        # band must be positive
    with pytest.raises(ValueError):
        LedgerEntry(1, acc, 0.1, 1.5)        # floor outside [-1, 1]
    with pytest.raises(ValueError):
        EliminationLedger(example_market.grid, q=1.0)
    ledger = EliminationLedger(PriceGrid(np.array([0.5, 1.0])), q=0.3)
    with pytest.raises(ValueError):
        ledger.append(LedgerEntry(1, acc, 0.1, 0.4))  # d = 3 entry on a d = 2 grid
    assert ledger.latest is None
    # the same check when the entries come with the ledger or the estimates with a search
    with pytest.raises(ValueError, match="estimates for 3 prices on a ledger of 2"):
        EliminationLedger(ledger.grid, 0.3, [LedgerEntry(1, acc, 0.1, 0.4)])
    fhat2 = AcceptanceModel(np.array([0.6, 0.5]), np.array([0.8, 0.5]))
    ledger3 = _ledger_with(example_market, 0.02, 0.4)
    with pytest.raises(ValueError, match="estimates for 2 prices on a ledger of 3"):
        empirical_optimizer(fhat2, ledger3, 0.02)
    with pytest.raises(ValueError, match="estimates for 2 prices on a ledger of 3"):
        max_probability_policies([(0, 1)], fhat2, ledger3, 0.02)


def test_membership_screens_band_floor_and_parity(example_market, example_closed_form):
    opt = example_closed_form
    # the optimum clears a floor below its revenue (74/145 = 0.5103...) ...
    assert member(opt.policy, _ledger_with(example_market, 0.05, 0.5))
    # ... but not one above it
    assert not member(opt.policy, _ledger_with(example_market, 0.05, 0.52))
    # unequal proposed means fail before any entry is consulted
    split = PolicyPair.from_weights([0, 0, 1], [0, 1, 0])
    assert not member(split, EliminationLedger(example_market.grid, example_market.q))
    # fixed top price: zero gaps, revenue exactly 0.5
    top = fixed_price_policy(3, 2)
    assert member(top, _ledger_with(example_market, 0.01, 0.5))
    assert not member(top, _ledger_with(example_market, 0.01, 0.501))


def test_membership_requires_every_snapshot(example_market, example_closed_form):
    ledger = _ledger_with(example_market, 0.05, 0.4)
    ledger.append(LedgerEntry(2, example_market.accept, 0.05, 0.52))
    assert len(ledger) == 2 and ledger.latest.epoch == 2
    assert not member(example_closed_form.policy, ledger)


# ---------------------------------------------------------------------------
# empirical optimization under estimated curves
# ---------------------------------------------------------------------------

def test_empirical_optimizer_recovers_scan_under_true_curves(example_market,
                                                             example_solution):
    ledger = EliminationLedger(example_market.grid, example_market.q)
    res = empirical_optimizer(example_market.accept, ledger, 0.0)
    assert not res.ledger_infeasible
    assert res.revenue_hat == pytest.approx(example_solution.revenue, abs=1e-9)


def test_empirical_optimizer_falls_back_when_nothing_survives(example_market):
    ledger = _ledger_with(example_market, 0.01, 0.99)  # floor nothing can clear
    res = empirical_optimizer(example_market.accept, ledger, 0.01)
    assert res.ledger_infeasible
    # fallback is the best fixed price by estimated revenue
    np.testing.assert_array_equal(res.policy.weights(1), [0, 0, 1])
    assert res.revenue_hat == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        empirical_optimizer(example_market.accept, ledger, -0.1)


def test_optimizer_handles_non_monotone_estimates(example_market):
    """Count-based snapshots need not be monotone (an unsampled price can sit
    at the floor); the optimizer must still search them, not crash or shrink."""
    fhat = AcceptanceModel.from_estimates([0.6, 0.05, 0.5], [0.8, 0.05, 0.5],
                                          f_min=0.025)
    ledger = _ledger_with(example_market, 0.05, 0.45)
    res = empirical_optimizer(fhat, ledger, 0.03)
    assert not res.ledger_infeasible
    assert member(res.policy, ledger)
    v, q = example_market.grid.prices, example_market.q
    direct = (q * float((v * fhat.group1) @ res.policy.weights(1))
              + (1 - q) * float((v * fhat.group2) @ res.policy.weights(2)))
    assert res.revenue_hat == pytest.approx(direct, abs=1e-9)


def test_optimizer_reaches_negative_premiums_on_estimates():
    """With inverted estimated curves the accepted mean exceeds the proposed
    one, so the parity optimum needs a negative premium.  A search that folds
    the premium range at zero collapses onto fixed prices and forfeits the
    randomization gain; pin the full answer against an independent grid."""
    grid = PriceGrid(np.array([0.625, 0.7, 1.0]))
    fhat = AcceptanceModel.from_estimates([0.23, 0.88, 0.36], [0.68, 0.11, 0.70],
                                          f_min=0.05)
    q = 0.77
    v = grid.prices
    res = empirical_optimizer(fhat, EliminationLedger(grid, q), 0.0)
    assert res.point.alpha < 0.0
    assert res.revenue_hat == pytest.approx(0.5729851333392454, abs=1e-9)
    assert res.revenue_hat == pytest.approx(
        _anchor_lp_value(MarketConfig(grid, fhat, q=q), 0.0, res.point.v_s), abs=1e-12)
    fixed_best = max(
        q * v[i] * fhat.group1[i] + (1 - q) * v[i] * fhat.group2[i]
        for i in range(3))
    assert res.revenue_hat > fixed_best + 0.05
    bf_revenue, _, _ = brute_force_fair_optimal(
        MarketConfig(grid, fhat, q=q), step=1e-3)
    assert res.revenue_hat == pytest.approx(bf_revenue, abs=2e-3)


# ---------------------------------------------------------------------------
# probe policies
# ---------------------------------------------------------------------------

def test_probe_policy_maximizes_weight_within_the_ledger(example_market):
    ledger = _ledger_with(example_market, 0.02, 0.48)
    res = max_probability_policy(0, 1, example_market.accept, ledger, 0.02)
    assert not res.ledger_infeasible
    assert member(res.policy, ledger)
    achieved = res.policy.weights(1)[0]
    assert res.achieved_prob == pytest.approx(achieved, abs=1e-9)
    assert 0.0 < res.achieved_prob <= 1.0


@pytest.mark.parametrize("n_probes", [1, 2, 6])
def test_a_ledger_search_screens_each_hand_picked_candidate_once(example_market, n_probes,
                                                                 monkeypatch):
    """The parity, band and ledger tests of the fixed prices do not depend
    on the objective: a d = 3 ledger search screens each fixed price once,
    however many probes it then scores them for."""
    ledger = _ledger_with(example_market, 0.02, 0.48)
    calls, real = [], oracle._clears_ledger
    monkeypatch.setattr(oracle, "_clears_ledger",
                        lambda *args: calls.append(args) or real(*args))
    probes = [(i, g) for g in (1, 2) for i in range(3)][:n_probes]
    results = max_probability_policies(probes, example_market.accept, ledger, 0.02)
    assert len(results) == n_probes and not any(r.ledger_infeasible for r in results)
    assert len(calls) == example_market.d


def test_probe_policy_flags_an_empty_surviving_set(example_market):
    ledger = _ledger_with(example_market, 0.02, 0.99)
    res = max_probability_policy(2, 2, example_market.accept, ledger, 0.02)
    assert res.ledger_infeasible
    assert res.achieved_prob == 0.0
    assert res.policy is None


def _no_cell_grid(v):
    """A premium window wholly above v_d - v_s: the proposed mean sits above
    the top price, so group 1's pin admits no cell."""
    vs_vals = np.linspace(v[0], v[-1], 7)
    return vs_vals, v[-1] - vs_vals, np.ones(7), np.linspace(0.01, 0.2, 5)


def test_scan_has_no_row_when_the_pin_admits_no_cell(example_market):
    """With no cell admitted, no objective has a row, at either band."""
    v, f, q = example_market.grid.prices, example_market.accept, example_market.q
    specs = [oracle._Objective(c) for c in np.eye(6)]
    specs.append(oracle._Objective(np.r_[q * v * f.group1, (1.0 - q) * v * f.group2]))
    entries = [LedgerEntry(1, f, 0.02, 0.4)]
    for delta in (0.0, 0.02):
        assert oracle._scan_d3(v, f.group1, f.group2, q, delta, entries, *_no_cell_grid(v),
                               specs) == [None] * len(specs)


def _pin_group(v, f, vs_vals, vr):
    """Group 1's pin tested on the whole grid vr of shape (nvs, na): pi = a +
    vr * b with rows a, b of shape (nvs, 3), and the mask of cells whose
    three weights are all >= -ROUNDING_TOL; singular rows are nan and never
    pass.  The reference for the scan's per-row premium intervals."""
    p, s, det = oracle._adjugate_cols(v, (v[None, :] - vs_vals[:, None]) * f[None, :])
    det = np.where(np.abs(det) > oracle.ROUNDING_TOL, det, np.nan)[:, None]
    a, b = p / det, s / det
    feas = np.ones(vr.shape, dtype=bool)
    for k in range(3):
        feas &= vr * b[:, k, None] + a[:, k, None] >= -oracle.ROUNDING_TOL
    return a, b, feas


def _dense_grid(vs_vals, lo, span, axis):
    """The scan's proposed means vr on the whole grid, as the scan rounds them."""
    return vs_vals[:, None] + (lo[:, None] + axis[None, :] * span[:, None])


def _dense_scan_d3(v, f1, f2, q, delta, entries, vs_vals, lo, span, axis, specs):
    """The d = 3 scan as a whole-grid mask fold: every row on every cell, no
    cell dropped, slopes broadcast to the grid.  The compacting scan must
    return the same bits."""
    vr = _dense_grid(vs_vals, lo, span, axis)
    with np.errstate(all="ignore"):
        a1, b1, feas = _pin_group(v, f1, vs_vals, vr)
        n_dir = np.array([v[2] - v[1], v[0] - v[2], v[1] - v[0]])
        p, s, det = oracle._adjugate_cols(v, n_dir)
        a2, b2 = (np.broadcast_to(m / det, (vs_vals.size, 3)) for m in (p, s))
        t_lo, t_hi = np.full(vr.shape, -np.inf), np.full(vr.shape, np.inf)

        def dot1(u):
            return vr * (b1 @ u)[:, None] + (a1 @ u)[:, None]

        def dot2(u):
            return vr * (b2 @ u)[:, None] + (a2 @ u)[:, None]

        def tighten(a, b):
            b = np.broadcast_to(b, a.shape)
            up, down = b > oracle.ROUNDING_TOL, b < -oracle.ROUNDING_TOL
            feas[...] &= up | down | (a <= oracle.ROUNDING_TOL)
            np.fmin(t_hi, -(a / b), out=t_hi, where=up)
            np.fmax(t_lo, -(a / b), out=t_lo, where=down)

        for i, e_i in enumerate(np.eye(3)):
            tighten(dot2(-e_i), -n_dir[i])
        band = (v[None, :] - vs_vals[:, None]) * f2[None, :]
        for w in (band - delta * f2[None, :], -(band + delta * f2[None, :])):
            tighten(vr * (w @ b2[0])[:, None] + (w @ a2[0])[:, None], (w @ n_dir)[:, None])
        for e in entries:
            g1, g2, width = e.fhat.group1, e.fhat.group2, e.delta_s
            num1, base_v, base_1 = dot1(v * g1), dot2(v * g2), dot2(g2)
            m1 = num1 / dot1(g1)
            dir_v, dir_1 = float(v * g2 @ n_dir), float(g2 @ n_dir)
            for sign in (1.0, -1.0):
                tighten(sign * (base_v - m1 * base_1) - width * base_1,
                        sign * (dir_v - m1 * dir_1) - width * dir_1)
            tighten(e.revenue_floor - q * num1 - (1.0 - q) * base_v, -(1.0 - q) * dir_v)
        feas &= t_lo <= t_hi + oracle.ROUNDING_TOL
        found = []
        for spec in specs:
            t_coef = spec.c[3:] if spec.t_coef is None else spec.t_coef
            t = t_hi if float(t_coef @ n_dir) > 0.0 else t_lo
            value = dot1(spec.c[:3]) + (dot2(spec.c[3:]) + t * float(n_dir @ spec.c[3:]))
            k = int(np.argmax(np.where(feas & np.isfinite(value), value, -np.inf)))
            i, j = divmod(k, vr.shape[1])
            found.append(None if not (feas[i, j] and np.isfinite(value[i, j])) else
                         oracle._row_from_weights(
                             v, f1, f2, q, float(value[i, j]), float(vs_vals[i]),
                             a1[i] + vr[i, j] * b1[i], a2[i] + vr[i, j] * b2[i] + t[i, j] * n_dir))
    return found


def _assert_rows_identical(got, want):
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert (row is None) == (ref is None)
        if ref is not None:
            assert (row.value, row.revenue, row.point) == (ref.value, ref.revenue, ref.point)
            assert np.array_equal(row.pi1, ref.pi1) and np.array_equal(row.pi2, ref.pi2)


def _recording_scans(monkeypatch):
    """Route every scan through a recorder; returns (calls, the real scan)."""
    calls, scan = [], oracle._scan_d3

    def recorded(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(oracle, "_scan_d3", recorded)
    return calls, scan


def test_scan_matches_the_dense_fold_bit_for_bit(example_market, monkeypatch):
    """Every scan of seeded example runs (T = 1e5 on seed 1, T = 1e4 and 1e6
    on seed 0), replayed against the whole-grid fold: building only the
    pin's intervals and dropping cells as the folds cut them changes no bit."""
    calls, scan = _recording_scans(monkeypatch)
    for horizon, seed, n_scans, depth in ((100_000, 1, 20, 5), (10_000, 0, 20, 4),
                                          (1_000_000, 0, 40, 7)):
        calls.clear()
        agent = FpaAgent(FpaConfig(grid=example_market.grid, q=example_market.q,
                                   horizon=horizon, seed=seed))
        run_episode(agent, example_market, horizon, seed=seed, record_every=horizon)
        assert len(calls) >= n_scans and max(len(args[5]) for args in calls) >= depth
        for args in calls:
            _assert_rows_identical(scan(*args), _dense_scan_d3(*args))


def test_scan_matches_the_dense_fold_at_negative_premiums(monkeypatch):
    """The inverted estimates of test_optimizer_reaches_negative_premiums_on_estimates
    under one snapshot: the full scans reach below a zero premium, and the
    searches' every scan is replayed against the whole-grid fold."""
    grid = PriceGrid(np.array([0.625, 0.7, 1.0]))
    fhat = AcceptanceModel.from_estimates([0.23, 0.88, 0.36], [0.68, 0.11, 0.70],
                                          f_min=0.05)
    ledger = EliminationLedger(grid, 0.77)
    ledger.append(LedgerEntry(1, fhat, 0.03, 0.5))
    calls, scan = _recording_scans(monkeypatch)
    res = empirical_optimizer(fhat, ledger, 0.0)
    assert not res.ledger_infeasible and res.point.alpha < 0.0
    max_probability_policies([(i, g) for i in range(3) for g in (1, 2)], fhat, ledger, 0.0)
    assert any(np.any(args[7] < 0.0) for args in calls)
    for args in calls:
        _assert_rows_identical(scan(*args), _dense_scan_d3(*args))


def _assert_pin_cells_match(v, f, vs_vals, lo, span, axis):
    """The per-row premium intervals admit exactly the dense mask's cells,
    flat in row-major order, with the same proposed means and pin rows."""
    vr = _dense_grid(vs_vals, lo, span, axis)
    with np.errstate(all="ignore"):
        a, b, feas = _pin_group(v, f, vs_vals, vr)
        got_a, got_b, cells = oracle._pin_cells(v, f, vs_vals, lo, span, axis)
    assert np.array_equal(cells.rows, np.nonzero(feas)[0])
    assert cells.vr.tobytes() == vr[feas].tobytes()
    assert np.array_equal(got_a, a, equal_nan=True) and np.array_equal(got_b, b, equal_nan=True)
    return int(feas.sum())


def test_pin_intervals_match_the_dense_mask_on_fixed_grids(example_market):
    v, f = example_market.grid.prices, example_market.accept.group1
    assert _assert_pin_cells_match(v, f, *_scan_grid(v)) > 0
    assert _assert_pin_cells_match(v, f, *_scan_grid(v, 11, 11)) > 0
    assert _assert_pin_cells_match(v, f, *_no_cell_grid(v)) == 0


@st.composite
def pin_grids(draw):
    """A d = 3 price grid, a group-1 curve (monotone or not), and a scan grid
    (vs_vals, lo, span, axis): the full scan's (rows at every grid price, a
    zero-span v_s = v_d row on monotone curves, negative premiums on others),
    a refine window's with rows at the grid prices appended, or a window
    whose axis holds some rows' exact weight crossings, nudged by an ulp."""
    market = draw(random_markets(d=3))
    v = market.grid.prices
    if draw(st.booleans()):
        f = market.accept.group1
    else:
        f = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3)))
    kind = draw(st.sampled_from(["full", "window", "crossings"]))
    if kind == "full":
        steps = draw(st.integers(2, 40))
        vs_vals = np.unique(np.concatenate([np.linspace(v[0], v[-1], steps), v]))
        lo = -(vs_vals - v[0]) if np.any(np.diff(f) > 0.0) else np.zeros_like(vs_vals)
        axis = np.linspace(0.0, 1.0, draw(st.integers(2, 30)))
        return v, f, vs_vals, lo, v[-1] - vs_vals - lo, axis
    vs = draw(st.floats(v[0], v[-1]))
    width = draw(st.floats(1e-4, 0.3))
    rows = draw(st.integers(2, 25))
    vs_vals = np.r_[np.linspace(max(v[0], vs - width), min(v[-1], vs + width), rows), v]
    al = draw(st.floats(-0.5, 0.5))
    axis = np.linspace(al - width, al + width, draw(st.integers(2, 30)))
    if kind == "crossings":
        with np.errstate(all="ignore"):
            a, b, _ = _pin_group(v, f, vs_vals, vs_vals[:, None])
            cross = ((-oracle.ROUNDING_TOL - a) / b - vs_vals[:, None]).ravel()
        cross = cross[np.isfinite(cross) & (np.abs(cross) < 1.0)]
        nudge = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        axis = np.unique(np.r_[axis, cross + nudge * np.spacing(cross)])
    return v, f, vs_vals, np.zeros(vs_vals.size), np.ones(vs_vals.size), axis


@settings(max_examples=300)
@given(pin_grids())
def test_pin_intervals_match_the_dense_mask(grid):
    """One interval of premium indices per v_s row, found from the real
    crossings and stepped by the dense test itself, admits exactly the cells
    of the whole-grid pin mask, in the same order."""
    _assert_pin_cells_match(*grid)


def _scan_grid(v, steps_vs=60, steps_alpha=20):
    vs_vals = np.linspace(v[0], v[-1], steps_vs)
    return vs_vals, np.zeros(steps_vs), v[-1] - vs_vals, np.linspace(0.0, 1.0, steps_alpha)


@pytest.mark.parametrize("delta", [0.0, 0.02])
def test_scan_matches_the_dense_fold_when_a_snapshot_cuts_every_cell(example_market, delta):
    """No cell clears the first snapshot's floor, so the later snapshot folds
    an empty set and no objective has a row; delta = 0 pins group 2's
    segment to a point."""
    v, f, q = example_market.grid.prices, example_market.accept, example_market.q
    specs = [oracle._Objective(c) for c in np.eye(6)]
    specs.append(oracle._Objective(np.r_[q * v * f.group1, (1.0 - q) * v * f.group2]))
    cut_all = [LedgerEntry(1, f, 0.02, 0.99), LedgerEntry(2, f, 0.02, 0.4)]
    # The 11 x 11 grid has cells whose segment ends cross by rounding alone,
    # kept by the ROUNDING_TOL room the folds and the compaction share.
    for grid in (_scan_grid(v), _scan_grid(v, 11, 11)):
        args = (v, f.group1, f.group2, q, delta, cut_all, *grid, specs)
        assert oracle._scan_d3(*args) == [None] * len(specs) == _dense_scan_d3(*args)
        for entries in ([LedgerEntry(1, f, 0.02, 0.45)],
                        [LedgerEntry(1, f, 0.05, 0.3), LedgerEntry(2, f, 0.01, 0.48)]):
            args = (v, f.group1, f.group2, q, delta, entries, *grid, specs)
            got = oracle._scan_d3(*args)
            assert any(row is not None for row in got)
            _assert_rows_identical(got, _dense_scan_d3(*args))


@pytest.mark.parametrize("slope", [0.0, -0.0, 1e-14, -1e-14, 1e-13, -1e-13, 2.5e-13, -2.5e-13,
                                   oracle.ROUNDING_TOL, -oracle.ROUNDING_TOL, 2.5e-12, -2.5e-12,
                                   0.7, -3.0, np.nan])
def test_tighten_takes_a_scalar_slope_as_its_broadcast(slope):
    """A scalar slope skips the masks but folds exactly as the same slope
    broadcast to every cell, nan, infinite and tiny rows included."""
    rng = np.random.default_rng(3)
    a = np.r_[rng.normal(size=20), 0.0, -0.0, 1e-12, 2e-12, np.nan, np.inf, -np.inf]
    t_lo = np.r_[rng.normal(size=a.size - 3) - 1.0, -np.inf, -np.inf, 0.0]
    t_hi = np.r_[rng.normal(size=a.size - 3) + 1.0, np.inf, 0.0, np.inf]
    feas = rng.random(a.size) < 0.8
    results = []
    for b in (slope, np.full(a.size, slope)):
        folded = (t_lo.copy(), t_hi.copy(), feas.copy())
        with np.errstate(all="ignore"):
            oracle._tighten(a.copy(), b, *folded)
        results.append(folded)
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_probe_policy_argument_checks(example_market):
    ledger = _ledger_with(example_market, 0.02, 0.4)
    with pytest.raises(ValueError):
        max_probability_policy(3, 1, example_market.accept, ledger, 0.02)
    with pytest.raises(ValueError):
        max_probability_policy(0, 0, example_market.accept, ledger, 0.02)
    with pytest.raises(ValueError):
        max_probability_policy(0, 1, example_market.accept, ledger, -0.02)


# ---------------------------------------------------------------------------
# batched probes: the same results as one call per probe
# ---------------------------------------------------------------------------

def _assert_batch_matches_single_calls(fhat, ledger, delta_s, cfg=None):
    probes = [(i, g) for g in (1, 2) for i in range(ledger.grid.d)]
    batch = max_probability_policies(probes, fhat, ledger, delta_s, cfg)
    assert len(batch) == len(probes)
    for (i, g), got in zip(probes, batch):
        want = max_probability_policy(i, g, fhat, ledger, delta_s, cfg)
        assert got.ledger_infeasible == want.ledger_infeasible
        assert got.achieved_prob == want.achieved_prob
        assert got.point == want.point
        assert (got.policy is None) == (want.policy is None)
        if want.policy is not None:
            for grp in (1, 2):
                assert np.array_equal(got.policy.weights(grp), want.policy.weights(grp))
    return batch


def _assert_searches_return_members(fhat, ledger, delta_s, cfg=None):
    """Every probe and the revenue search return a member of the ledger they
    were searched under: each constraint is built at its stated value."""
    probes = [(i, g) for g in (1, 2) for i in range(ledger.grid.d)]
    for (i, g), res in zip(probes, max_probability_policies(probes, fhat, ledger, delta_s, cfg)):
        assert not res.ledger_infeasible and member(res.policy, ledger), (i, g)
    opt = empirical_optimizer(fhat, ledger, delta_s, cfg=cfg)
    assert not opt.ledger_infeasible and member(opt.policy, ledger)


def test_batched_probes_match_single_calls_on_every_ledger_prefix(example_market):
    """The d = 3 scan path, on the ledgers an example run builds; every
    search returns a member of the prefix it was searched under."""
    horizon = 100_000
    agent = FpaAgent(FpaConfig(grid=example_market.grid, q=example_market.q,
                               horizon=horizon, seed=0))
    run_episode(agent, example_market, horizon, seed=0, record_every=horizon)
    entries = agent.ledger.entries
    assert len(entries) >= 5
    for n in range(1, len(entries) + 1):
        prefix = EliminationLedger(agent.ledger.grid, agent.ledger.q, list(entries[:n]))
        latest = prefix.latest
        batch = _assert_batch_matches_single_calls(latest.fhat, prefix, latest.delta_s,
                                                   agent.oracle_cfg)
        assert not any(res.ledger_infeasible for res in batch)
        _assert_searches_return_members(latest.fhat, prefix, latest.delta_s, agent.oracle_cfg)


D4_MARKET = MarketConfig(
    grid=PriceGrid(np.array([0.4, 0.6, 0.8, 1.0])),
    accept=AcceptanceModel(np.array([0.9, 0.7, 0.5, 0.3]), np.array([0.8, 0.75, 0.4, 0.35])),
    q=0.4)


def test_d4_ledger_probes_reach_the_best_member_of_dense_anchors():
    """On every ledger prefix of a seeded d = 4 run, each probe returns a
    member with at least the weight of the best member among the LP optima
    at 1,001 dense anchors: the walk post-filters the bands exactly in v_s."""
    horizon = 3000
    agent = FpaAgent(FpaConfig(grid=D4_MARKET.grid, q=D4_MARKET.q, horizon=horizon, seed=0))
    run_episode(agent, D4_MARKET, horizon, seed=0, record_every=horizon)
    v, d = D4_MARKET.grid.prices, D4_MARKET.grid.d
    probes = [(i, g) for g in (1, 2) for i in range(d)]
    entries = agent.ledger.entries
    assert len(entries) >= 2
    for n in range(1, len(entries) + 1):
        prefix = EliminationLedger(agent.ledger.grid, agent.ledger.q, list(entries[:n]))
        latest = prefix.latest
        estimated = MarketConfig(D4_MARKET.grid, latest.fhat, q=D4_MARKET.q)
        results = max_probability_policies(probes, latest.fhat, prefix, latest.delta_s)
        for (i, g), res in zip(probes, results):
            assert not res.ledger_infeasible and member(res.policy, prefix), (n, i, g)
            weight = np.zeros(2 * d)
            weight[(g - 1) * d + i] = 1.0
            best = 0.0
            for v_s in np.linspace(v[0], v[-1], 1001):
                lp = _statement_lp(estimated, latest.delta_s, v_s, weight, prefix.entries)
                opt = lp_maximize(lp)
                if opt.status == OPTIMAL and member(PolicyPair(
                        GroupDistribution.renormalized(opt.x[:d]),
                        GroupDistribution.renormalized(opt.x[d:])), prefix):
                    best = max(best, opt.value)
            assert res.achieved_prob >= best - 1e-12, (n, i, g)


@pytest.mark.parametrize("market, band, below_optimum, delta_s", [
    (example1_market(), 0.02, 0.01, 0.0),
    (example1_market(), 0.02, 0.01, 0.02),
    (D4_MARKET, 0.05, 0.02, 0.05),
], ids=["d3-pinned", "d3-band", "d4-lp"])
def test_searches_return_members_of_a_one_snapshot_ledger(market, band, below_optimum, delta_s):
    """Floors just under the optimum bind where the searches end up; the d = 3
    scan and the d = 4 LP path must still land inside them."""
    floor = solve_fair_optimal(market).revenue - below_optimum
    _assert_searches_return_members(market.accept, _ledger_with(market, band, floor), delta_s)


@pytest.mark.parametrize("delta_s", [0.0, 0.02])
def test_batched_probes_match_single_calls_through_two_refine_windows(example_market, delta_s):
    """A point (delta = 0) and a floating group-2 segment; the second window
    is centred on each probe's first refined row."""
    cfg = OracleConfig(grid_steps_vs=200, grid_steps_alpha=60, refine_iters=3)
    ledger = _ledger_with(example_market, 0.02, 0.505)
    batch = _assert_batch_matches_single_calls(example_market.accept, ledger, delta_s, cfg)
    assert all(0.0 < res.achieved_prob < 1.0 for res in batch)


def test_batched_probes_match_single_calls_on_a_d4_ledger():
    """The LP path, one objective at a time."""
    market = D4_MARKET
    floor = solve_fair_optimal(market).revenue - 0.05
    batch = _assert_batch_matches_single_calls(
        market.accept, _ledger_with(market, 0.05, floor), 0.05)
    assert not any(res.ledger_infeasible for res in batch)


def test_batched_probes_match_single_calls_when_nothing_survives(example_market):
    batch = _assert_batch_matches_single_calls(
        example_market.accept, _ledger_with(example_market, 0.02, 0.99), 0.02)
    assert all(res.ledger_infeasible and res.policy is None for res in batch)


def test_batched_probes_accept_an_empty_probe_list(example_market):
    ledger = _ledger_with(example_market, 0.02, 0.4)
    assert max_probability_policies([], example_market.accept, ledger, 0.02) == []


# ---------------------------------------------------------------------------
# learning at d = 4: the optimum survives the agent's eliminations
# ---------------------------------------------------------------------------

# The first _random_market(default_rng(s), 4), s = 0, 1, ..., whose FPA runs
# at T = 1e5 eliminate a price in every one of seeds 0-19 (s = 172).  It was
# picked by that rule alone, before retention was looked at.
RETENTION_SEED, RETENTION_HORIZON = 172, 100_000


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: seed 2 drops the optimum (fixed price 3) at its first snapshot, whose "
    "revenue floor its estimated revenue misses by 2.4e-4; 19 of 20 seeds keep it"))
def test_d4_runs_keep_the_optimum_in_every_ledger_prefix():
    market = _random_market(np.random.default_rng(RETENTION_SEED), 4)
    optimum = solve_fair_optimal(market).policy
    lost = []
    for seed in range(20):
        agent = FpaAgent(FpaConfig(grid=market.grid, q=market.q, horizon=RETENTION_HORIZON,
                                   seed=seed))
        run_episode(agent, market, RETENTION_HORIZON, seed=seed, record_every=10**9)
        assert any(len(prices) < 4 for prices in agent.price_sets), seed
        entries = agent.ledger.entries
        for n in range(1, len(entries) + 1):
            if not member(optimum, EliminationLedger(market.grid, market.q, list(entries[:n]))):
                lost.append((seed, n))
                break
    assert lost == [], "(seed, first ledger prefix without the optimum)"


class _IncumbentChecked(FpaAgent):
    """Records each epoch whose new incumbent is not a member of the ledger
    with the epoch's own snapshot appended, where the optimizer claimed one
    (no ``optimizer_ledger_infeasible`` flag) and the epoch ran in full."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.misses = []

    def _finalize_epoch(self):
        super()._finalize_epoch()
        if (not self._epoch_truncated
                and f"optimizer_ledger_infeasible:e{self.epoch}" not in self.flags
                and not member(self.incumbent, self.ledger)):
            self.misses.append(self.epoch)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: on seed 133 (d = 6) epoch 3's incumbent misses its own snapshot's band "
    "by 1.69e-9, more than MEMBER_TOL, since lp_maximize holds the band row to FEAS_TOL only"))
def test_every_incumbent_is_a_member_of_its_own_snapshot():
    market = _random_market(np.random.default_rng(10133), 6)
    agent = _IncumbentChecked(FpaConfig(grid=market.grid, q=market.q, horizon=20_000, seed=133))
    run_episode(agent, market, 20_000, seed=133, record_every=10**9)
    assert agent.misses == [], "epochs whose incumbent misses its own snapshot"
