"""The seeded verify suites: every seed passes, a one-part-in-a-billion
mutation of an identity fails, and a negative seed is refused."""

import pytest

import antago.verify
from antago.controller import closed_loop_field, sigma
from antago.plant import hamiltonian_gradient
from antago.verify import check_gradients, check_matching


def test_gradient_suite_passes_on_every_seed():
    for seed in range(200):
        report = check_gradients(seed=seed)
        assert report.ok, (seed, report.lines)


def _ki_term_scaled(state, F_hat, F, gains, x_star, params):
    """``closed_loop_field`` with its pressure terms -k_i*sigma/A_i scaled by 1 + 1e-9."""
    dx, dp, dP1, dP2 = closed_loop_field(state, F_hat, F, gains, x_star, params)
    s = sigma(state, F_hat, gains, x_star, params.geometry)
    return (dx, dp, dP1 - 1e-9 * gains.k_i * s.value / s.d_P1,
            dP2 - 1e-9 * gains.k_i * s.value / s.d_P2)


def _zeta_flipped(state, F_hat, F, gains, x_star, params):
    """``closed_loop_field`` with the momentum row forced by -zeta instead of +zeta."""
    dx, dp, dP1, dP2 = closed_loop_field(state, F_hat, F, gains, x_star, params)
    return dx, dp - 2.0 * (F_hat - gains.alpha * state.p - F), dP1, dP2


def _scaled_gradient(i):
    def mutated(state, params):
        grad = list(hamiltonian_gradient(state, params))
        grad[i] *= 1.0 + 1e-5
        return tuple(grad)
    return mutated


@pytest.mark.parametrize("mutant", [_ki_term_scaled, _zeta_flipped], ids=["k_i-term", "zeta-sign"])
def test_matching_fails_on_a_mutated_closed_loop(monkeypatch, mutant):
    """The rounding floor stays below a relative change of 1e-9 in the
    shaped pressure rows, on every seed."""
    monkeypatch.setattr(antago.verify, "closed_loop_field", mutant)
    for seed in range(20):
        assert not check_matching(seed=seed).ok, seed


@pytest.mark.parametrize("component", [0, 2], ids=["dH_dx", "dH_dP1"])
def test_gradients_fail_on_a_mutated_hamiltonian_gradient(monkeypatch, component):
    monkeypatch.setattr(antago.verify, "hamiltonian_gradient", _scaled_gradient(component))
    for seed in range(20):
        checks = {c.name: c.ok for c in check_gradients(seed=seed).checks}
        assert checks == {"volume-gradients": True, "volume-curvatures": True,
                          "hamiltonian-gradient": False, "sigma-partials": True}, seed


@pytest.mark.parametrize("suite", [check_matching, check_gradients])
@pytest.mark.parametrize("seed", [-1, -2])
def test_negative_seed_raises(suite, seed):
    """``random.Random(-n)`` draws the samples of seed n, so the suites refuse it."""
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        suite(seed=seed)


def test_rel_err_floor_is_one_rounding_unit_of_the_terms():
    """A difference of half a rounding unit of the terms passes; two units fail."""
    terms, bound = 1e11, 1e-9
    unit = 2.0**-52 * terms
    assert antago.verify._rel_err(1.0, 1.0 + 0.5 * unit, terms, bound) < bound
    assert antago.verify._rel_err(1.0, 1.0 + 2.0 * unit, terms, bound) > bound
    assert antago.verify._rel_err(3.0, 3.0, 0.0, bound) == 0.0
