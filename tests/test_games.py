from __future__ import annotations

import numpy as np
import pytest

import dense_reference as ref
from oraclebench import budget, games, harness
from oraclebench.budget import Budget, SizingError
from oraclebench.oracles import SwapOracleFamily
from oraclebench.seeds import SeedPath

SEED = SeedPath(88111)


def test_prfsg_game_shapes_and_range():
    res = games.prfsg_game(2, 20, SEED.child("g"))
    assert res.advantages.shape == (20,)
    assert res.t_queries == 2 and res.lam == 2
    assert np.all(res.advantages > -0.2) and np.all(res.advantages <= 1.0)
    assert res.mean_bound == 1.0  # 2^2 / 2^2, loose at this size


def test_prfsg_game_is_deterministic():
    r1 = games.prfsg_game(2, 5, SEED.child("det"))
    r2 = games.prfsg_game(2, 5, SEED.child("det"))
    assert np.array_equal(r1.advantages, r2.advantages)


def test_prfsg_game_is_sized_by_its_key_states(monkeypatch):
    # lambda = 3 holds 8 key states of dim 2^6 per draw, 512 amplitudes, past
    # the 64 a 3-qubit budget allows; lambda = 2 holds 4 of dim 2^4, 64
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=3))
    with pytest.raises(SizingError, match="2\\^6 x 8 factor"):
        games.prfsg_game(3, 1, SEED.child("size"))
    assert games.prfsg_game(2, 1, SEED.child("size")).n_draws == 1


def test_prfsg_advantage_matches_independent_projector_route():
    res = games.prfsg_game(2, 1, SEED.child("ind"))
    fam = SwapOracleFamily(SEED.child("ind").child("draw", 0))
    states = [fam.state(4, (k << 2) | 0).amplitudes for k in range(4)]
    b = np.stack(states[:2], axis=1)
    proj = b @ np.linalg.pinv(b.conj().T @ b) @ b.conj().T
    accept = [float(np.real(s.conj() @ proj @ s)) for s in states]
    want = np.mean(accept) - 2 / 16
    assert abs(res.advantages[0] - want) < 1e-10
    # the two held keys are accepted with certainty
    assert abs(accept[0] - 1) < 1e-10 and abs(accept[1] - 1) < 1e-10


def test_prfsg_game_bounds_hold():
    res = games.prfsg_game(2, 50, SEED.child("bd"))
    assert res.mean_advantage <= res.mean_bound
    assert res.tail_fraction == 0.0
    res1 = games.prfsg_game(1, 30, SEED.child("bd1"))
    assert res1.mean_advantage <= res1.mean_bound
    assert res1.tail_fraction <= res1.tail_bound


def test_two_query_lipschitz_no_violations():
    res = games.two_query_lipschitz_check(8, 60, SEED.child("lip"))
    assert res.violations == 0
    # pairs at real distances, and the constant is not absurdly loose
    assert 0.005 < res.max_ratio <= 1.0


def test_family_lipschitz_no_violations():
    res = games.family_lipschitz_check(4, 2, 40, SEED.child("fam"))
    assert res.violations == 0
    assert res.t_queries == 4 and res.constant == 32.0
    assert res.max_ratio > 1e-4


def test_haar_concentration_bound_holds():
    res = games.haar_concentration_check(8, 200, 0.3, SEED.child("conc"))
    assert res.exceed_fraction <= res.bound
    assert 0.0 <= res.mean_value <= 1.0
    assert res.bound > 0


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if got != want else 0.0


# the suite-fast trial counts, then those of acceptance criteria c14 and c15
@pytest.mark.parametrize(
    "draws,pairs,members_pairs,conc,conj", [(50, 40, 25, 100, 40), (200, 100, 100, 200, 100)]
)
@pytest.mark.parametrize("seed", [*range(10), 1009])
def test_stacked_checks_equal_their_per_trial_references(seed, draws, pairs, members_pairs, conc, conj):
    root = SeedPath(seed)
    game = games.prfsg_game(2, draws, root.child("game"))
    want = ref.prfsg_advantages_per_draw(2, draws, root.child("game"))
    assert np.max(np.abs(game.advantages - want) / np.abs(want)) <= 1e-12
    assert game.tail_fraction == float(np.mean(want >= game.tail_threshold))
    for got, want in [
        (games.two_query_lipschitz_check(8, pairs, root.child("two")),
         ref.two_query_lipschitz_per_pair(8, pairs, root.child("two"))),
        (games.family_lipschitz_check(4, 2, members_pairs, root.child("fam")),
         ref.family_lipschitz_per_pair(4, 2, members_pairs, root.child("fam"))),
    ]:
        assert got.violations == want.violations
        assert _rel(got.max_ratio, want.max_ratio) <= 1e-12
    got = games.haar_concentration_check(8, conc, 0.3, root.child("conc"))
    want = ref.haar_concentration_per_draw(8, conc, 0.3, root.child("conc"))
    assert got.exceed_fraction == want.exceed_fraction
    assert _rel(got.mean_value, want.mean_value) <= 1e-12
    worst, _, _ = harness._conjugation_lipschitz(root.child("conj"), d=8, trials=conj)
    assert _rel(worst, ref.conjugation_lipschitz_per_pair(root.child("conj"), 8, conj)) <= 1e-12


# the suite-fast defaults, then doubled trial counts and other shapes (omega-transpose: the
# suite-fast count, then its default)
@pytest.mark.parametrize(
    "d_gentle,d_holder,trials,lam,c", [(8, 6, (30, 40, 5, 20), 3, 3), (5, 3, (60, 80, 9, 50), 2, 4)]
)
@pytest.mark.parametrize("seed", [*range(10), 1009])
def test_stacked_harness_checks_equal_their_per_trial_references(seed, d_gentle, d_holder, trials, lam, c):
    root = SeedPath(seed)
    n_gentle, n_holder, n_calls, n_iso = trials
    for got, want in [
        (harness._gentle_measurement(root.child("gm"), d=d_gentle, trials=n_gentle)[0],
         ref.gentle_measurement_per_trial(root.child("gm"), d_gentle, n_gentle)),
        (harness._holder_product(root.child("hp"), d=d_holder, trials=n_holder)[0],
         ref.holder_product_per_trial(root.child("hp"), d_holder, n_holder)),
        (harness._swap_call_closeness(root.child("sc"), lam=lam, c=c, n=2, trials=n_calls)[0],
         ref.swap_call_closeness_per_trial(root.child("sc"), lam, c, 2, n_calls)),
        (harness._hri_call_closeness(root.child("hc"), lam=lam, c=c, n=1, stretch="n", trials=n_calls)[0],
         ref.hri_call_closeness_per_trial(root.child("hc"), lam, c, 1, "n", n_calls)),
        (harness._omega_transpose(root.child("ot"), trials=n_iso)[0],
         ref.omega_transpose_per_trial(root.child("ot"), n_iso)),
    ]:
        assert _rel(got, want) <= 1e-12


# each check at 9 trials, under a budget small enough for one-trial chunks that
# still admits the check: a game draw holds 4 states of dim 16, 64 entries; an
# 8 x 8 trial 64, a family pair 2 x 4 x 4 = 32, a Hölder pair 2 x 6 x 6 = 72 and
# an isometry's residual 3,072 exceed the 16 of 2 qubits
_CHUNKED = [
    (3, lambda s: games.prfsg_game(2, 9, s).advantages.tolist()),
    (2, lambda s: games.two_query_lipschitz_check(8, 9, s)),
    (2, lambda s: games.family_lipschitz_check(4, 2, 9, s)),
    (2, lambda s: games.haar_concentration_check(8, 9, 0.3, s)),
    (2, lambda s: harness._conjugation_lipschitz(s, d=8, trials=9)),
    (2, lambda s: harness._gentle_measurement(s, d=8, trials=9)),
    (2, lambda s: harness._holder_product(s, d=6, trials=9)),
    (2, lambda s: harness._omega_transpose(s, trials=9)),
]


@pytest.mark.parametrize("qubits,check", _CHUNKED)
def test_a_checks_value_does_not_depend_on_its_chunks(monkeypatch, qubits, check):
    whole = check(SEED.child("chunks"))
    sizes = []
    chunks = Budget.chunks

    def spy(self, n_items, entries):
        out = chunks(self, n_items, entries)
        sizes.extend(len(r) for r in out)
        return out

    monkeypatch.setattr(Budget, "chunks", spy)
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=qubits))
    assert check(SEED.child("chunks")) == whole
    assert sizes == [1] * 9
