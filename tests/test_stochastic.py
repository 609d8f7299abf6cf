import hashlib
import json

import numpy as np
import pytest

from bsol.cli import main
from bsol.partitions import potential_energy, staircase
from bsol.dynamics import orbit
from bsol.operators import bulgarian_step
from bsol.stochastic import (
    RNG_ALGORITHM,
    ChainConfig,
    make_rng,
    run_chain,
    sample_ejs_picks,
    sample_popov_mask,
    shape_profile,
    staircase_distance,
)

OPENING_GAME = [
    (4, 3, 3),
    (3, 3, 2, 2),
    (4, 2, 2, 1, 1),
    (5, 3, 1, 1),
    (4, 4, 2),
    (3, 3, 3, 1),
    (4, 2, 2, 2),
    (4, 3, 1, 1, 1),
    (5, 3, 2),
    (4, 3, 2, 1),
]


# --- staircase distance ---

def test_staircase_distance_examples():
    assert staircase_distance((3, 2, 1)) == 0.0
    assert staircase_distance((6,)) == 1.0
    assert staircase_distance((4, 2, 1)) == pytest.approx(3 / 7)
    assert staircase_distance(()) == 0.0


def test_staircase_distance_zero_only_on_staircase():
    from bsol.partitions import enumerate_partitions, triangular_decompose

    for k in range(1, 9):
        assert staircase_distance(staircase(k)) == 0.0
    for n in range(1, 13):
        k, r = triangular_decompose(n)
        for lam in enumerate_partitions(n):
            if staircase_distance(lam) == 0.0:
                assert r == k and lam == staircase(k)


# --- config validation ---

def test_chain_config_defaults_and_validation():
    cfg = ChainConfig(n=6, variant="popov", p=0.5, seed=1)
    assert cfg.burn_in == 300
    assert cfg.samples == 3000
    assert cfg.initial == (6,)
    with pytest.raises(ValueError):
        ChainConfig(n=0, variant="popov", p=0.5, seed=1)
    with pytest.raises(ValueError):
        ChainConfig(n=6, variant="popov", p=0.0, seed=1)
    with pytest.raises(ValueError):
        ChainConfig(n=6, variant="popov", p=1.5, seed=1)
    with pytest.raises(ValueError):
        ChainConfig(n=6, variant="nope", p=0.5, seed=1)
    with pytest.raises(ValueError):
        ChainConfig(n=6, variant="ejs", p=0.5, seed=1, initial=(4, 3))
    with pytest.raises(ValueError):
        ChainConfig(n=6, variant="ejs", p=0.5, seed=1, initial=(3, 4))


# --- deterministic degenerate case ---

def test_popov_p1_follows_the_deterministic_game():
    cfg = ChainConfig(
        n=10, variant="popov", p=1.0, seed=99, burn_in=0, samples=9, initial=(4, 3, 3)
    )
    stats = run_chain(cfg)
    # the nine states after the start, each visited once, in order of first visit
    assert list(stats.visit_counts.items()) == [(lam, 1) for lam in OPENING_GAME[1:]]
    assert list(stats.visit_counts)[-1] == (4, 3, 2, 1)
    deterministic = orbit((4, 3, 3), bulgarian_step).path[:10]
    assert tuple(stats.visit_counts) == deterministic[1:]


def test_seeded_runs_are_identical():
    cfg = ChainConfig(n=12, variant="ejs", p=0.4, seed=2024, burn_in=50, samples=400)
    a = run_chain(cfg)
    b = run_chain(cfg)
    assert a == b
    other = run_chain(
        ChainConfig(n=12, variant="ejs", p=0.4, seed=2025, burn_in=50, samples=400)
    )
    assert other.visit_counts != a.visit_counts


def test_chain_conserves_cards_and_counts_samples():
    cfg = ChainConfig(n=9, variant="popov", p=0.6, seed=5, burn_in=20, samples=500)
    stats = run_chain(cfg)
    assert sum(stats.visit_counts.values()) == 500
    assert all(sum(lam) == 9 for lam in stats.visit_counts)
    assert stats.rng_algorithm == RNG_ALGORITHM
    # mean shape is a nonincreasing padded profile
    assert all(
        stats.mean_shape[i] >= stats.mean_shape[i + 1]
        for i in range(len(stats.mean_shape) - 1)
    )
    assert sum(stats.mean_shape) == pytest.approx(9.0)


# --- samplers ---

def test_popov_full_probability_masks_everything():
    rng = make_rng(7)
    assert sample_popov_mask(rng, (4, 3, 3), 1.0) == (0, 1, 2)


@pytest.mark.parametrize("a, b", [(0, 5), (3, 4), (1, 16_384), (16_384, 16_384), (20_000, 7)])
def test_pcg64_uniforms_are_the_same_drawn_in_pieces_or_in_one_block(a, b):
    # the pile-selection chain slices its flags from blocks of uniforms and
    # keeps the per-move stream only because this holds
    first, second = make_rng(2024), make_rng(2024)
    pieces = np.concatenate([first.random(a), first.random(b)])
    assert np.array_equal(pieces, second.random(a + b))
    assert first.random() == second.random()


def test_ejs_picks_are_binomial():
    rng = make_rng(123)
    draws = [sample_ejs_picks(rng, (10,), 0.3)[0] for _ in range(20_000)]
    assert abs(np.mean(draws) - 3.0) < 0.05
    assert all(0 <= d <= 10 for d in draws)


# --- shape diagnostics ---

def test_shape_profile_of_converged_deterministic_chain():
    cfg = ChainConfig(n=10, variant="popov", p=1.0, seed=0, burn_in=60, samples=100)
    stats = run_chain(cfg)
    assert stats.visit_counts == {(4, 3, 2, 1): 100}
    assert stats.mean_shape == (4.0, 3.0, 2.0, 1.0)
    assert stats.mean_staircase_distance == 0.0
    assert stats.mean_energy == potential_energy((4, 3, 2, 1))
    prof = shape_profile(stats)
    assert prof.linear_residual < 1e-9
    assert prof.linear_residual <= prof.exponential_residual
    assert prof.better == "linear"


def test_stats_json_and_csv():
    cfg = ChainConfig(n=6, variant="popov", p=1.0, seed=3, burn_in=10, samples=5)
    stats = run_chain(cfg)
    data = json.loads(stats.to_json())
    assert data["config"]["variant"] == "popov"
    assert data["rng_algorithm"] == RNG_ALGORITHM
    assert data["visit_counts"] == {"3,2,1": 5}
    csv = stats.mean_shape_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "index,mean_part"
    assert lines[1] == "1,3.0"


# --- pinned output bytes ---

# SHA-256 of `bsol simulate ...` stdout.  The n = 30 runs, at the default
# chain lengths, were recorded before the chain's statistics and sample/move
# steps were sped up; the n = 210 runs before the chain drew and moved in one
# loop per variant.  A seeded chain must print these exact bytes for as long
# as RNG_ALGORITHM names the same stream; a new stream needs a new tag and
# new hashes.
GOLDEN_SIMULATE = [
    (("--n", "30", "--variant", "popov", "--p", "0.9", "--seed", "7", "--format", "json"),
     "1559e40ed34d7d522c035531a3ee6e0a2f28bdca23f54ce28cf285e3b94aa10e"),
    (("--n", "30", "--variant", "ejs", "--p", "0.5", "--seed", "11"),
     "35788de528ccfd31e0a98fc653c31e8066e3f88a7a90e27f88935df8fadcbef0"),
    (("--n", "30", "--variant", "ejs", "--p", "0.5", "--seed", "13", "--format", "csv"),
     "ec494941569f0b7822d96a17e41b5ea8450db3237759da255d6ad172fa33d001"),
    (("--n", "210", "--burn-in", "100", "--samples", "2000",
      "--variant", "popov", "--p", "0.9", "--seed", "7", "--format", "json"),
     "c6a0d9ea496b5c234cd7ebb8f1c730ba29871c0d7fd75567bb737d2469cf83f1"),
    (("--n", "210", "--burn-in", "100", "--samples", "2000",
      "--variant", "ejs", "--p", "0.5", "--seed", "11"),
     "1cdd2384fd7970f645b484bc13e2a8180fd23f66706cc07a70a20a31dc0c4cf8"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_SIMULATE)
def test_seeded_simulate_output_is_pinned(capsys, args, digest):
    assert RNG_ALGORITHM == "numpy-pcg64"
    assert main(["simulate", *args]) == 0
    out = capsys.readouterr().out
    if "json" in args:  # compact JSON; the digest holds its values in json's indent=2 layout
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"
        out = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
