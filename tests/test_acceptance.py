"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time

from bsol.partitions import (
    conjugate,
    enumerate_compositions,
    enumerate_montreal_compositions,
    enumerate_partitions,
    normalize,
    potential_energy,
    staircase,
)
from bsol.operators import (
    AustrianState,
    MultiplayerState,
    PointerState,
    austrian_step,
    bulgarian_step,
    carolina_step,
    dual_step,
    ejs_masked_step,
    janetzko_step,
    montreal_step,
    multiplayer_step,
    popov_masked_step,
    servedio_yeh_step,
)
from bsol.dynamics import (
    analyze_state_space,
    garden_of_eden_test,
    ge_reachability_check,
    knuth_exponent_check,
    orbit,
    toom_path,
)
from bsol.necklaces import necklace_count, necklace_of_state
from bsol.stochastic import (
    ChainConfig,
    make_rng,
    run_chain,
    sample_ejs_picks,
    shape_profile,
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


def report(number, ok, detail=""):
    print(f"\n[acceptance] criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_opening_game_orbit():
    orbit((4, 3, 3), bulgarian_step)  # warm-up outside the timed window
    t0 = time.perf_counter()
    res = orbit((4, 3, 3), bulgarian_step)
    elapsed = time.perf_counter() - t0
    ok = (
        list(res.path[:10]) == OPENING_GAME
        and res.tail == 9
        and res.cycle == ((4, 3, 2, 1),)
        and elapsed < 1e-3
    )
    report(1, ok, f"10-state opening reproduced in {elapsed * 1e6:.0f} us")


def test_criterion_02_staircase_convergence():
    t0 = time.perf_counter()
    counts = {}
    for k in range(2, 9):
        n = k * (k + 1) // 2
        summary = analyze_state_space(n)
        assert summary.component_count == 1
        assert summary.cycles == ((staircase(k),),)
        counts[k] = summary.state_count
    elapsed = time.perf_counter() - t0
    ok = counts[8] == 17977 and elapsed < 10.0
    report(2, ok, f"k=2..8 all {sum(counts.values())} partitions converge ({elapsed:.2f}s)")


def test_criterion_03_knuth_exponent():
    t0 = time.perf_counter()
    checked = 0
    for k in range(2, 8):
        rep = knuth_exponent_check(k)
        assert rep.holds, f"exceptions at k={k}: {rep.witnesses[:3]}"
        checked += rep.states_checked
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(3, ok, f"B^(k(k-1)) = staircase on {checked} partitions, k=2..7 ({elapsed:.2f}s)")


def test_criterion_04_toom_path():
    t0 = time.perf_counter()
    for k in range(2, 9):
        rep = toom_path(k)
        assert rep.minimal_steps == k * (k - 1), f"k={k}: {rep.minimal_steps}"
        assert rep.conjugacy_holds, f"conjugacy fails at k={k}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    report(4, ok, f"minimal s = k(k-1) and mirror symmetry for k=2..8 ({elapsed:.3f}s)")


def test_criterion_05_component_count_formula():
    t0 = time.perf_counter()
    spot = {}
    for n in range(1, 41):
        brute = analyze_state_space(n).component_count
        assert brute == necklace_count(n), f"n={n}: {brute} != {necklace_count(n)}"
        spot[n] = brute
    elapsed = time.perf_counter() - t0
    ok = spot[7] == 1 and spot[8] == 2 and spot[12] == 2 and elapsed < 30.0
    report(5, ok, f"components = C(n) for n=1..40; C(7)=1 C(8)=2 C(12)=2 ({elapsed:.2f}s)")


def test_criterion_06_cycle_necklace_correspondence():
    t0 = time.perf_counter()
    for n in range(1, 31):
        summary = analyze_state_space(n)
        for cyc in summary.cycles:
            for lam in cyc:
                neck = necklace_of_state(lam)
                rotated = necklace_of_state(bulgarian_step(lam))
                assert rotated.beads == neck.rotated().beads, f"rotation fails at {lam}"
            assert necklace_of_state(cyc[0]).period() == len(cyc), f"period != length for {cyc[0]}"
    twelve = analyze_state_space(12)
    cyc = next(c for c in twelve.cycles if (5, 3, 3, 1) in c)
    elapsed = time.perf_counter() - t0
    ok = len(cyc) == 5 and str(necklace_of_state((5, 3, 3, 1))) == "BWBWW"
    report(6, ok, f"cycle length = necklace period, step = one rotation, n<=30 ({elapsed:.2f}s)")


def test_criterion_07_garden_of_eden_characterization():
    t0 = time.perf_counter()
    for n in range(1, 26):
        summary = analyze_state_space(n)
        formula = {lam for lam in enumerate_partitions(n) if lam and garden_of_eden_test(lam)}
        assert set(summary.ge_states) == formula, f"mismatch at n={n}"
    elapsed = time.perf_counter() - t0
    report(7, True, f"in-degree-0 states = {{largest part < s-1}} for n<=25 ({elapsed:.2f}s)")


def test_criterion_08_ge_reachability():
    t0 = time.perf_counter()
    # documented failure of the statement below n=3: no GE-partitions exist
    for n in (1, 2):
        assert not any(
            lam and garden_of_eden_test(lam) for lam in enumerate_partitions(n)
        )
    for n in range(3, 21):
        rep = ge_reachability_check(n)
        assert rep.holds, f"unreached cycle at n={n}"
        for w in rep.witnesses:
            assert garden_of_eden_test(w.ge_state)
            for a, b in zip(w.path, w.path[1:]):
                assert bulgarian_step(a) == b
            assert w.path[-1] in set(w.cycle)
    elapsed = time.perf_counter() - t0
    report(8, True, f"every cycle reached from a GE state, n=3..20 ({elapsed:.2f}s)")


def test_criterion_09_energy_monotonicity():
    t0 = time.perf_counter()
    for n in range(1, 31):
        for lam in enumerate_partitions(n):
            before = potential_energy(lam)
            after = potential_energy(bulgarian_step(lam))
            assert after <= before, f"energy rises at {lam}"
            if len(lam) >= lam[0] - 1:
                assert after == before, f"unexpected drop at {lam}"
            else:
                assert after < before, f"missing drop at {lam}"
    elapsed = time.perf_counter() - t0
    report(9, True, f"energy non-increasing, equality iff c >= largest-1, n<=30 ({elapsed:.2f}s)")


def test_criterion_10_duality():
    t0 = time.perf_counter()
    assert dual_step((4, 4, 3, 2, 2, 1, 1)) == (5, 4, 3, 3, 1, 1)
    assert dual_step((6, 6, 3, 2, 1)) == (7, 4, 3, 2, 1, 1)
    for n in range(1, 16):
        for lam in enumerate_partitions(n):
            assert dual_step(lam) == conjugate(bulgarian_step(conjugate(lam)))
    elapsed = time.perf_counter() - t0
    report(10, True, f"dual = conjugate . bulgarian . conjugate, n<=15 ({elapsed:.2f}s)")


def test_criterion_11_montreal():
    t0 = time.perf_counter()
    assert montreal_step((1, 0, 2)) == (1, 1, 1)
    assert montreal_step((1, 2, 0, 1, 0, 2)) == (1, 2, 0, 1, 1, 1)
    assert montreal_step((3, 2, 2)) == (2, 1, 1, 3)
    res = orbit((3, 2, 2), montreal_step)
    assert res.tail == 0 and res.cycle_length == 18
    for n in range(1, 11):
        states = list(enumerate_montreal_compositions(n))
        images = {montreal_step(a) for a in states}
        assert len(images) == len(states), f"collision at n={n}"
        periodic = set()
        for alpha in states:
            if alpha in periodic:
                continue
            walk = orbit(alpha, montreal_step)
            assert walk.tail == 0, f"{alpha} is not on a cycle"
            periodic.update(walk.cycle)
    elapsed = time.perf_counter() - t0
    report(11, True, f"worked moves, 18-cycle, injective and all-periodic n<=10 ({elapsed:.2f}s)")


def test_criterion_12_carolina():
    t0 = time.perf_counter()
    for n, k in ((3, 2), (6, 3), (10, 4), (15, 5)):
        summary = analyze_state_space(n, "carolina")
        assert summary.component_count == 1
        assert summary.cycles == ((staircase(k),),), f"n={n} does not collapse"
        assert summary.state_count == 2 ** (n - 1)
    for n in range(1, 13):
        for alpha in enumerate_compositions(n):
            assert normalize(carolina_step(alpha)) == bulgarian_step(normalize(alpha))
    elapsed = time.perf_counter() - t0
    report(12, True, f"staircase from all compositions, projection identity ({elapsed:.2f}s)")


def test_criterion_13_stochastic():
    t0 = time.perf_counter()
    # (a) p=1 pile selection is the deterministic game, move for move
    cfg = ChainConfig(n=10, variant="popov", p=1.0, seed=11, burn_in=0, samples=9,
                      initial=(4, 3, 3))
    stats = run_chain(cfg)
    det = orbit((4, 3, 3), bulgarian_step).path[:10]
    assert list(det) == OPENING_GAME  # the nine states after the start, once each, in order
    assert list(stats.visit_counts.items()) == [(lam, 1) for lam in det[1:]]

    # (b) bit-identical reruns
    cfg_b = ChainConfig(n=30, variant="ejs", p=0.4, seed=321, burn_in=100, samples=2000)
    assert run_chain(cfg_b) == run_chain(cfg_b)

    # (c) single-step removals from one pile of 10 at p=0.3 are Binomial(10, 0.3)
    rng = make_rng(2718)
    total = 0
    for _ in range(100_000):
        total += sample_ejs_picks(rng, (10,), 0.3)[0]
    mean = total / 100_000
    assert abs(mean - 3.0) < 0.05, f"empirical mean {mean}"

    # (d) qualitative limit shapes at n=210
    popov_prof = shape_profile(run_chain(ChainConfig(n=210, variant="popov", p=0.9, seed=42)))
    ejs_prof = shape_profile(run_chain(ChainConfig(n=210, variant="ejs", p=0.5, seed=42)))
    assert popov_prof.linear_residual < popov_prof.exponential_residual
    assert ejs_prof.exponential_residual < ejs_prof.linear_residual
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    report(13, ok, f"p=1 reduction, reproducibility, binomial mean {mean:.4f}, "
                   f"popov~linear ejs~exponential ({elapsed:.1f}s)")


def _random_partition(rng, n):
    parts = []
    left = n
    while left:
        take = rng.randint(1, left)
        parts.append(take)
        left -= take
    return normalize(parts)


def _random_strict_composition(rng, n):
    parts = []
    left = n
    while left:
        take = rng.randint(1, left)
        parts.append(take)
        left -= take
    return tuple(parts)


def _random_montreal(rng, n):
    alpha = list(_random_strict_composition(rng, n))
    for _ in range(rng.randint(0, 3)):
        if len(alpha) >= 2:
            alpha.insert(rng.randint(1, len(alpha) - 1), 0)
    return tuple(alpha)


def _random_bounded_partition(rng, n, cap):
    parts = []
    left = n
    while left:
        take = rng.randint(1, min(cap, left))
        parts.append(take)
        left -= take
    return normalize(parts)


def test_criterion_14_conservation_fuzzing():
    t0 = time.perf_counter()
    rng = random.Random(0xB5)
    trials = 10_000
    for _ in range(trials):
        n = rng.randint(1, 60)
        lam = _random_partition(rng, n)
        assert sum(bulgarian_step(lam)) == n
        assert sum(dual_step(lam)) == n
        mask = [i for i in range(len(lam)) if rng.random() < 0.5]
        assert sum(popov_masked_step(lam, mask)) == n
        picks = tuple(rng.randint(0, p) for p in lam)
        assert sum(ejs_masked_step(lam, picks)) == n

        alpha = _random_strict_composition(rng, n)
        assert sum(carolina_step(alpha)) == n
        beta = _random_montreal(rng, n)
        assert sum(montreal_step(beta)) == n

        L = rng.randint(1, 8)
        a_state = AustrianState(_random_bounded_partition(rng, n, L), rng.randint(0, L - 1), L)
        assert austrian_step(a_state).total == a_state.total

        players = tuple(
            _random_partition(rng, rng.randint(1, 12)) for _ in range(rng.randint(1, 4))
        )
        m_state = MultiplayerState(players)
        assert multiplayer_step(m_state).total == m_state.total

        seats = rng.randint(1, 8)
        circ = tuple(rng.randint(0, 10) for _ in range(seats))
        assert sum(servedio_yeh_step(circ)) == sum(circ)
        p_state = PointerState(circ, rng.randint(1, seats))
        assert janetzko_step(p_state).total == sum(circ)
    elapsed = time.perf_counter() - t0
    report(14, True, f"{trials} random states per variant, ten variants, exact ({elapsed:.1f}s)")
