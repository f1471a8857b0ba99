"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Expected values come from independent oracles (closed forms, grid
searches, hand computations) — never from the code paths under test.
"""
import json
import time

import numpy as np

from helpers import (SELECTION_1D_OPTIMUM, estimate_bounds, grid_bilevel_2d,
                     grid_min_selection_composite, grid_min_selection_inner, rate_diagnostic,
                     reference_solve)

from fedbilevel import cli, solvers
from fedbilevel.config import ExperimentConfig
from fedbilevel.data import make_location_instance
from fedbilevel.federation import (CONTIGUOUS, FISM, IRIG, CostModel, partition_data,
                                   round_time, uniform_costs)
from fedbilevel.instances import location_problem, selection_1d_problem
from fedbilevel.oracles import BallDistances, QuadAnchor
from fedbilevel.problem import BoxConstraint, ProblemSpec, make_schedule
from fedbilevel.rng import make_rng
from fedbilevel.selfcheck import (finite_difference_failures, lane_subgrad_failures,
                                  projection_failures, stacked_value_failures,
                                  subgradient_inequality_failures)
from fedbilevel.solvers import client_local_pass, run_solver


def _check(name: str, condition: bool, detail: str = ""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance] {name}: {status}{' — ' + detail if detail else ''}")
    assert condition, f"{name}: {detail}"


def _sched_eps01(m: int):
    # a = 0.5 + 0.5*eps, b = 0.5 - eps at eps = 0.1
    return make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=m)


def test_c01_bilevel_correctness_1d():
    t0 = time.perf_counter()
    finals = {}
    prob1 = selection_1d_problem((1,))
    rec = run_solver(prob1, _sched_eps01(1), FISM, np.array([-8.0]), 20_000)
    finals["fism S=1"] = rec.final_x[0]
    prob2 = selection_1d_problem((1, 1))
    rec = run_solver(prob2, _sched_eps01(2), FISM, np.array([-8.0]), 20_000)
    finals["fism S=2"] = rec.final_x[0]
    rec = run_solver(prob1, _sched_eps01(1), IRIG, np.array([-8.0]), 20_000)
    finals["irig"] = rec.final_x[0]
    elapsed = time.perf_counter() - t0
    errs = {k: abs(v - SELECTION_1D_OPTIMUM) for k, v in finals.items()}
    detail = ", ".join(f"{k}: |x-1|={e:.2e}" for k, e in errs.items()) + f", {elapsed:.1f}s"
    _check("C1 bilevel correctness 1D",
           all(e <= 1e-2 for e in errs.values()) and elapsed < 5.0, detail)


def test_c02_bilevel_correctness_2d():
    t0 = time.perf_counter()
    centers = [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]
    radii = [1.5, 1.5]
    anchor = np.array([6.0, 4.0])  # outside both balls
    x_grid = grid_bilevel_2d(centers, radii, anchor)
    prob = ProblemSpec(
        dimension=2, inner=BallDistances(np.array(centers), radii),
        outer=QuadAnchor(anchor), clients=((0,), (1,)),
        constraint=BoxConstraint.symmetric(2, 10.0), mu_H=1.0, name="lens")
    rec = run_solver(prob, _sched_eps01(2), FISM, np.array([9.0, -9.0]), 20_000)
    err = float(np.linalg.norm(rec.final_x - x_grid))
    elapsed = time.perf_counter() - t0
    _check("C2 bilevel correctness 2D", err <= 5e-2 and elapsed < 30.0,
           f"|x - grid| = {err:.2e} (grid at {x_grid}), {elapsed:.1f}s")


def test_c03_regularization_path():
    t0 = time.perf_counter()
    prob = selection_1d_problem()
    # budgets grow as lam shrinks: the c/k stepsizes scale with 1/lam, so a
    # fixed budget would loosen the approximation as lam decreases
    errs = []
    for lam, iters in [(0.1, 500), (0.01, 10_000), (0.001, 300_000)]:
        out = float(reference_solve(prob, lam, iters, seed=7)[0])
        grid = grid_min_selection_composite(lam)
        assert abs(out - grid) <= 5e-2, f"lam={lam}: {out} vs grid {grid}"
        errs.append(abs(out - SELECTION_1D_OPTIMUM))
    elapsed = time.perf_counter() - t0
    monotone = errs[0] > errs[1] > errs[2]
    _check("C3 regularization path", monotone and all(e <= 1e-1 for e in errs)
           and elapsed < 10.0,
           f"errors {[f'{e:.2e}' for e in errs]}, {elapsed:.1f}s")


def test_c04_rate_check():
    t0 = time.perf_counter()
    prob = selection_1d_problem()
    # start on the anchor side of the inner solution set so the averaged
    # iterate approaches it from outside and the objective gap stays positive
    rec = run_solver(prob, _sched_eps01(1), FISM, np.array([8.0]), 10_000)
    f_star = grid_min_selection_inner()
    slope = rate_diagnostic(rec, f_star)
    elapsed = time.perf_counter() - t0
    _check("C4 rate check", slope <= -0.2 and elapsed < 10.0,
           f"fitted slope {slope:.3f} (theory -0.4), {elapsed:.1f}s")


def test_c05_equivalence_oracle():
    prob = selection_1d_problem()
    sched = _sched_eps01(1)
    x0 = np.array([-8.0])
    a, b = [], []
    run_solver(prob, sched, FISM, x0, 100, observe=lambda s: a.append(s.x))
    run_solver(prob, sched, IRIG, x0, 100, observe=lambda s: b.append(s.x))
    same = (len(a) == len(b) == 101 and
            all(x.tobytes() == y.tobytes() for x, y in zip(a, b)))
    _check("C5 equivalence oracle", same, "100 rounds bitwise identical at S=1, m=1")


def test_c06_drift_bound():
    inst = make_location_instance(5, 50, seed=3)
    prob = location_problem(inst, partition_data(50, 5, CONTIGUOUS, seed=3))
    cf, ch = estimate_bounds(prob, samples=1000, seed=3)
    sched = make_schedule(1, 0.8, 1, 0.1, mu_H=1, m=50)
    x0 = make_rng(3, 2).uniform(-10.0, 10.0, 5)
    states = []
    run_solver(prob, sched, FISM, x0, 10, observe=states.append)
    violations = 0
    checked = 0
    worst = 0.0
    chains_match = len(states) == 11
    for state, new_state in zip(states, states[1:]):
        gamma, lam = sched.at(state.k)
        unit = gamma * (cf + lam * ch / 50) * 1.01
        outer_subgrad = prob.outer.subgrad(state.x)
        ends = []
        for group in prob.clients:
            # the client's local path, one single-function pass at a time
            path = [state.x]
            for i in group:
                path.append(client_local_pass(path[-1], outer_subgrad, gamma, lam, 50,
                                              prob.inner, (i,), prob.constraint))
            full = client_local_pass(state.x, outer_subgrad, gamma, lam, 50, prob.inner,
                                     group, prob.constraint)
            chains_match = chains_match and path[-1].tobytes() == full.tobytes()
            ends.append(path[-1])
            for t, x_t in enumerate(path):
                # path[t] is the local iterate after t steps (index t+1)
                drift = float(np.linalg.norm(x_t - state.x))
                allowed = (t + 1) * unit
                checked += 1
                worst = max(worst, drift / allowed)
                if drift > allowed:
                    violations += 1
        acc = ends[0]
        for x_end in ends[1:]:
            acc = acc + x_end
        chains_match = chains_match and (acc / len(ends)).tobytes() == new_state.x.tobytes()
    _check("C6 drift bound", violations == 0 and chains_match,
           f"{checked} local iterates checked, worst drift/bound = {worst:.3f}, "
           f"chained paths reproduce the round bitwise: {chains_match}")


def test_c07_subgradient_counts():
    prob = selection_1d_problem((6, 6, 6, 6))  # m = 24
    sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=24)
    fism = run_solver(prob, sched, FISM, np.array([3.0]), 200)
    irig = run_solver(prob, sched, IRIG, np.array([3.0]), 200)
    ok = (fism.rows[-1].outer_subgrad_evals == 200
          and fism.rows[-1].inner_subgrad_evals == 200 * 24
          and irig.rows[-1].outer_subgrad_evals == 200 * 24
          and irig.rows[-1].inner_subgrad_evals == 200 * 24)
    _check("C7 subgradient counts", ok,
           f"fism (inner, outer) = ({fism.rows[-1].inner_subgrad_evals}, "
           f"{fism.rows[-1].outer_subgrad_evals}), irig outer = "
           f"{irig.rows[-1].outer_subgrad_evals}")


def test_c08_timing_model():
    expected = {1: 500.0, 2: 250.0, 4: 125.0, 8: 63.0}
    times = {}
    for s, want in expected.items():
        part = partition_data(500, s, CONTIGUOUS)
        times[s] = round_time(uniform_costs(tuple(map(len, part))), FISM)
    part1 = partition_data(500, 1, CONTIGUOUS)
    equal_at_one = round_time(uniform_costs(tuple(map(len, part1))), IRIG) == times[1]

    rng = make_rng(41)
    eps = 0.7
    bound_ok = True
    for _ in range(100):
        m = int(rng.integers(4, 60))
        s = int(rng.integers(1, m + 1))
        part = partition_data(m, s, CONTIGUOUS)
        slow = []
        fast = []
        for size in map(len, part):
            fast.append([])
            slow.append([])
            for _ in range(size):
                base = float(rng.uniform(0.2, 2.0))
                fast[-1].append(base)
                slow[-1].append(base + float(rng.uniform(0.0, 1.5)))
        t_fism = round_time(CostModel(tuple(fast), [eps] * s), FISM)
        t_irig = round_time(CostModel(tuple(slow), [0.0] * s), IRIG)
        if t_fism > t_irig + eps + 1e-12:
            bound_ok = False
    ok = times == expected and equal_at_one and bound_ok
    _check("C8 timing model", ok,
           f"per-round times {tuple(times.values())}, S=1 equality {equal_at_one}, "
           f"100 random models within bound {bound_ok}")


def test_c09_classification_desk_scale():
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    for key, value in [("problem", "logistic-synthetic"), ("n", "20"), ("m", "400"),
                       ("margin", "0.5"), ("s_values", "4"), ("methods", "fism"),
                       ("repeats", "10"), ("test_size", "100"), ("max_rounds", "200"),
                       ("seed", "11")]:
        cfg.set_key(key, value)
    cfg.resolve()
    records = []
    failures = cli.execute(cfg, grid=True,
                           emit=lambda run_id, record: records.append((run_id, record)),
                           progress=lambda *a: None)
    elapsed = time.perf_counter() - t0
    accs = [rec.test_accuracy for _, rec in records]
    mean_acc = float(np.mean(accs))
    _check("C9 classification desk-scale",
           not failures and len(accs) == 10 and mean_acc >= 0.95 and elapsed < 20.0,
           f"mean held-out accuracy {mean_acc:.3f} over 10 repeats, {elapsed:.1f}s")


def test_c10_oracle_suite():
    fd = finite_difference_failures(points=500)
    ineq = subgradient_inequality_failures(pairs=100)
    stacked = stacked_value_failures(stacks=100)
    lanes = lane_subgrad_failures(stacks=100)
    proj = projection_failures(pairs=100)
    total = (sum(fd.values()) + sum(ineq.values()) + sum(stacked.values())
             + sum(lanes.values()) + sum(proj.values()))
    _check("C10 oracle suite", total == 0,
           f"failures: fd={fd}, subgrad={ineq}, stacked={stacked}, lanes={lanes}, "
           f"projection={proj}")


def test_c11_determinism_across_block_length(tmp_path, monkeypatch):
    cfg_text = ("problem = location\nn = 4\nm = 24\nmethods = fism\n"
                "s_values = 8\nmax_rounds = 30\ntol = none\nseed = 5\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    streams = []
    for block in (1, 32):
        monkeypatch.setattr(solvers, "_BLOCK", block)
        out = tmp_path / f"b{block}"
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "location_fism_S8_rep0.jsonl").read_text().splitlines()
        canonical = []
        for line in lines:
            row = json.loads(line)
            row.pop("wall_clock_sec")
            canonical.append(json.dumps(row, sort_keys=True))
        summary = json.loads((out / "location_fism_S8_rep0.json").read_text())
        canonical.append(json.dumps(summary["final_x"]))
        streams.append("\n".join(canonical).encode("utf-8"))
    _check("C11 determinism across block length", streams[0] == streams[1],
           f"{len(streams[0])} bytes of metric rows and final_x identical for "
           f"block lengths 1 and 32")
