"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -s``.
"""

import itertools
import math
import pathlib
import time

from kexnet.analysis import (
    CableFailure,
    CenterSwitchFailure,
    KeyExchangerFailure,
    apply_failure,
    build_sbep_table,
    fit_linear,
)
from kexnet.oracle import min_steps_bruteforce
from kexnet.protocols import (
    generate_fcn_single,
    generate_lch,
    generate_star,
    sbep_formula,
)
from kexnet.schedule import validate_schedule
from kexnet.serialize import schedule_to_text
from kexnet.simengine import SimConfig, run
from kexnet.topology import TopologyKind, build_topology, complexity_class

GOLDEN = pathlib.Path(__file__).parent / "golden"

STEP_TABLE = {
    2: 1, 3: 3, 4: 3, 5: 6, 6: 6, 7: 8, 8: 8, 9: 12, 10: 12,
    11: 14, 12: 14, 13: 17, 14: 17, 15: 19, 16: 19, 17: 22,
    18: 22, 19: 24, 20: 24,
}


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_formula_reproduction():
    start = time.perf_counter()
    ok = all(sbep_formula(n) == v for n, v in STEP_TABLE.items())
    elapsed = time.perf_counter() - start
    report(f"1 step formula matches published table ({elapsed * 1e3:.3f} ms)",
           ok and elapsed < 1e-3)


def test_criterion_2_worked_example():
    golden = (GOLDEN / "table1_star5.txt").read_text()
    report("2 star n=5 schedule byte-identical to golden",
           schedule_to_text(generate_star(5)) == golden)


def test_criterion_3_protocol_formula_consistency():
    start = time.perf_counter()
    ok = True
    for n in range(2, 51):
        s = generate_star(n)
        ok = ok and validate_schedule(s).ok and len(s.steps) == sbep_formula(n)
    elapsed = time.perf_counter() - start
    report(f"3 star schedules valid with formula step count, n=2..50 "
           f"({elapsed:.2f} s)", ok and elapsed < 5.0)


def test_criterion_4_regression_reproduction():
    fit = fit_linear([(float(n), float(s)) for n, s in build_sbep_table(20)])
    ok = (
        abs(fit.slope - 1.3192982456) < 1e-6
        and abs(fit.intercept - (-1.301754386)) < 1e-6
        and abs(fit.r_squared - 0.988989157) < 1e-6
    )
    report("4 regression constants within 1e-6", ok)


def test_criterion_5_oracle_tightness():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        expected = n - 1 if n % 2 == 0 else n
        ok = ok and min_steps_bruteforce(TopologyKind.STAR, n).min_steps == expected
        ok = ok and len(generate_fcn_single(n).steps) == expected
    elapsed = time.perf_counter() - start
    report(f"5 exhaustive minimum equals matching bound, n=2..8 "
           f"({elapsed:.2f} s)", ok and elapsed < 60.0)


def test_criterion_6_complexity_table():
    expected = {
        (TopologyKind.FCN_FULL, "cable"): "O(N^2)",
        (TopologyKind.FCN_FULL, "ke"): "O(N^2)",
        (TopologyKind.FCN_FULL, "time"): "O(1)",
        (TopologyKind.FCN_SINGLE, "cable"): "O(N^2)",
        (TopologyKind.FCN_SINGLE, "ke"): "O(N)",
        (TopologyKind.FCN_SINGLE, "time"): "O(N)",
        (TopologyKind.LCH, "cable"): "O(N)",
        (TopologyKind.LCH, "ke"): "O(N)",
        (TopologyKind.LCH, "time"): "O(N^2)",
        (TopologyKind.STAR, "cable"): "O(N)",
        (TopologyKind.STAR, "ke"): "O(N)",
        (TopologyKind.STAR, "time"): "O(N)",
    }
    ok = all(
        complexity_class(kind, metric).value == v
        for (kind, metric), v in expected.items()
    )
    report("6 all 12 complexity-table entries exact", ok)


def test_criterion_7_reliability():
    ok = True
    for n in range(2, 11):
        pairs = n * (n - 1) // 2
        star = build_topology(TopologyKind.STAR, n)
        ok = ok and not apply_failure(star, CenterSwitchFailure()).reachable_pairs
        for h in range(1, n + 1):
            for f in (CableFailure(h), KeyExchangerFailure(h, 1)):
                lost = pairs - len(apply_failure(star, f).reachable_pairs)
                ok = ok and lost == n - 1
        lch = build_topology(TopologyKind.LCH, n)
        for k in range(1, n):
            lost = pairs - len(apply_failure(lch, CableFailure(k)).reachable_pairs)
            ok = ok and lost == k * (n - k)
        for kind in (TopologyKind.FCN_FULL, TopologyKind.FCN_SINGLE):
            t = build_topology(kind, n)
            for a, b in itertools.combinations(range(1, n + 1), 2):
                lost = pairs - len(
                    apply_failure(t, CableFailure((a, b))).reachable_pairs
                )
                ok = ok and lost == 1
    report("7 failure loss counts exact for all components, n=2..10", ok)


def test_criterion_8_simulation():
    star5 = build_topology(TopologyKind.STAR, 5)
    three = run(SimConfig(topology=star5, key_bits=3))
    ok = three.steps_executed == 18 and all(
        b == 3 for b in three.bits_per_pair.values()
    ) and len(three.bits_per_pair) == 10
    truncated = run(
        SimConfig(topology=star5, key_bits=1, failures=((4, CenterSwitchFailure()),))
    )
    done = {p for p, b in truncated.bits_per_pair.items() if b == 1}
    expected = {tuple(sorted(p)) for p in [(1, 2), (3, 4), (2, 3), (4, 5), (5, 1)]}
    ok = ok and done == expected and len(truncated.lost_pairs) == 5
    report("8 simulation conservation and truncated replay", ok)


def test_criterion_9_lch_growth():
    ns = [8, 16, 32, 64]
    counts = [len(generate_lch(n).steps) for n in ns]
    slope = fit_linear(
        [(math.log(n), math.log(c)) for n, c in zip(ns, counts)]
    ).slope
    report(f"9 chain schedule log-log slope {slope:.3f} in [1.7, 2.3]",
           1.7 <= slope <= 2.3)


def test_criterion_10_determinism():
    from kexnet.cli import main

    gens = [generate_star, generate_fcn_single, generate_lch]
    ok = all(
        len({schedule_to_text(g(n)) for _ in range(3)}) == 1
        for g in gens for n in (5, 12)
    )
    import contextlib
    import io

    outs = set()
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["compare", "--n", "9", "--format", "csv"])
        outs.add(buf.getvalue())
    report("10 generators and commands bit-identical across 3 runs",
           ok and len(outs) == 1)
