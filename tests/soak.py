"""Soak the simulator's segment blocks against its tick loop on fresh draws.

The differential tests in test_simulator.py are derandomized: each runs the
same examples every time, picked by a hash of its source. This script draws
N new cases per strategy at a given seed, from `segment_runs()` and from
`runs(["wall", "wall", "contact"])`, runs `assert_same_run` on each, and
prints how many disagree and which ones (by draw index, with the first line
of the failure). The same seed draws the same cases in any checkout whose
strategies are unchanged, so two checkouts can be compared case by case.
pytest does not collect it.

    PYTHONPATH=src python tests/soak.py [-n N] [--seed S]
"""

import argparse
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, seed, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_simulator import assert_same_run, runs, segment_runs  # noqa: E402

TESTS = str(Path(__file__).resolve().parent / "test_simulator.py")

STRATEGIES = {"segment_runs": segment_runs(), "guarded_runs": runs(["wall", "wall", "contact"])}


def soak(strategy, n: int, at: int) -> tuple[int, list[tuple[int, str]]]:
    """(cases drawn, [(draw index, failure)]) of n draws at seed `at`."""
    drawn, failures = 0, []

    @seed(at)
    @settings(max_examples=n, derandomize=False, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(strategy)
    def check(case):
        nonlocal drawn
        drawn += 1
        paths, cfg, kwargs = case[:3]           # segment_runs adds what must happen
        try:
            assert_same_run(paths, cfg, **kwargs)
        except (Exception, pytest.fail.Exception) as exc:
            frames = traceback.extract_tb(exc.__traceback__)
            where = [f for f in frames if f.filename == TESTS][-1]
            line = (str(exc).strip().splitlines() or [where.line])[0]
            failures.append((drawn - 1, f"{type(exc).__name__} at line {where.lineno}: {line}"))

    check()
    return drawn, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=150, help="cases per strategy")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    total = bad = 0
    for name, strategy in STRATEGIES.items():
        drawn, failures = soak(strategy, args.n, args.seed)
        total, bad = total + drawn, bad + len(failures)
        print(f"{name}: {len(failures)} of {drawn} disagree")
        for index, message in failures:
            print(f"  #{index}: {message}")
    print(f"total: {bad} of {total} disagree (seed {args.seed})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
