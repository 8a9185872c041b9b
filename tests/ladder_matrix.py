"""The factor-number ladder against the per-window oracle, over every design.

For each (n, p) design, seed 1-5 and model kind in ``CASES``, one running-sum
``ic_ladder`` must give, through ``ic_selection`` for each of the six criterion
variants, the same q_hat, q_by_c, s_of_c, c_hat and stability warning as
``oracles.per_window_select_factor_number_ic``, which copies out every
sub-panel and computes its autocovariances on their own. Tier-1 runs the
cases in ``FAST`` (tests/test_factor_number.py); the whole matrix runs as

    PYTHONPATH=src:tests python tests/ladder_matrix.py
"""
from __future__ import annotations

import sys

import numpy as np

from fnets.factor_number import ic_ladder, ic_selection
from fnets.panel import TimeSeriesPanel
from fnets.simulate import SimSpec, sim_unrestricted, sim_var
from oracles import per_window_select_factor_number_ic

DESIGNS = ((500, 50), (500, 100), (500, 200), (120, 10), (60, 80), (300, 20))
KINDS = ("unrestricted", "restricted")
CASES = [(n, p, seed, kind) for n, p in DESIGNS for seed in range(1, 6) for kind in KINDS]
FAST = [(n, p, seed, kind) for n, p, seed in ((500, 50, 1), (120, 10, 2), (60, 80, 3),
                                              (300, 20, 4)) for kind in KINDS]


def ladder_panel(n: int, p: int, seed: int) -> TimeSeriesPanel:
    """Centred factor-adjusted VAR panel with two dynamic factors."""
    spec = SimSpec(n=n, p=p, q=2, seed=seed)
    x = sim_var(spec).data + sim_unrestricted(spec)
    mean = x.mean(axis=1)
    return TimeSeriesPanel(x - mean[:, None], mean)


def mismatch(n: int, p: int, seed: int, kind: str) -> str | None:
    """None when the ladder and the oracle agree exactly on every variant,
    else what differs."""
    panel = ladder_panel(n, p, seed)
    ladder = ic_ladder(panel, kind)
    bad = []
    for variant in range(1, 7):
        got = ic_selection(ladder, kind, variant)
        want = per_window_select_factor_number_ic(panel, model_kind=kind, variant=variant)
        bad += [
            f"IC{variant} {name}"
            for name in ("q_hat", "q_by_c", "s_of_c", "c_hat", "stability_warning")
            if not np.array_equal(getattr(got, name), getattr(want, name))
        ]
    return f"n={n} p={p} seed={seed} {kind}: {', '.join(bad)} differ" if bad else None


def main() -> int:
    failures = [msg for case in CASES if (msg := mismatch(*case)) is not None]
    for msg in failures:
        print(msg)
    print(f"{len(CASES) - len(failures)} of {len(CASES)} ladder cases match the oracle")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
