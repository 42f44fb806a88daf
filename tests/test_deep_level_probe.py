"""Item 14's whole-region probe of the ROADMAP, as a ratchet.

The draws (``scan_deep_levels.probe_levels``: seeds 1-5, 300 draws each, 687
shot levels) are fixed.  Every draw that passes |dE| <= 1e-7 today must keep
passing, no draw may raise anything but a ShootingError, and neither the
silent misses nor the typed errors may grow in number.  The silent misses
are the fixed 6,000-step shot at deep levels and large |kappa_bar| (ROADMAP
item 4); mending them shrinks ``NOT_PASSING`` and the counts below.
"""

from collections import Counter

from scan_deep_levels import classify, probe_levels

# (seed, draw index) of the levels that do not pass today, all silent misses
NOT_PASSING = {
    1: [0, 8, 15, 26, 32, 37, 42, 46, 67, 76, 80, 98, 99, 103, 122, 128, 150, 177, 199, 204,
        216, 229, 282, 287, 296],
    2: [6, 15, 44, 63, 74, 78, 87, 96, 98, 100, 121, 135, 141, 146, 152, 157, 182, 183, 188,
        208, 209, 219, 232, 233, 262, 266, 269, 280, 281, 284, 288],
    3: [4, 12, 24, 31, 38, 39, 53, 57, 77, 97, 110, 131, 137, 163, 166, 171, 179, 182, 197,
        200, 201, 215, 218, 221, 227, 244, 248, 259, 265, 271, 286, 295],
    4: [2, 28, 30, 40, 58, 60, 72, 79, 93, 98, 104, 112, 119, 124, 136, 140, 144, 147, 152,
        153, 162, 164, 169, 215, 217, 221, 222, 247, 253, 278, 287],
    5: [8, 10, 11, 15, 16, 18, 23, 28, 34, 49, 64, 84, 91, 101, 103, 125, 134, 137, 143, 147,
        152, 156, 176, 179, 183, 198, 218, 219, 233, 243, 284, 295],
}
MOST_SILENT = 151
MOST_TYPED = 0


def test_probe_keeps_every_pass_and_types_every_error():
    levels = probe_levels()
    assert len(levels) == 687
    known = {(seed, i) for seed, draws in NOT_PASSING.items() for i in draws}
    outcomes, lost, untyped = Counter(), [], []
    for key, params, channel, n, expected in levels:
        outcome, detail = classify(params, channel, n, expected)
        outcomes[outcome] += 1
        if outcome != "pass" and key not in known:
            lost.append((key, params, channel.kappa, n, outcome, detail))
        if outcome == "untyped":
            untyped.append((key, repr(detail)))
    assert not untyped
    assert not lost
    assert outcomes["silent"] <= MOST_SILENT
    assert outcomes["typed"] <= MOST_TYPED
