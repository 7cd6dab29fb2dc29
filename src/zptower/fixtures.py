"""Frozen verification fixtures: reference towers with their exact invariants.

Each suite pins a tower specification together with independently recorded
genus and kernel-dimension values; `zptower verify` recomputes them from
scratch and compares exactly.  Depths are per-suite defaults chosen so the
whole battery runs in minutes; deeper levels of the same towers are exercised
by the acceptance tests.

Every genus column equals the proven closed form `tower.closed_form_basic`, and
every p=2 a^(1) column equals `analysis.anumber_basic_p2` (checked by
tests/test_tower.py::test_fixture_columns_match_closed_forms), levels 6-7
included.  The p=3 level-5 kernel values (g = 51546 and 36784) have never been
recomputed by this code: the dense int64 level-5 Cartier matrix needs 10.8 GB
or more.  Nor have the p=2 d=21 values for r >= 2 at level 7 (g = 57277);
their level-5 rows are recomputed by tests/test_acceptance.py and their
level-6 rows (g = 14301) by the opt-in deep lane, tests/test_deep.py.
All of these are marked below.
"""

from __future__ import annotations

from fractions import Fraction

#: suite name -> fixture description
#: tower fixtures: p, k, terms (v, c, i), per-level genus, per-r kernel dims
SUITES: dict[str, dict] = {
    "p3d7": {
        "kind": "tower",
        "p": 3,
        "terms": [(0, 1, 7)],
        "genus": [6, 66, 624, 5700, 51546],
        "a": {1: [4, 25, 214, 1915, 17224]},  # 17224 (level 5): not recomputed
        "default_depth": 3,
    },
    "p3d7-variants": {
        "kind": "tower_family",
        "p": 3,
        "towers": [
            {"terms": [(0, 1, 7), (0, 2, 5), (0, 2, 2)], "a": {1: [3, 24, 213, 1914]}},
            {"terms": [(0, 1, 7), (0, 2, 5)], "a": {1: [3, 24, 213, 1914]}},
        ],
        "genus": [6, 66, 624, 5700],
        "default_depth": 2,
    },
    "p3d5": {
        "kind": "tower",
        "p": 3,
        "terms": [(0, 1, 5), (0, 2, 2)],
        "genus": [4, 46, 442, 4060, 36784],
        # the level-5 entry (last) of every row: not recomputed
        "a": {
            1: [2, 19, 154, 1369, 12304],
            2: [4, 26, 230, 2052, 18456],
            3: [4, 31, 275, 2461, 22145],
            4: [4, 35, 305, 2735, 24605],
            5: [4, 39, 326, 2930, 26365],
            6: [4, 42, 344, 3076, 27680],
            7: [4, 45, 362, 3197, 28712],
            8: [4, 46, 368, 3281, 29525],
            9: [4, 46, 374, 3358, 30197],
            10: [4, 46, 380, 3422, 30756],
        },
        "delta_discrepancies": {2},
        "default_depth": 3,
    },
    "p3d5-variant": {
        "kind": "tower",
        "p": 3,
        "terms": [(0, 1, 5), (0, 2, 4), (0, 2, 1)],
        "genus": [4, 46, 442, 4060, 36784],
        # the level-5 entry (last) of every row: not recomputed
        "a": {
            1: [2, 18, 153, 1368, 12303],
            2: [4, 26, 230, 2052, 18456],
            3: [4, 31, 275, 2461, 22145],
            4: [4, 35, 305, 2735, 24605],
            5: [4, 39, 326, 2930, 26365],
            6: [4, 42, 344, 3076, 27680],
            7: [4, 45, 360, 3195, 28710],
            8: [4, 46, 368, 3281, 29525],
            9: [4, 46, 374, 3358, 30197],
            10: [4, 46, 380, 3422, 30756],
        },
        "default_depth": 3,
    },
    "p2d7": {
        "kind": "tower",
        "p": 2,
        "terms": [(0, 1, 7)],
        "genus": [3, 16, 70, 290, 1178, 4746, 19050],
        "a": {1: [2, 5, 19, 75, 299, 1195, 4779]},
        "default_depth": 6,
    },
    "p2d21": {
        "kind": "tower",
        "p": 2,
        "terms": [(0, 1, 21), (0, 1, 19), (0, 1, 15), (0, 1, 13), (0, 1, 9)],
        "genus": [10, 51, 217, 885, 3565, 14301, 57277],
        # the level-7 entry (last) of rows r >= 2: not recomputed; level 6 is
        # recomputed by the deep lane (tests/test_deep.py, pytest -m deep)
        "a": {
            1: [5, 16, 58, 226, 898, 3586, 14338],
            2: [8, 25, 94, 363, 1440, 5741, 22946],
            3: [9, 31, 116, 452, 1796, 7172, 28676],
            4: [10, 36, 131, 517, 2055, 8198, 32776],
            5: [10, 40, 142, 562, 2242, 8962, 35842],
            6: [10, 43, 152, 603, 2399, 9563, 38238],
            7: [10, 45, 162, 635, 2515, 10045, 40150],
            8: [10, 47, 169, 660, 2610, 10432, 41715],
            9: [10, 48, 175, 680, 2696, 10760, 43016],
            10: [10, 49, 180, 696, 2768, 11031, 44116],
        },
        "default_depth": 3,
    },
    "p2d21-variant": {
        "kind": "tower",
        "p": 2,
        "terms": [(0, 1, 21), (0, 1, 13), (0, 1, 9), (0, 1, 5), (0, 1, 3)],
        "genus": [10, 51, 217, 885, 3565, 14301, 57277],
        # the level-7 entry (last) of rows r >= 2: not recomputed; level 6 is
        # recomputed by the deep lane (tests/test_deep.py, pytest -m deep)
        "a": {
            1: [5, 16, 58, 226, 898, 3586, 14338],
            2: [8, 25, 95, 363, 1441, 5741, 22947],
            3: [9, 33, 117, 453, 1797, 7173, 28677],
            4: [10, 39, 131, 519, 2057, 8198, 32778],
            5: [10, 42, 142, 562, 2242, 8962, 35842],
            6: [10, 45, 152, 603, 2400, 9563, 38238],
            7: [10, 47, 162, 637, 2515, 10047, 40150],
            8: [10, 49, 171, 662, 2610, 10432, 41718],
            9: [10, 50, 179, 683, 2699, 10763, 43019],
            10: [10, 51, 185, 697, 2769, 11031, 44116],
        },
        "default_depth": 3,
    },
    "p5": {
        "kind": "tower_family",
        "p": 5,
        "towers": [
            {"terms": [(0, 1, 3)], "a": {1: [4, 64, 1564]}},
            {"terms": [(0, 1, 4)], "a": {1: [4, 84, 2084]}},
        ],
        "default_depth": 2,
    },
    "constants": {
        "kind": "constants",
        # d * alpha(r, p) rows and periods m(r, p) for the two reference pairs
        "rows": {
            (2, 21): {
                "alpha_d": ["7/8", "7/5", "7/4", "2", "35/16", "7/3", "49/20",
                            "28/11", "21/8", "35/13"],
                "m": [1, 2, 1, 3, 1, 3, 2, 5, 0, 6],
            },
            (3, 5): {
                "alpha_d": ["5/24", "5/16", "3/8", "5/12", "25/56", "15/32",
                            "35/72", "1/2", "45/88", "25/48"],
                "m": [1, 2, 2, 1, 3, 4, 1, 2, 5, 2],
            },
        },
    },
}


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)
