"""Frozen outputs the benchmark checks against.

Recorded from the program at the commit that added the benchmark, with a
node-only budget of 3e6 nodes:

* ``CONSTRUCT[q] = (size, tight)``: ``construct(q)`` for every member of
  the construct pools.  A later program may return a larger set, never a
  smaller one, and a tight size must stay tight and equal.
* ``EXACT[q]``: ``exact_max(q).max_size`` for every certify modulus.
* ``SIMULATE[(q, trials, seed)]``: ``simulate_channel`` counts on the
  short code of the default seed (full and tiny ladders).
"""

CONSTRUCT = {
    320: (46, True),
    490: (117, True),
    770: (189, True),
    800: (124, True),
    832: (119, True),
    848: (132, True),
    2018: (504, True),
    2026: (506, True),
    3904: (561, True),
    4036: (1008, True),
    4052: (1012, True),
    4288: (616, True),
    4544: (653, True),
    5390: (1340, True),
    6370: (1585, True),
    10010: (2493, False),
    13090: (3256, False),
    18944: (2709, True),
    19808: (3094, True),
    19984: (3030, False),
    20000: (3124, True),
    20144: (3081, False),
    20192: (3154, True),
    20432: (3192, True),
    20464: (3179, False),
    20480: (2926, True),
    20528: (3141, False),
    20992: (3000, True),
    25094: (6273, True),
    25202: (6300, True),
    25306: (6326, True),
    25394: (6348, True),
    25442: (6360, True),
    25526: (6381, True),
    25642: (6410, True),
    25786: (6446, True),
    28672: (4096, True),
    50026: (12506, True),
    50074: (12518, True),
    50188: (12546, True),
    50306: (12576, True),
    50342: (12585, True),
    50404: (12600, True),
    50438: (12609, True),
    50458: (12614, True),
    50486: (12621, True),
    50506: (12626, True),
    50612: (12652, True),
    50788: (12696, True),
    50884: (12720, True),
    51052: (12762, True),
    51284: (12820, True),
    51572: (12892, True),
    100052: (25012, True),
    100148: (25036, True),
    100612: (25152, True),
    100684: (25170, True),
    100876: (25218, True),
    100916: (25228, True),
    100972: (25242, True),
    101012: (25252, True),
}

EXACT = {
    61: 12, 62: 12, 64: 9, 65: 15, 67: 13, 68: 16,
    70: 16, 71: 14, 73: 16, 74: 16, 76: 18, 77: 15,
    79: 15, 80: 12, 83: 18, 85: 19, 86: 21, 88: 13,
    89: 18, 91: 18, 92: 22, 94: 18, 95: 22, 97: 24,
    100: 24, 101: 20, 110: 25, 115: 25, 119: 23, 124: 30,
    130: 30, 133: 28, 140: 34, 145: 33, 146: 30, 149: 37,
}

SIMULATE = {
    (68, 20000, 440894): {'trials': 20000, 'corrected': 20000, 'detected': 0, 'miscorrected': 0, 'seed': 440894},
    (20, 200, 593890): {'trials': 200, 'corrected': 200, 'detected': 0, 'miscorrected': 0, 'seed': 593890},
}
