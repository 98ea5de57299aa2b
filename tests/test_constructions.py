"""Pattern constructions: worked examples, per-divisor pieces, reports."""

import hashlib
import json
import math

import pytest

from construct_sweep import SWEEP, SWEEP_SHA256
from golden_data import (
    GOLDEN_SETS,
    GOLDEN_SIZES,
    HONEST_73,
    TABLE_CIRCULANT,
    TABLE_GRID,
)
from magset.cli import main
from magset.constructions import (
    ConstructionError,
    _class_optimum,
    _domain_wall_exponents,
    _grid_cells,
    _orbit_exponents,
    _orbit_layer,
    build_divisor_piece,
    build_eightfold,
    build_four_times_odd,
    build_twice_odd,
    construct,
    divisor_context,
    hamming_upper_bound,
)
from magset.numtheory import (
    coset_reps,
    divisors,
    euler_phi,
    mult_order_naive,
    two_adic_valuation,
)
from magset.residues import Instance
from magset.search import exact_max
from magset.verifier import is_b1_set, is_b1_set_reference


def test_hamming_upper_bound():
    assert hamming_upper_bound(40) == 9
    assert hamming_upper_bound(20) == 4
    assert hamming_upper_bound(4 * 95) == 94
    assert hamming_upper_bound(17, lam=2) == 8
    for lam in (0, -1):
        with pytest.raises(ValueError, match="lam >= 1"):
            hamming_upper_bound(40, lam)


# -- divisor contexts --------------------------------------------------------

def test_divisor_context_circulant_family():
    ctx = divisor_context(5)
    assert ctx.two_in_three
    assert (ctx.n, ctx.s, ctx.m, ctx.k_prime, ctx.r_prime) == (4, 3, 1, 2, 0)
    assert ctx.reps == (1,)


def test_divisor_context_grid_family():
    ctx = divisor_context(11)
    assert not ctx.two_in_three
    assert (ctx.n, ctx.t, ctx.s, ctx.b) == (5, 2, 1, 13)
    assert len(ctx.reps) == 1


def test_divisor_context_matches_frozen_tables():
    for p, n, m, kp, rp, *_ in TABLE_CIRCULANT:
        ctx = divisor_context(p)
        assert ctx.two_in_three
        assert (ctx.n, ctx.m) == (n, m), p
        if kp is not None:
            assert (ctx.k_prime, ctx.r_prime) == (kp, rp), p
    for p, n, t, s, n_cosets, *_ in TABLE_GRID:
        ctx = divisor_context(p)
        assert not ctx.two_in_three
        assert (ctx.n, ctx.t, len(ctx.reps)) == (n, t, n_cosets), p
        if p == 73:
            assert ctx.s == HONEST_73["s"]  # fixture row is non-canonical
        else:
            assert ctx.s == s, p


def test_divisor_context_matches_brute_force():
    # n, s, t and the coset count from their definitions, for every
    # d < 2000 with gcd(d, 6) = 1.
    for d in range(5, 2000):
        if math.gcd(d, 6) != 1:
            continue
        ctx = divisor_context(d)
        n = mult_order_naive(3, d)
        orbit = {pow(3, e, d) for e in range(n)}
        assert ctx.n == n and ctx.two_in_three == (2 in orbit), d
        if ctx.two_in_three:
            s = next(e for e in range(1, n) if pow(3, e, d) == 2)
            assert ctx.s == s, d
            assert ctx.m == min(s, n - s), d
            assert 0 <= ctx.r_prime < 2 * ctx.m, d
            assert n == 2 * ctx.k_prime * ctx.m + ctx.r_prime, d
            t = 1
        else:
            t = next(t for t in range(1, d) if pow(2, t, d) in orbit)
            s = next(e for e in range(n)
                     if pow(2, t, d) * pow(3, e, d) % d == 1)
            assert (ctx.t, ctx.s, ctx.b) == (t, s, d + 2), d
        phi = sum(1 for x in range(1, d) if math.gcd(x, d) == 1)
        assert len(ctx.reps) * t * n == phi, d
        assert ctx.reps[0] == 1 and list(ctx.reps) == sorted(set(ctx.reps)), d
        assert all(math.gcd(a, 2 * d) == 1 for a in ctx.reps), d


def test_divisor_context_rejects_bad_d():
    for d in (1, 3, 4, 9, 15):
        with pytest.raises(ConstructionError):
            divisor_context(d)


# -- per-divisor pieces -------------------------------------------------------

def test_piece_examples():
    assert build_divisor_piece(5, 10).elements == {1, 9}
    assert build_divisor_piece(13, 26).elements == {3, 7, 15, 25}
    assert build_divisor_piece(19, 190).elements == \
        {5, 25, 35, 45, 55, 85, 115, 125, 175}


def test_piece_matches_frozen_tables_at_2p():
    for p, *_mid, size, exact, witness in TABLE_CIRCULANT:
        piece = build_divisor_piece(p, 2 * p)
        assert piece.elements == witness, p
        assert piece.size == size, p
        # m = 2 (only p = 7 and 17) is the one certified case below phi/2.
        assert piece.certified == exact == \
            (2 * size == euler_phi(p) or p in (7, 17)), p
    for p, *_mid, size, exact, witness in TABLE_GRID:
        piece = build_divisor_piece(p, 2 * p)
        if p == 73:  # fixture row is sub-optimal; pattern does better
            assert piece.size >= HONEST_73["min_size"]
            assert not piece.certified
        else:
            assert piece.elements == witness, p
            assert piece.size == size, p
            assert piece.certified == exact == (2 * size == euler_phi(p)), p


def test_piece_certified_example():
    piece = build_divisor_piece(67, 134)
    assert piece.certified and piece.size == 33
    assert 2 * piece.size == euler_phi(67)


@pytest.mark.parametrize("d", [x for x in range(5, 122) if math.gcd(x, 6) == 1])
def test_piece_sweep_valid_and_in_class(d):
    q = 2 * d
    piece = build_divisor_piece(d, q)
    assert is_b1_set(piece.elements, q).valid
    assert all(d // math.gcd(x, d) == d for x in piece.elements)
    assert piece.size >= 1


def test_piece_scales_into_larger_modulus():
    small = build_divisor_piece(19, 38)
    large = build_divisor_piece(19, 190)
    assert large.elements == {x * 5 % 190 for x in small.elements}
    assert large.case == small.case
    with pytest.raises(ConstructionError):
        build_divisor_piece(19, 40)  # 19 does not divide 20
    with pytest.raises(ConstructionError):
        build_divisor_piece(19, 19)  # odd modulus


# -- whole-modulus reports -----------------------------------------------------

def test_construct_reproduces_worked_examples():
    for q, expected in GOLDEN_SETS.items():
        report = construct(q)
        assert report.elements == expected, q
        assert report.size == GOLDEN_SIZES[q]
        assert report.verified and report.tight


def test_construct_tiny_moduli():
    assert construct(2).size == 0
    assert construct(1).size == 0
    report = construct(5)
    assert report.size == 1 and report.tight


def test_twice_odd_route():
    report = build_twice_odd(95)
    assert report.instance.q == 190
    assert report.elements == GOLDEN_SETS[190]
    assert report.tight
    cases = {p.d: p.case for p in report.pieces}
    assert cases[1] == "forced-empty"
    assert set(cases) == {1, 5, 19, 95}


def test_twice_odd_refinement_beats_pattern():
    # The d = 59 pattern packs 18 where 25 fit, so refine must replace it
    # with the in-class search witness.
    plain = build_twice_odd(59, refine=False)
    refined = build_twice_odd(59)
    assert plain.size == 18 and not plain.tight
    assert refined.size == 25 and refined.tight
    assert any(p.case.endswith("+search") for p in refined.pieces)
    assert is_b1_set(refined.elements, 118).valid
    # The domain-wall pattern already reaches the maximum 19 at r = 49.
    assert build_twice_odd(49, refine=False).size == 19


# Maximum of V_d at 2d for every refine divisor (2 * phi(d) <= 128), as
# an exact search confined to the residues of V_d found it.
CLASS_MAXIMA = {
    5: 2, 7: 2, 11: 3, 13: 4, 17: 5, 19: 9, 23: 8, 25: 10, 29: 14, 31: 12,
    35: 12, 37: 16, 41: 16, 43: 21, 47: 18, 49: 17, 53: 26, 55: 20, 59: 25,
    61: 25, 65: 24, 77: 30, 85: 32,
}


def test_class_optimum_is_the_in_class_maximum():
    for d, size in CLASS_MAXIMA.items():
        witness, exact = _class_optimum(d, None)
        assert exact and len(witness) == size, d
        assert all(math.gcd(x, d) == 1 for x in witness), d
        assert is_b1_set_reference(witness, 2 * d).valid, d
    # The same classes at q = 190 = 2 * 95: scaling by r/d keeps order,
    # so the part of the lex-min optimum in V_d is the scaled class optimum.
    inst = Instance.from_q(190)
    full = exact_max(190)
    for d, size in ((19, 9), (5, 2)):
        part = tuple(x for x in full.witness
                     if inst.r // math.gcd(x, inst.r) == d)
        assert len(part) == size
        witness = _class_optimum(d, None)[0]
        assert part == tuple(x * (inst.r // d) for x in witness)
        assert is_b1_set(part, 190).valid


def test_counting_bound_against_exhaustive_class_maxima():
    # 2|O| + 4|E| <= phi(d) bounds every class by phi(d)/2; a pattern
    # piece is certified when it meets that bound, or when m = 2.
    for d, size in CLASS_MAXIMA.items():
        assert 2 * size <= euler_phi(d), d
        piece = build_divisor_piece(d, 2 * d)
        if piece.certified:
            assert piece.size == size, d
    m_two = []
    for d in range(5, 2000):
        if math.gcd(d, 6) != 1:
            continue
        piece = build_divisor_piece(d, 2 * d)
        assert 2 * piece.size <= euler_phi(d), d
        if divisor_context(d).m == 2:
            m_two.append(d)
        assert piece.certified == (2 * piece.size == euler_phi(d)
                                   or d in (7, 17)), d
    assert m_two == [7, 17]


def test_construct_sweep_matches_frozen_outputs():
    # Every in-scope even q <= 2000 whose 2-adic valuation k is not a
    # multiple of 3: size, tight, the uncertified divisors of the report
    # and its bases, and one digest over the JSON reports.
    in_scope = [q for q in range(2, 2001, 2)
                if two_adic_valuation(q) % 3
                and math.gcd(q >> two_adic_valuation(q), 6) == 1]
    assert sorted(SWEEP) == in_scope and len(in_scope) == 572
    digest = hashlib.sha256()
    for q in in_scope:
        report = construct(q)
        digest.update(json.dumps(report.to_json_dict()).encode() + b"\n")
        uncertified, part = [], report
        while part is not None:
            uncertified += [p.d for p in part.pieces if not p.certified]
            part = part.base
        assert (report.size, report.tight, tuple(uncertified)) == SWEEP[q], q
    assert digest.hexdigest() == SWEEP_SHA256


#: SHA-256 over repr((d, case, sorted(elements), certified)) of
#: build_divisor_piece(d, 2d) for every d < 6000 with gcd(d, 6) = 1.
PIECES_SHA256 = "61d2b2da2f177e3b07ab4ce73a2d6c474ef57d040024662ee6ac0fa767783792"
#: SHA-256 of the output of ``magset table --family 2p --max-p 400``.
TABLE_400_SHA256 = "5754af8cbf3ed6389b253509a71201a760c047fdae08a94ccb8e47e0bd77b317"
#: SHA-256 over json.dumps(construct(q).to_json_dict()) plus a newline for
#: the 740 moduli of test_layered_and_odd_routes_match_frozen_digest.
LAYERED_740_SHA256 = "affffb69b996368e19a69dd5ad5bb7956fea5657682ed518e8d44e7756024df7"


def test_divisor_pieces_match_frozen_digest():
    digest = hashlib.sha256()
    for d in range(5, 6000):
        if math.gcd(d, 6) == 1:
            piece = build_divisor_piece(d, 2 * d)
            digest.update(repr((d, piece.case, sorted(piece.elements),
                                piece.certified)).encode())
    assert digest.hexdigest() == PIECES_SHA256


def test_table_output_matches_frozen_digest(capsys):
    assert main(["table", "--family", "2p", "--max-p", "400"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_400_SHA256


def test_layered_and_odd_routes_match_frozen_digest():
    # Beyond the q <= 2000 sweep: 4r for r < 1500, 2^k r for k = 5, 8
    # (r < 300) and k = 3 (r < 60), and the odd moduli below 60, whose
    # reports come from the search.
    coprime = [r for r in range(1, 1500) if math.gcd(r, 6) == 1]
    moduli = ([4 * r for r in coprime]
              + [(1 << k) * r for k, top in ((5, 300), (8, 300), (3, 60))
                 for r in coprime if r < top]
              + [q for q in coprime if q < 60])
    assert len(moduli) == 740
    digest = hashlib.sha256()
    for q in moduli:
        digest.update(json.dumps(construct(q).to_json_dict()).encode() + b"\n")
    assert digest.hexdigest() == LAYERED_740_SHA256


def test_domain_wall_branch_pieces():
    # Walk every d <= 500 with gcd(d, 6) = 1 that is routed into the
    # domain-wall branch; the old two-run pattern gave m per coset.
    routed = []
    for d in range(5, 501):
        if math.gcd(d, 6) != 1:
            continue
        piece = build_divisor_piece(d, 2 * d)
        if piece.case != "n-even/s-even/2<r'<=m/k'=1":
            continue
        routed.append(d)
        ctx = divisor_context(d)
        assert not piece.certified
        assert is_b1_set_reference(piece.elements, 2 * d).valid, d
        assert piece.size >= ctx.m * len(ctx.reps), d
        if d in (49, 329, 391):
            assert piece.size > ctx.m * len(ctx.reps), d
    assert routed == [49, 127, 199, 329, 343, 353, 391, 449, 487, 497]


def test_domain_wall_exponents_on_every_branch_shape():
    # n = 2m + r' with m, r' even and 4 <= r' <= m: every shape the branch
    # can receive, not only those of real divisors.  The size must be
    # n/2 - W/2, W the shortest wall a*(-m, 1) + b*(r', 2) (a even, b odd)
    # in the L-infinity norm; (a, b) = (0, 1) bounds W by r'.
    for m in range(4, 61, 2):
        for rp in range(4, m + 1, 2):
            n = 2 * m + rp
            wall = min(max(abs(b * rp - a * m), abs(a + 2 * b))
                       for b in range(-rp - 1, rp + 2, 2)
                       for a in range(-rp - 2 * b, rp - 2 * b + 1, 2))
            exps = _domain_wall_exponents(n, m)
            chosen = set(exps)
            assert len(chosen) == len(exps) == n // 2 - wall // 2, (m, rp)
            assert len(exps) >= m, (m, rp)
            assert all((e + 1) % n not in chosen and (e + m) % n not in chosen
                       for e in exps), (m, rp)


def test_every_orbit_case_is_independent_in_its_circulant():
    # Every (n, s), not only those of real divisors: several cases (e.g.
    # "n-even/s-even/r'=0") are reached by no divisor d < 6000.
    labels = set()
    for n in range(3, 121):
        for s in range(1, n):
            m = min(s, n - s)
            kp = n // (2 * m)
            label, exps = _orbit_exponents(n, s, m, kp, n - 2 * kp * m)
            labels.add(label)
            chosen = {e % n for e in exps}
            assert len(chosen) == len(exps), (n, s, label)
            assert all((e + 1) % n not in chosen and (e + s) % n not in chosen
                       for e in chosen), (n, s, label)
    assert len(labels) == 11


def test_every_grid_case_is_independent_in_its_twisted_grid():
    # t >= 2: family B needs 2 outside <3>, so <2, 3> is larger than <3>.
    labels = set()
    for n in range(2, 61):
        for t in range(2, 13):
            for s in range(n):
                label, cells = _grid_cells(n, t, s)
                labels.add(label)
                chosen = set(cells)
                assert len(chosen) == len(cells), (n, t, s, label)
                for j, e in chosen:
                    assert 0 <= j < t and 0 <= e < n, (n, t, s, label)
                    assert (j, (e + 1) % n) not in chosen, (n, t, s, label)
                    assert (j + 1, e) not in chosen, (n, t, s, label)
                    if j == 0:
                        assert (t - 1, (e + s) % n) not in chosen, (n, t, s, label)
    assert len(labels) == 19


def test_four_times_odd_meets_packing_bound():
    for r in (1, 5, 7, 25, 49, 95):
        report = build_four_times_odd(r)
        assert report.size == r - 1 == hamming_upper_bound(4 * r)
        assert report.tight and report.verified
        labels = {p.case for p in report.pieces}
        assert labels <= {"forced-empty", "orbit-even-powers",
                          "orbit-split-twist"}


def test_eightfold_route_and_base_nesting():
    report = construct(160)  # 2^5 * 5
    assert report.size == 24
    base = report.base
    assert base is not None and base.instance.q == 20
    assert {8 * x % 160 for x in base.elements} <= report.elements
    layer = report.elements - {8 * x % 160 for x in base.elements}
    assert len(layer) == 2 ** (5 - 3) * 5
    assert {p.case for p in report.pieces} <= {
        "layer-odd-order", "layer-matched-orders", "layer-doubled-order"}


def test_layer_pieces_hold_odd_residues():
    # The layer of every sweep modulus with k >= 2 (the q = 4r set, or the
    # new layer beside 8 * base) is odd: alpha = a * r/d is odd, so are the
    # powers of 3, and the twist level * r is even.  It has r - 1 elements
    # at k = 2 and 2^(k-3) * r above.  The base chain is not checked here.
    for q in SWEEP:
        k = two_adic_valuation(q)
        if k >= 2:
            r = q >> k
            layer = [x for p in construct(q).pieces for x in p.elements]
            assert all(x % 2 for x in layer), q
            assert len(layer) == (r - 1 if k == 2 else 2 ** (k - 3) * r), q


def orbit_piece_by_definition(q, level, r, d):
    """_orbit_layer's docstring read literally: (case, elements) with each
    power of 3 taken by pow."""
    modulus = level * d
    n = mult_order_naive(3, modulus)
    alphas = [a * (r // d) % q for a in coset_reps((3,), modulus)]
    evens = {pow(3, 2 * i, q) * alpha % q for alpha in alphas
             for i in range(n if n % 2 else n // 2)}
    if n % 2:
        return 0, evens
    if pow(3, n, 2 * modulus) == 1:
        return 1, evens | {pow(3, 2 * i + 1, q) * (alpha + level * r) % q
                           for alpha in alphas for i in range(n // 2)}
    return 2, evens | {pow(3, 2 * i + 1, q) * alpha % q
                       for alpha in alphas for i in range(n // 2, n)}


def test_orbit_layer_matches_its_definition():
    # Levels 2 (q = 4r) and 4, 8, 16 (the layers of q = 2^k r, k = 4, 5,
    # 6) at every divisor of the small r: all three cases occur.
    seen = set()
    for level in (2, 4, 8, 16):
        for r in (r for r in range(1, 60) if math.gcd(r, 6) == 1):
            q = 2 * level * r
            for d in divisors(r):
                where = f"level {level}, r {r}, d {d} (q = {q})"
                try:  # its own size check trips on a piece that collapses
                    case, elements = _orbit_layer(q, level, r, d)
                except ConstructionError as error:
                    pytest.fail(f"{where}: {error}")
                want_case, want = orbit_piece_by_definition(q, level, r, d)
                assert case == want_case, f"{where}: case {case}, not {want_case}"
                assert elements == want, (
                    f"{where}, case {case}: missing {sorted(want - elements)[:6]}, "
                    f"extra {sorted(elements - want)[:6]}")
                seen.add(case)
    assert seen == {0, 1, 2}


def test_eightfold_validates_base():
    with pytest.raises(ConstructionError):
        build_eightfold(3, 5, construct(20))  # base modulus must be q/8


def test_closed_form_when_k_is_2_mod_3():
    # Internal guard recomputes this; spot-check the sizes here too.
    for k, r in ((2, 5), (5, 5), (2, 25), (5, 7), (8, 1)):
        q = 2**k * r
        assert construct(q).size == (q + 3 * r - 7) // 7, (k, r)


def test_construct_rejects_out_of_scope():
    with pytest.raises(ConstructionError):
        construct(21)  # odd part divisible by 3


@pytest.mark.parametrize("q", [0, -8])
def test_construct_rejects_nonpositive_modulus(q):
    with pytest.raises(ConstructionError, match=f"^need q >= 1, got q={q}$"):
        construct(q)


def test_report_json_schema():
    data = construct(40).to_json_dict()
    assert list(data) == ["q", "k", "r", "lambda", "size", "upper_bound",
                          "elements", "pieces", "verified", "tight"]
    assert (data["q"], data["k"], data["r"], data["lambda"]) == (40, 3, 5, 4)
    assert data["elements"] == sorted(data["elements"])
    assert data["size"] == len(data["elements"]) == 6
    assert [p["d"] for p in data["pieces"]] == \
        sorted(p["d"] for p in data["pieces"])
    for piece in data["pieces"]:
        assert set(piece) == {"d", "case", "elements"}
    assert data["verified"] is True and data["tight"] is True


def test_report_upper_bound_consistency():
    for q in (20, 40, 44, 110, 160, 190):
        report = construct(q)
        assert report.size <= report.upper_bound
        assert report.upper_bound == hamming_upper_bound(q)
