"""Exhaustive-search oracle: exact values, witnesses, budgets, cache."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import time
import types

import pytest

import magset.search
from golden_data import GOLDEN_SIZES
from magset.search import (
    Budget,
    ConflictGraph,
    _Core,
    _run,
    _solve,
    SearchCache,
    conflict_graph,
    default_cache_path,
    exact_max,
)
from magset.verifier import Verdict, is_b1_set


def test_conflict_graph_shape():
    # vertices: residues with lam distinct nonzero products; an edge
    # wherever two product sets meet, both ways, and nowhere else
    for q in range(1, 61):
        for lam in range(1, 6):
            products = {x: {e * x % q for e in range(1, lam + 1)}
                        for x in range(q)}
            verts = [x for x in range(q)
                     if len(products[x]) == lam and 0 not in products[x]]
            graph = conflict_graph(q, lam)
            assert graph.vertices == tuple(verts), (q, lam)
            # numbered by residue: bit y is residue y, 0 at non-vertices
            assert graph.syndromes == tuple(
                sum(1 << s for s in products[x]) if x in verts else 0
                for x in range(q)), (q, lam)
            assert graph.rows == tuple(
                sum(1 << y for y in verts
                    if y != x and products[x] & products[y])
                if x in verts else 0 for x in range(q)), (q, lam)
            assert graph.neighbors == {
                x: {y for y in verts if y != x and products[x] & products[y]}
                for x in verts}, (q, lam)
    graph = conflict_graph(40)
    assert graph.syndromes[5] == sum(1 << s for s in (5, 10, 15, 20))
    assert 1 in graph.vertices and 0 not in graph.vertices
    assert 10 not in graph.vertices  # 4*10 = 0 mod 40
    assert graph.rows[10] == graph.syndromes[10] == 0
    assert conflict_graph(1, 1).vertices == ()


def test_search_refuses_magnitude_bounds_below_one():
    # The verifier refuses lam < 1, so the search refuses it with the
    # same message rather than report a size.
    for lam in (0, -3):
        with pytest.raises(ValueError, match="lam >= 1"):
            conflict_graph(10, lam)
        with pytest.raises(ValueError, match="lam >= 1"):
            exact_max(10, lam)
        with pytest.raises(ValueError, match="lam >= 1"):
            is_b1_set([1], 10, lam)


def test_conflict_graph_refuses_bad_parameters():
    # an empty product set (lam = 0) would make every residue a vertex
    for q, lam in ((10, 0), (10, -3), (0, 4), (-5, 4)):
        with pytest.raises(ValueError, match=r"need q >= 1 and lam >= 1"):
            conflict_graph(q, lam)


@pytest.mark.parametrize("q,size", [(2, 0), (5, 1), (20, 4), (40, 6), (44, 10)])
def test_exact_max_known_values(q, size):
    result = exact_max(q)
    assert result.exact
    assert result.max_size == size
    assert len(result.witness) == size
    assert is_b1_set(result.witness, q).valid


def test_exact_max_golden_sizes():
    for q in (20, 40, 44):
        assert exact_max(q).max_size == GOLDEN_SIZES[q]


def test_witness_is_lexicographically_minimal_and_deterministic():
    first = exact_max(44)
    second = exact_max(44)
    assert dataclasses.replace(first, elapsed=0.0) == \
        dataclasses.replace(second, elapsed=0.0)
    assert list(first.witness) == sorted(first.witness)
    # No valid 10-element set at q=44 starts lexicographically earlier:
    # the witness must contain 1 (unit-scaling puts some optimum through 1).
    assert first.witness[0] == 1


def test_search_outputs_are_frozen():
    # One digest over size, lex-min witness and exactness for q = 5..106,
    # recorded before the orbit seed: search speed-ups may change node
    # counts, never results.
    digest = hashlib.sha256()
    for q in range(5, 107):
        r = exact_max(q)
        digest.update(repr((q, r.max_size, r.witness, r.exact)).encode())
    assert digest.hexdigest() == (
        "97fc13e08d4d2268b2eafc327f996966b0309168f1d66a632dcf0805cb5574bd")


def test_unit_split_agrees_with_unreduced():
    for q in range(2, 61):
        reduced = exact_max(q, unit_split=True)
        plain = exact_max(q, unit_split=False)
        assert reduced.max_size == plain.max_size, q
        assert reduced.witness == plain.witness, q


def test_budget_cuts_off_with_lower_bound():
    # Two cosets of the order-13 unit subgroup give the optimum, 26, in
    # the quotient search before the budget runs out; the proof does not
    # finish, so the result stays a lower bound.
    result = exact_max(106, budget=Budget(max_nodes=5, max_seconds=math.inf))
    assert not result.exact
    assert result.nodes_expanded <= 5
    assert result.max_size == 26 == len(result.witness)
    assert is_b1_set(result.witness, 106).valid


def test_cut_off_keeps_a_greedy_set_in_every_later_component():
    # q = 313 has two 156-vertex components, q = 329 five components; a
    # search cut off in the first used to count every later component,
    # and the whole non-unit branch, as 0 (31 and 28 at 1000 nodes).
    for q, size in ((313, 55), (329, 59)):
        result = exact_max(q, budget=Budget(max_nodes=1000))
        assert result.exact is False, q
        assert len(result.witness) == result.max_size >= size, q
        assert is_b1_set(result.witness, q).valid, q


def test_node_budget_bounds_the_witness_phase(tmp_path):
    # One node beyond the proof: the lex-min witness phase is cut off, so
    # the proof's own optimum is returned and nothing is cached.
    proof = exact_max(62, lex_witness=False)
    assert proof.witness != exact_max(62).witness
    path = tmp_path / "cache.jsonl"
    budget = Budget(max_nodes=proof.nodes_expanded + 1, max_seconds=math.inf)
    result = exact_max(62, budget=budget, cache=SearchCache(str(path)))
    assert result.exact and result.max_size == proof.max_size == 12
    assert result.nodes_expanded == proof.nodes_expanded
    assert len(set(result.witness)) == result.max_size
    assert is_b1_set(result.witness, 62).valid
    assert not path.exists()


def test_witness_phase_fits_in_the_proof_budget(tmp_path):
    # q = 191: the proof takes 4,205 nodes (5,840 before inversion
    # symmetry was broken at the root), and the lex-min phase, run per
    # component, fits in what is left of 20,000 and is cached.
    path = tmp_path / "cache.jsonl"
    budget = Budget(max_nodes=20_000, max_seconds=math.inf)
    result = exact_max(191, budget=budget, cache=SearchCache(str(path)))
    assert result.exact and result.max_size == 42
    assert result.nodes_expanded == 4205
    assert result.witness == (
        1, 5, 6, 7, 13, 16, 17, 27, 33, 38, 42, 47, 50, 58, 60, 62, 70, 71,
        72, 74, 77, 78, 88, 91, 92, 118, 122, 123, 130, 135, 137, 146, 159,
        160, 162, 165, 169, 170, 171, 172, 179, 189)
    assert is_b1_set(result.witness, 191).valid
    assert SearchCache(str(path)).get(191, 4).witness == result.witness


def test_witness_phase_starts_from_the_proof_optimum(tmp_path):
    # q = 149: the proof takes no node: the order-37 unit subgroup is a
    # valid set that meets the counting bound.  Vertices of the proof's
    # optimum are fixed without a decision search, so the lex-min phase
    # fits in 100 more nodes (it took 749 when every vertex was probed).
    full = exact_max(149, budget=Budget(10**8, math.inf))
    assert full.exact and full.max_size == 37
    assert full.nodes_expanded == 0
    path = tmp_path / "cache.jsonl"
    budget = Budget(max_nodes=full.nodes_expanded + 100, max_seconds=math.inf)
    result = exact_max(149, budget=budget, cache=SearchCache(str(path)))
    assert result == dataclasses.replace(full, elapsed=result.elapsed)
    assert result.witness == (
        1, 5, 6, 16, 17, 19, 25, 28, 29, 30, 31, 33, 36, 37, 39, 46, 49, 63,
        67, 73, 80, 81, 85, 88, 95, 96, 102, 104, 107, 114, 123, 125, 127,
        129, 140, 142, 145)
    assert is_b1_set(result.witness, 149).valid
    assert SearchCache(str(path)).get(149, 4).witness == result.witness


def test_inversion_is_an_automorphism_of_the_unit_graph():
    # x -> x^-1 maps the units onto themselves, edges onto edges: x ~ y
    # iff x/y lies in T = {t : e*t == e' (mod q), e != e'}, and T = T^-1.
    for q in range(5, 151):
        graph = conflict_graph(q)
        units = {x for x in graph.vertices if math.gcd(x, q) == 1}
        inv = {x: pow(x, -1, q) for x in units}
        assert set(inv.values()) == units, q
        for x in units:
            assert {inv[y] for y in graph.neighbors[x] & units} == \
                graph.neighbors[inv[x]] & units, (q, x)


def test_inversion_does_not_extend_to_non_units():
    # x = g*u -> g*u^-1 (g = gcd(x, q), u a unit mod q/g) permutes the
    # vertices at q = 18 but maps the edge 1 ~ 14 (both hit 2) to 1, 8,
    # which share no product: non-unit components get no mirror.
    graph = conflict_graph(18)

    def flip(x):
        g = math.gcd(x, 18)
        return g * pow(x // g, -1, 18 // g) % 18

    assert sorted(map(flip, graph.vertices)) == list(graph.vertices)
    assert 14 in graph.neighbors[1] and flip(14) == 8
    assert 8 not in graph.neighbors[flip(1)]


class _MirrorLog(_Core):
    """A core that records each search's candidates and mirror, and runs none."""

    def search(self, cand, best=0, first=False, mirror=None):
        self.log.append((cand, mirror))


def _unit_branch_mirrors(q):
    """Each component of G - N[1] as a residue list, with whether _solve
    gives it the mirror and whether inversion maps it onto itself."""
    graph = conflict_graph(q)
    verts, neigh = graph.vertices, graph.rows
    mirror = [pow(x, -1, q) if math.gcd(x, q) == 1 else None
              for x in range(q)]
    units = sum(1 << x for x in verts if math.gcd(x, q) == 1)
    core = _MirrorLog(neigh, Budget(), 0.0)
    core.log = []
    _solve(core, sum(1 << x for x in verts) & ~(neigh[1] | 2),
           mirror=mirror, units=units)
    for comp, given in core.log:
        members = [x for x in verts if comp >> x & 1]
        closed = all(math.gcd(x, q) == 1 and pow(x, -1, q) in members
                     for x in members)
        yield members, given is not None, closed


def test_inversion_closure_is_read_off_the_lowest_vertex():
    # a component of units gets the mirror iff the inverse of its lowest
    # vertex lies in it; mapping every vertex gives the same answer
    for q in range(5, 151):
        if 1 in conflict_graph(q).vertices:
            for members, given, closed in _unit_branch_mirrors(q):
                assert given == closed, (q, members[:5])
    # q = 146: a component mixes units and non-units, and the inverse of
    # its lowest vertex, the unit 5, lies in it; still no mirror
    assert any(members[0] == 5 and pow(5, -1, 146) in members and not given
               and any(math.gcd(x, 146) > 1 for x in members)
               for members, given, _ in _unit_branch_mirrors(146))


def _brute_alpha(neigh, cand):
    if not cand:
        return 0
    low = cand & -cand
    v = low.bit_length() - 1
    return max(_brute_alpha(neigh, cand ^ low),
               1 + _brute_alpha(neigh, cand & ~(neigh[v] | low)))


def _graphs():
    rng = random.Random(2024)
    yield [0] * 6  # empty graph
    yield [((1 << 7) - 1) & ~(1 << v) for v in range(7)]  # clique
    for _ in range(40):
        n = rng.randint(1, 14)
        p = rng.random()
        neigh = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    neigh[u] |= 1 << v
                    neigh[v] |= 1 << u
        yield neigh


def test_core_matches_brute_force_alpha():
    rng = random.Random(7)
    for neigh in _graphs():
        full = (1 << len(neigh)) - 1
        for cand in (full, rng.getrandbits(len(neigh)) & full):
            alpha = _brute_alpha(neigh, cand)
            core = _Core(neigh, Budget(10**6, math.inf), time.monotonic())
            core.search(cand)
            assert core.exact and core.best_size == alpha
            for need in range(alpha + 3):
                found = core.exists(cand, need)
                assert found == (alpha >= need), (neigh, cand, need)
                if found:
                    mask = core.best_mask
                    assert mask & ~cand == 0
                    assert bin(mask).count("1") >= need
                    assert all(not neigh[v] & mask
                               for v in range(len(neigh)) if mask >> v & 1)


def _mirrored_graphs():
    """Each graph of _graphs() with a random involution, the images of
    its edges added so that the involution is an automorphism."""
    rng = random.Random(5)
    for neigh in _graphs():
        n = len(neigh)
        order = rng.sample(range(n), n)
        mirror = list(range(n))
        for u, v in zip(order[0::2], order[1:rng.randint(0, n // 2) * 2:2]):
            mirror[u], mirror[v] = v, u
        sym = list(neigh)
        for u in range(n):
            for v in range(n):
                if neigh[u] >> v & 1:
                    sym[mirror[u]] |= 1 << mirror[v]
        yield sym, mirror


def _check_mirrored_search(neigh, mirror, cand):
    alpha = _brute_alpha(neigh, cand)
    for best in range(alpha + 1):
        core = _Core(neigh, Budget(10**6, math.inf), time.monotonic())
        core.search(cand, best, mirror=mirror)
        assert core.exact and core.best_size == alpha, (neigh, cand, best)
        if best < alpha:
            mask = core.best_mask
            assert mask & ~cand == 0 and bin(mask).count("1") == alpha
            assert all(not neigh[v] & mask
                       for v in range(len(neigh)) if mask >> v & 1)


def _edges(n, edges):
    neigh = [0] * n
    for u, v in edges:
        neigh[u] |= 1 << v
        neigh[v] |= 1 << u
    return neigh


def test_core_with_mirror_matches_brute_force_alpha():
    # Inversion symmetry broken at the root: the value and an optimum are
    # unchanged, from any preset best up to the optimum, for the whole
    # vertex set and for unions of mirror orbits.
    rng = random.Random(3)
    for neigh, mirror in _mirrored_graphs():
        full = (1 << len(neigh)) - 1
        orbits = rng.getrandbits(len(neigh)) & full
        for v in range(len(neigh)):
            if orbits >> v & 1:
                orbits |= 1 << mirror[v]
        for cand in (full, orbits):
            _check_mirrored_search(neigh, mirror, cand)
    # The 8-cycle 0-3-2-1-6-5-4-7-0 and its reflection i -> 7 - i: a
    # mirror applied below the root as well finds 3, not 4.
    cycle = _edges(8, [(0, 3), (3, 2), (2, 1), (1, 6), (6, 5), (5, 4),
                       (4, 7), (7, 0)])
    _check_mirrored_search(cycle, [7, 6, 5, 4, 3, 2, 1, 0], 255)


def test_core_with_mirror_keeps_best_when_a_mirror_strike_empties_a_child():
    # Mirror i -> 7 - i; the root classes are {0, 1}, {2, 3}, {4, 5} and
    # {6, 7}.  From best = 2 = alpha, the root branches on 7, 6 and 5,
    # striking 0, 1 and 2.  Vertex 4, of class 3, misses only 1, 2 and 6,
    # so its child has no candidate at count 1: that leaf must not lower
    # the best to 1.
    neigh = _edges(8, [(0, 1), (0, 3), (0, 4), (0, 7), (1, 2), (1, 5),
                       (1, 6), (2, 3), (2, 5), (2, 6), (3, 4), (3, 7),
                       (4, 5), (4, 7), (5, 6), (6, 7)])
    assert _brute_alpha(neigh, 255) == 2
    _check_mirrored_search(neigh, [7, 6, 5, 4, 3, 2, 1, 0], 255)


def _brute_lexmin(neigh, cand, memo):
    """Lexicographically smallest maximum independent set inside cand."""
    if not cand:
        return ()
    if cand not in memo:
        low = cand & -cand
        v = low.bit_length() - 1
        take = (v,) + _brute_lexmin(neigh, cand & ~(neigh[v] | low), memo)
        skip = _brute_lexmin(neigh, cand ^ low, memo)
        memo[cand] = take if len(take) >= len(skip) else skip
    return memo[cand]


def test_lexmin_witness_of_disjoint_unions_matches_brute_force():
    # Two generated graphs side by side, their vertices interleaved, so
    # that the lex-min order alternates between the components.
    rng = random.Random(11)
    graphs = list(_graphs())
    for a, b in zip(graphs[::2], graphs[1::2]):
        n = len(a) + len(b)
        label = rng.sample(range(n), n)
        neigh = [0] * n
        for offset, part in ((0, a), (len(a), b)):
            for u, nb in enumerate(part):
                for v in range(len(part)):
                    if nb >> v & 1:
                        neigh[label[offset + u]] |= 1 << label[offset + v]
        # generated vertex v is residue v + 1, so its row shifts by one
        # bit; without the unit split no product mask is read
        graph = ConflictGraph(n + 1, 4, tuple(range(1, n + 1)),
                              (0,) + tuple(row << 1 for row in neigh),
                              (0,) * (n + 1))
        result, lex_min = _run(graph, Budget(10**6, math.inf),
                               lex_witness=True, unit_split=False)
        expected = _brute_lexmin(neigh, (1 << n) - 1, {})
        assert result.exact and lex_min
        assert result.max_size == len(expected)
        assert result.witness == tuple(v + 1 for v in expected), (a, b)


def test_non_unit_branch_wins_when_it_is_larger():
    # No real modulus below 90 (lam <= 6) has the branch over the
    # non-units beat the branch through 1, so a graph at q = 9 is made
    # for it: vertex 1 meets every other vertex, the units form a clique
    # and meet every non-unit, and the non-units 3 and 6 are
    # independent.  The optimum {3, 6} lies in the non-unit branch.
    units = {1, 2, 4, 5, 7, 8}
    rows = [0] + [sum(1 << y for y in range(1, 9)
                      if y != x and (x in units or y in units))
                  for x in range(1, 9)]
    graph = ConflictGraph(9, 4, tuple(range(1, 9)), tuple(rows), (0,) * 9)
    assert _brute_lexmin(rows, sum(1 << x for x in range(1, 9)), {}) == (3, 6)
    result, lex_min = _run(graph, Budget(10**4, math.inf), True, True)
    assert result.exact and lex_min
    assert (result.max_size, result.witness) == (2, (3, 6))


def test_default_budget_counts_nodes_only(monkeypatch):
    # A 60 s default made exact_max(136), 4,058,140 proof nodes, exact on
    # an idle machine and cut off under load.  With a clock that runs
    # 100 s per reading, the default budget still finishes the search.
    assert Budget() == Budget(10**8, math.inf)
    ticks = itertools.count(0.0, 100.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks))
    result = exact_max(44)
    assert result.exact and result.max_size == 10


def test_clock_cuts_the_search_off(tmp_path, monkeypatch):
    # Budget.max_seconds trips the search on the clock alone: with a clock
    # that runs 1 s per reading, a 0.5 s budget stops q = 101 at its first
    # node check, far below the node budget.  The result is a valid lower
    # bound, and the cache stays unwritten.
    ticks = itertools.count(0.0, 1.0)
    monkeypatch.setattr(magset.search, "time",
                        types.SimpleNamespace(monotonic=lambda: next(ticks)))
    path = tmp_path / "cache.jsonl"
    result = exact_max(101, budget=Budget(10**8, 0.5),
                       cache=SearchCache(str(path)))
    assert not result.exact and result.nodes_expanded == 0
    assert len(result.witness) == result.max_size > 0
    assert is_b1_set(result.witness, 101).valid
    assert not path.exists()


def test_budget_is_hashable_value_object():
    assert hash(Budget(10, 1.0)) == hash(Budget(10, 1.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        Budget(10, 1.0).max_nodes = 3


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = SearchCache(str(path))
    result = exact_max(44, cache=cache)
    assert result.exact
    assert path.exists()
    fresh = SearchCache(str(path))
    hit = fresh.get(44, 4)
    assert hit is not None
    assert hit.max_size == result.max_size
    assert hit.witness == result.witness
    # A cached call returns the stored record without re-searching.
    again = exact_max(44, cache=fresh)
    assert again.witness == result.witness


def test_cache_skips_inexact_and_foreign_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    bounded = exact_max(106, budget=Budget(max_nodes=5, max_seconds=math.inf),
                        cache=SearchCache(str(path)))
    assert not bounded.exact
    assert not path.exists()  # only exact results are persisted
    path.write_text('not json\n{"q": 1}\n'
                    + json.dumps(exact_max(20).to_record()) + "\n")
    cache = SearchCache(str(path))
    assert cache.get(20, 4).max_size == 4
    assert cache.get(1, 4) is None


def test_cache_skips_json_lines_that_are_not_objects(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('42\n[1, 2]\n"text"\nnull\n'
                    + json.dumps(exact_max(20).to_record()) + "\n")
    cache = SearchCache(str(path))
    assert cache.get(20, 4).max_size == 4


def test_cache_skips_lines_that_are_not_utf8(tmp_path):
    # One undecodable line is skipped like any corrupt line; the valid
    # record after it is served (its node count marks it as the cached one).
    path = tmp_path / "cache.jsonl"
    record = dict(exact_max(44).to_record(), nodes=7)
    path.write_bytes(b"\xff\xfe\n" + json.dumps(record).encode() + b"\n")
    result = exact_max(44, cache=SearchCache(str(path)))
    assert result.nodes_expanded == 7
    assert list(result.witness) == record["witness"]


def test_cache_skips_records_its_witness_contradicts(tmp_path):
    # Neither a size that the witness does not have nor an invalid
    # witness of the stated size is served; the search recomputes.
    path = tmp_path / "cache.jsonl"
    lines = [
        {"q": 44, "lambda": 4, "max_size": 99, "witness": [1, 2],
         "nodes": 1, "ms": 0, "exact": True},
        {"q": 40, "lambda": 4, "max_size": 2, "witness": [1, 2],
         "nodes": 1, "ms": 0, "exact": True},
        {"q": 40, "lambda": 4, "max_size": 1, "witness": [40],
         "nodes": 1, "ms": 0, "exact": True},
    ]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    cache = SearchCache(str(path))
    assert cache.get(44, 4) is None and cache.get(40, 4) is None
    result = exact_max(44, cache=cache)
    assert result.max_size == 10 and len(result.witness) == 10
    assert SearchCache(str(path)).get(44, 4).max_size == 10


def test_cache_lookup_checks_only_its_own_records(tmp_path, monkeypatch):
    # A record of another (q, lam) is never validated: at lam = 10**9 the
    # check alone would take lam*|B| steps.
    path = tmp_path / "cache.jsonl"
    foreign = {"q": 10**12, "lambda": 10**9, "max_size": 2, "witness": [1, 3],
               "nodes": 1, "ms": 0, "exact": True}
    path.write_text(json.dumps(foreign) + "\n"
                    + json.dumps(exact_max(44).to_record()) + "\n")
    seen = []
    reference = magset.search.is_b1_set_reference

    def spy(elements, q, lam=4):
        seen.append((q, lam))
        return reference(elements, q, lam) if lam <= 10 else Verdict(True, None)

    monkeypatch.setattr(magset.search, "is_b1_set_reference", spy)
    hit = SearchCache(str(path)).get(44, 4)
    assert hit is not None and hit.max_size == 10
    assert seen == [(44, 4)]


def test_cache_skips_records_with_infinite_numbers(tmp_path):
    # json reads Infinity as a float that int() refuses with OverflowError.
    path = tmp_path / "cache.jsonl"
    record = exact_max(44).to_record()
    path.write_text('{"q": Infinity, "lambda": 4, "exact": true}\n'
                    + json.dumps(dict(record, witness=[float("inf")])) + "\n"
                    + json.dumps(record) + "\n")
    assert SearchCache(str(path)).get(44, 4).witness == tuple(record["witness"])


def test_cache_serves_only_lex_min_witnesses(tmp_path):
    # At q = 62 the first optimum found differs from the lex-min one.
    lexmin = exact_max(62)
    assert exact_max(62, lex_witness=False).witness != lexmin.witness
    path = tmp_path / "cache.jsonl"
    cache = SearchCache(str(path))
    exact_max(62, lex_witness=False, cache=cache)
    assert exact_max(62, cache=cache).witness == lexmin.witness
    assert SearchCache(str(path)).get(62, 4).witness == lexmin.witness


def test_cache_serves_only_unit_split_searches(tmp_path):
    # The stored node count depends on unit_split, which the key leaves out.
    plain = exact_max(62, unit_split=False)
    path = tmp_path / "cache.jsonl"
    cache = SearchCache(str(path))
    assert exact_max(62, cache=cache).nodes_expanded != plain.nodes_expanded
    again = exact_max(62, unit_split=False, cache=cache)
    assert again.nodes_expanded == plain.nodes_expanded
    other = tmp_path / "other.jsonl"
    exact_max(62, unit_split=False, cache=SearchCache(str(other)))
    assert not other.exists()


def test_default_cache_path_env_override(monkeypatch):
    monkeypatch.delenv("MAGSET_CACHE", raising=False)
    assert default_cache_path().endswith("magset-cache.jsonl")
    monkeypatch.setenv("MAGSET_CACHE", "/elsewhere/c.jsonl")
    assert default_cache_path() == "/elsewhere/c.jsonl"
