"""The problem instance, and the divisor-class and valuation partitions
of Z_q (built by the tests' own helper)."""

import math

import pytest

from magset.numtheory import euler_phi
from magset.residues import Instance
from residue_classes import divisor_classes, valuation_classes


def test_instance_from_q():
    inst = Instance.from_q(40)
    assert (inst.q, inst.k, inst.r, inst.lam) == (40, 3, 5, 4)
    assert inst.coprime_to_six
    assert not Instance.from_q(42).coprime_to_six


def test_instance_validates_shape():
    with pytest.raises(ValueError):
        Instance(40, 2, 10)  # r must be odd
    with pytest.raises(ValueError):
        Instance(40, 2, 5)  # 2^2 * 5 != 40
    with pytest.raises(ValueError):
        Instance(0, 0, 0)


def test_divisor_class_q40():
    classes = {d: v_d for d, v_d, _ in divisor_classes(40)}
    assert classes[5] == {x for x in range(40) if math.gcd(x, 5) == 1}
    assert classes[1] == {0, 5, 10, 15, 20, 25, 30, 35}
    assert sorted(classes) == [1, 5]


def test_decompose_partitions_everything():
    for q in (10, 40, 190, 380, 152):
        k = Instance.from_q(q).k
        union = set()
        total = 0
        for d, v_d, layers in divisor_classes(q):
            assert not (v_d & union)
            union |= v_d
            total += len(v_d)
            expected = (1 << k) * (euler_phi(d) if d > 1 else 1)
            assert len(v_d) == expected, (q, d)
            assert set().union(*layers) == v_d
        assert union == set(range(q))
        assert total == q


def test_valuation_partition_k3():
    odd, twice, four_times, rest = valuation_classes(40, 3)
    assert odd == set(range(1, 40, 2))
    assert twice == {x for x in range(1, 40) if x % 4 == 2}
    assert four_times == {x for x in range(1, 40) if x % 8 == 4}
    assert rest == {8, 16, 24, 32}


def test_valuation_partition_k2():
    odd, twice, rest = valuation_classes(20, 2)
    assert odd == set(range(1, 20, 2))
    assert twice == {2, 6, 10, 14, 18}
    assert rest == {4, 8, 12, 16}


def test_theta2_layer_bijections():
    # The doubling map theta2(x) = 2x mod q takes the odd layer of each
    # nontrivial class onto the twice-odd layer, and the twice-odd layer
    # onto itself, bijectively.
    for q in (10, 22, 38, 110):
        for d, _, (u0, u1) in divisor_classes(q):
            if d == 1:
                continue
            assert {2 * x % q for x in u0} == set(u1)
            assert {2 * x % q for x in u1} == set(u1)
