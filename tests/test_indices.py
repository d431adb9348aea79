import copy
import itertools
import pickle
from math import comb

import pytest

from fmzv.indices import (
    Index,
    add_componentwise,
    binary_vectors,
    format_index,
    hoffman_dual,
    parse_index,
    weak_compositions,
)
from fmzv.suite import all_indices

from oracles import dual_by_runs


def test_weight_and_depth():
    k = Index((2, 3, 1, 2))
    assert k.weight == 8 and k.depth == 4
    assert Index((1,)).weight == 1 and Index((1,)).depth == 1
    assert Index((5,)).weight == 5 and Index((5,)).depth == 1


@pytest.mark.parametrize("bad", [(), (0,), (1, 0), (-1,), (1, -2, 3)])
def test_index_rejects_bad_parts(bad):
    with pytest.raises(ValueError):
        Index(bad)


def test_index_survives_pickle_and_copy():
    # tuple's own __getnewargs__ hands the parts back to Index.__new__
    k = Index((2, 3, 1))
    copies = [pickle.loads(pickle.dumps(k, protocol)) for protocol in range(6)]
    for other in copies + [copy.copy(k), copy.deepcopy(k)]:
        assert type(other) is Index and other == k


def test_hoffman_dual_examples():
    assert hoffman_dual(Index((2, 3, 1, 2))) == (1, 2, 1, 3, 1)
    assert hoffman_dual(Index((1,))) == (1,)
    assert hoffman_dual(Index((3,))) == (1, 1, 1)
    assert hoffman_dual(Index((2, 1))) == (1, 2)


def test_hoffman_dual_matches_run_length_oracle():
    for k in all_indices(9):
        assert hoffman_dual(k) == dual_by_runs(k)


def test_hoffman_dual_involution_and_depth_identity():
    for k in all_indices(10):
        kd = hoffman_dual(k)
        assert hoffman_dual(kd) == k
        assert k.depth + kd.depth == k.weight + 1


def test_add_componentwise():
    assert add_componentwise(Index((2, 1)), (0, 3)) == (2, 4)
    assert add_componentwise(Index((1, 1)), (0, 0)) == (1, 1)
    assert add_componentwise(Index((1, 2, 1)), (1, 0, 2)) == (2, 2, 3)
    with pytest.raises(ValueError):
        add_componentwise(Index((1, 2)), (1,))


def test_weak_compositions_order_and_counts():
    assert list(weak_compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(weak_compositions(0, 3)) == [(0, 0, 0)]
    assert list(weak_compositions(3, 1)) == [(3,)]
    for n in range(6):
        for r in range(1, 5):
            got = list(weak_compositions(n, r))
            assert len(got) == comb(n + r - 1, r - 1)
            assert len(set(got)) == len(got)
            assert all(sum(e) == n and min(e) >= 0 for e in got)
            assert got == sorted(got, reverse=True)


def _weak_compositions_recursive(n, r):
    # the first part from n down to 0, each followed by every tuple of the
    # remaining r - 1 slots in the same order
    if r == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _weak_compositions_recursive(n - first, r - 1):
            yield (first,) + rest


def test_weak_compositions_keep_the_recursive_order():
    for n in range(7):
        for r in range(1, 7):
            assert list(weak_compositions(n, r)) == list(_weak_compositions_recursive(n, r))


def test_weak_compositions_of_many_slots_do_not_recurse():
    got = list(weak_compositions(1, 5000))
    assert len(got) == 5000
    assert got[0] == (1,) + (0,) * 4999 and got[-1] == (0,) * 4999 + (1,)
    assert list(weak_compositions(0, 5000)) == [(0,) * 5000]


def test_weak_compositions_validation():
    with pytest.raises(ValueError):
        list(weak_compositions(-1, 2))
    with pytest.raises(ValueError):
        list(weak_compositions(2, 0))


def test_binary_vectors():
    assert list(binary_vectors(2, 1)) == [(1, 0), (0, 1)]
    assert list(binary_vectors(3, 0)) == [(0, 0, 0)]
    assert list(binary_vectors(3, 3)) == [(1, 1, 1)]
    for r in range(1, 6):
        for i in range(r + 1):
            got = list(binary_vectors(r, i))
            assert len(got) == comb(r, i)
            assert all(sum(v) == i and set(v) <= {0, 1} for v in got)
    with pytest.raises(ValueError):
        list(binary_vectors(3, 4))
    with pytest.raises(ValueError):
        list(binary_vectors(2, -1))
    with pytest.raises(ValueError, match="length must be >= 1"):
        list(binary_vectors(0, 0))


def test_inclusion_exclusion_binomial():
    for m in range(1, 13):
        assert sum((-1) ** (i - 1) * comb(m, i) for i in range(1, m + 1)) == 1


def test_inclusion_exclusion_over_supports():
    # every exponent vector with at least one nonzero entry is recovered with
    # net multiplicity one from the alternating sum over the streams of
    # vectors that are positive on a given support
    for n, r in [(3, 3), (5, 5), (2, 4), (6, 4)]:
        vectors = list(weak_compositions(n, r))
        for e in vectors:
            count = 0
            for i in range(1, min(n, r) + 1):
                for support in itertools.combinations(range(r), i):
                    hits = sum(1 for v in vectors if v == e and all(v[m] for m in support))
                    count += (-1) ** (i - 1) * hits
            assert count == 1, (n, r, e)


def test_parse_and_format():
    assert parse_index("2,3,1,2") == Index((2, 3, 1, 2))
    assert parse_index(" 2 , 3 ,1,2 ") == Index((2, 3, 1, 2))
    assert format_index(Index((1, 2, 1, 3, 1))) == "1,2,1,3,1"
    for bad in ("", "2,,1", "2,x", "1.5", "-1,2", "\u00b2,1"):
        with pytest.raises(ValueError, match="bad index component"):
            parse_index(bad)
