"""Shared fixtures: named small groups and the verification corpus.

The heavyweight fixtures are session-scoped so the order-8 table
enumeration, the order-8 oracle tables and the subgroup inventories are
computed once per run; the
enumeration fixture keeps its own wall-clock time for the acceptance
budget check.
"""

import time

import pytest

import cyclicnum as cn
from cayley_oracles import all_labeled_tables


@pytest.fixture(scope="session")
def s3():
    return cn.closure([cn.cycle([0, 1], 3), cn.cycle([0, 1, 2], 3)])


@pytest.fixture(scope="session")
def d4():
    return cn.closure([cn.cycle([0, 1, 2, 3], 4), cn.cycle([1, 3], 4)])


@pytest.fixture(scope="session")
def klein():
    return cn.closure([cn.cycle([0, 1], 4), cn.cycle([2, 3], 4)])


@pytest.fixture(scope="session")
def z6():
    return cn.closure([cn.cycle([0, 1, 2, 3, 4, 5], 6)])


@pytest.fixture(scope="session")
def q8():
    # Unit quaternions acting on themselves; points are
    # 1, i, -1, -i, j, k, -j, -k in that order.
    i = cn.Permutation([1, 2, 3, 0, 5, 6, 7, 4])
    j = cn.Permutation([4, 7, 6, 5, 2, 1, 0, 3])
    return cn.closure([i, j])


@pytest.fixture(scope="session")
def oracle_pack():
    """All isomorphism classes for orders 1..8, plus the enumeration time."""
    t0 = time.perf_counter()
    classes = {n: cn.enumerate_groups(n) for n in range(1, 9)}
    elapsed = time.perf_counter() - t0
    return classes, elapsed


@pytest.fixture(scope="session")
def labeled_tables():
    """Every identity-fixed group table of orders 1..8, from the unpruned
    oracle search; order 8 alone takes about 40 s."""
    return {n: all_labeled_tables(n) for n in range(1, 9)}


@pytest.fixture(scope="session")
def corpus(oracle_pack, s3, d4, klein, z6, q8):
    """Verification corpus: witness groups for every non-cyclic order up to
    60, regular representations of every enumerated class up to order 8,
    and the named groups."""
    groups = {"s3": s3, "d4": d4, "klein": klein, "z6": z6, "q8": q8}
    for n in range(2, 61):
        cert = cn.build_witness(n)
        if cert is not None:
            groups[f"witness-{n}"] = cn.closure(cert.generators)
    classes, _ = oracle_pack
    for n, tables in classes.items():
        for idx, table in enumerate(tables):
            groups[f"order{n}-class{idx}"] = cn.regular_representation(table)
    return groups


@pytest.fixture(scope="session")
def corpus_subgroups(corpus):
    """Each corpus group paired with its full subgroup inventory."""
    return {name: (G, cn.all_subgroups(G)) for name, G in corpus.items()}
