"""Acceptance gate: one end-to-end check per shipping criterion.

Each test prints a single ``criterion N: PASS`` line (visible with
``pytest -s``) including the measured wall-clock time where a runtime
budget applies.  The corpus fixtures live in conftest.py.
"""

import time

import cyclicnum as cn
from cyclicnum.cli import main as cli_main

SWEEP_LIMIT = 100_000
WITNESS_LIMIT = 120
EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}
AFFINE_PAIRS = [(2, 3), (2, 5), (3, 7), (5, 11)]


def _commutes(H):
    elems = list(H)
    return all(a * b == b * a for a in elems for b in elems)


def test_criterion_1_characterizations_agree():
    """gcd(n, phi(n)) = 1 iff n is squarefree with no prime dividing
    another prime minus one, for every n up to 100000, in under 10s."""
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, SWEEP_LIMIT + 1):
        report = cn.check_conditions(n)
        condition_side = report.squarefree_ok and report.arrow_ok
        if cn.is_cyclic_number(n) != condition_side:
            mismatches.append(n)
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    assert elapsed < 10.0
    print(f"\ncriterion 1: PASS (1..{SWEEP_LIMIT} agree, {elapsed:.2f}s)")


def grid_era_uncovered_arrow_orders():
    """The squarefree n <= 20000 with an arrow pair whose witness on a
    p2*p2 grid, of degree p2**2 + n/(p1*p2) above 1, exceeded DEGREE_CAP."""
    out = []
    for n in range(1, 20001):
        report = cn.check_conditions(n)
        if report.square_prime is None and report.arrow_pair is not None:
            p1, p2 = report.arrow_pair
            m = n // (p1 * p2)
            if p2 * p2 + (m if m > 1 else 0) > cn.DEGREE_CAP:
                out.append(n)
    return out


def test_criterion_2_witness_sweep():
    """Every non-cyclic number up to 120 yields a certificate whose group
    has order exactly n and maximum element order below n, and so do 202,
    19946 and every 25th arrow order up to 20000 that the p2*p2 grid
    witness could not reach under DEGREE_CAP, in under 30s."""
    t0 = time.perf_counter()
    uncovered = grid_era_uncovered_arrow_orders()
    assert len(uncovered) == 2206 and uncovered[0] == 202
    checked = 0
    for n in [*range(1, WITNESS_LIMIT + 1), *uncovered[::25], 202, 19946]:
        cert = cn.build_witness(n)
        if cn.is_cyclic_number(n):
            assert cert is None
            continue
        assert cert is not None
        report = cn.verify_certificate(cert)
        assert report.order_ok and report.group_size == n
        assert report.noncyclic_ok
        assert report.max_element_order < n
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 0
    assert elapsed < 30.0
    print(f"\ncriterion 2: PASS ({checked} witnesses verified, {elapsed:.2f}s)")


def test_criterion_3_oracle_matches_prediction(oracle_pack):
    """Exhaustive table enumeration for orders 1..8 finds the known class
    counts, every accepted table re-passes the axiom check, and the
    all-classes-cyclic verdict matches the arithmetic test, in under 5min."""
    classes, elapsed = oracle_pack
    counts = {n: len(tables) for n, tables in classes.items()}
    assert counts == EXPECTED_CLASS_COUNTS
    for tables in classes.values():
        for table in tables:
            cn.validate_table(table.table)  # post-hoc axiom re-check on raw rows
    for n, tables in classes.items():
        all_cyclic = all(cn.table_is_cyclic(t) for t in tables)
        assert all_cyclic == cn.is_cyclic_number(n)
    assert elapsed < 300.0
    total = sum(counts.values())
    print(f"\ncriterion 3: PASS (orders 1..8, {total} classes, {elapsed:.1f}s)")


def test_criterion_4_lagrange_suite(corpus_subgroups):
    """Across the corpus, subgroup sizes divide the group order, left
    cosets partition the group exactly, and element orders divide."""
    groups_checked = 0
    for name, (G, subgroups) in corpus_subgroups.items():
        order = len(G)
        members = set(G)
        for H in subgroups:
            assert order % len(H) == 0, name
            cosets = cn.left_cosets(G, H)
            assert len(cosets) * len(H) == order, name
            seen = set()
            for block in cosets:
                assert len(block) == len(H), name
                assert seen.isdisjoint(block), name
                seen.update(block)
            assert seen == members, name
        for g in G:
            assert order % cn.element_order(G, g) == 0, name
        groups_checked += 1
    witness_count = sum(1 for n in range(2, 61) if not cn.is_cyclic_number(n))
    expected = 5 + witness_count + sum(EXPECTED_CLASS_COUNTS.values())
    assert groups_checked == expected
    print(f"\ncriterion 4: PASS ({groups_checked} corpus groups, cosets exact)")


def test_criterion_5_conjugacy_counting_machinery(corpus_subgroups):
    """Normalizer counting, center-and-maximal-subgroup structure, the
    non-central-union formula, and the resulting counting identity."""
    counting_checks = 0
    for name, (G, subgroups) in corpus_subgroups.items():
        for H in subgroups:
            N = cn.normalizer(G, H)
            assert cn.count_conjugate_subgroups(G, H) * len(N) == len(G), name
            counting_checks += 1

    # Nonabelian groups whose maximal subgroups all commute: the center
    # sits inside every maximal subgroup, and distinct maximal subgroups
    # intersect exactly in the center.
    assertion_groups = 0
    for name, (G, _) in corpus_subgroups.items():
        if cn.is_abelian(G):
            continue
        maximals = cn.maximal_subgroups(G)
        if not maximals or not all(_commutes(F) for F in maximals):
            continue
        assertion_groups += 1
        Z = set(cn.center(G))
        for F in maximals:
            assert Z <= set(F), name
        for i, F in enumerate(maximals):
            for K in maximals[i + 1 :]:
                assert set(F) & set(K) == Z, name

    # Whenever a subgroup is self-normalizing and its distinct conjugates
    # pairwise intersect in the center, the non-central union size obeys
    # (|F| - |Z|) * |G| / |F|.
    fhat_checks = 0
    for name, (G, subgroups) in corpus_subgroups.items():
        Z = set(cn.center(G))
        for F in subgroups:
            if set(cn.normalizer(G, F)) != set(F):
                continue
            conjugates = {frozenset(cn.conjugate_subgroup(G, F, b)) for b in G}
            pairwise_central = all(
                set(A) & set(B) == Z
                for A in conjugates
                for B in conjugates
                if A != B
            )
            if not pairwise_central:
                continue
            fhat = cn.noncentral_union_size(G, F)
            assert fhat == (len(F) - len(Z)) * len(G) // len(F), name
            fhat_checks += 1

    # Counting identity: when distinct maximal subgroups pairwise
    # intersect exactly in the center, the group order equals the center
    # size plus the non-central union sizes over non-conjugate maximal
    # subgroups.
    identity_groups = 0
    for name, (G, _) in corpus_subgroups.items():
        maximals = cn.maximal_subgroups(G)
        Z = set(cn.center(G))
        pairwise_central = all(
            set(F) & set(K) == Z
            for i, F in enumerate(maximals)
            for K in maximals[i + 1 :]
        )
        if not pairwise_central:
            continue
        reps = []
        seen_orbits = set()
        for F in maximals:
            orbit = frozenset(
                frozenset(cn.conjugate_subgroup(G, F, b)) for b in G
            )
            if orbit not in seen_orbits:
                seen_orbits.add(orbit)
                reps.append(F)
        total = len(Z) + sum(cn.noncentral_union_size(G, F) for F in reps)
        assert total == len(G), name
        identity_groups += 1

    assert counting_checks > 0
    assert assertion_groups > 0
    assert fhat_checks > 0
    assert identity_groups > 0
    print(
        "\ncriterion 5: PASS "
        f"({counting_checks} counting checks, {assertion_groups} structure "
        f"groups, {fhat_checks} union-formula checks, {identity_groups} "
        "counting identities)"
    )


def test_criterion_6_affine_composition_law():
    """The affine-map family composes by adding the scale exponents and
    twisting the shift, exhaustively over four prime pairs, in under 5s."""
    t0 = time.perf_counter()
    total = 0
    for p1, p2 in AFFINE_PAIRS:
        a = cn.element_of_order(p1, p2)
        maps = {
            (k, l): cn.affine_map(p1, p2, a, k, l)
            for k in range(p1)
            for l in range(p2)
        }
        for (k, l), f in maps.items():
            for (k2, l2), g in maps.items():
                expected = maps[(k + k2) % p1, (l + pow(a, k, p2) * l2) % p2]
                assert f * g == expected
                total += 1
    elapsed = time.perf_counter() - t0
    assert total == sum((p1 * p2) ** 2 for p1, p2 in AFFINE_PAIRS)
    assert elapsed < 5.0
    print(f"\ncriterion 6: PASS ({total} compositions, {elapsed:.2f}s)")


def test_criterion_7_cli_round_trip(tmp_path, capsys):
    """witness then verify exits 0 for every non-cyclic number up to 120,
    and the emitted certificate files are byte-identical across runs."""
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, WITNESS_LIMIT + 1):
        if cn.is_cyclic_number(n):
            continue
        first = tmp_path / f"cert-{n}-a.json"
        second = tmp_path / f"cert-{n}-b.json"
        assert cli_main(["witness", str(n), "--out", str(first)]) == 0
        assert cli_main(["witness", str(n), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert cli_main(["verify", str(first)]) == 0
        checked += 1
    capsys.readouterr()  # drop the accumulated verify reports
    elapsed = time.perf_counter() - t0
    assert checked > 0
    print(f"\ncriterion 7: PASS ({checked} certificates round-tripped, {elapsed:.1f}s)")
