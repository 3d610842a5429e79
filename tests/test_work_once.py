"""Each computation runs once: counted through monkeypatched wrappers.

The outputs of these paths are pinned elsewhere (tests/test_cli_golden.py);
these tests pin the amount of work behind them, so a second factorization,
element-order pass or conjugacy-class pass creeping back in fails here.
"""

import json
import math

import group_oracles
import numtheory_oracles
import pytest

import cyclicnum.cayley as cayley
import cyclicnum.cli as cli
import cyclicnum.groups as groups
import cyclicnum.numtheory as numtheory
import cyclicnum.perm as perm
from cyclicnum import Permutation, build_witness, closure, enumerate_groups, generated_subgroup, verify_certificate


def count_calls(monkeypatch, name, *modules):
    """Wrap the function ``name`` in each module; return the shared call list."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def wrapper(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("n", ["1", "20", "21", "999985999949"])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_check_factorizes_once(monkeypatch, capsys, n, flags):
    calls = count_calls(monkeypatch, "factorize", numtheory, cli)
    rc = cli.main(["check", n, *flags])
    capsys.readouterr()
    assert rc in (0, 1)
    assert len(calls) == 1


def test_sieve_to_a_million_factorizes_no_cofactor(monkeypatch):
    calls = count_calls(monkeypatch, "_large_cofactor_factors", numtheory)
    assert len(numtheory.cyclic_numbers(1, 10**6)) == 294609
    assert calls == []


@pytest.mark.parametrize("lo, hi", [(10**6, 10**6 + 10**5), (4 * 10**6, 4 * 10**6 + 5000)])
def test_sieve_below_bound_square_factorizes_no_cofactor(monkeypatch, lo, hi):
    # Sieving bounds 1048 and 2001: hi < (B + 1)**2, so every cofactor is 1 or prime.
    calls = count_calls(monkeypatch, "_large_cofactor_factors", numtheory)
    assert numtheory.cyclic_numbers(lo, hi)
    assert calls == []


@pytest.mark.parametrize("after_wide", [False, True])
def test_sieve_factorizes_only_unmarked_large_cofactors(monkeypatch, after_wide):
    # A range of width 301 past 10**6 sieves with the primes up to 1000 and
    # factorizes the cofactor left after dividing them out, with no second
    # trial division, but only for an odd n whose part up to 1000 is
    # squarefree and holds no primes r, p with r | p - 1: even n and the
    # others are settled by a mark.  A wide call just before, which sieves
    # with the primes up to 10**6, leaves the count as it is.
    lo, hi = 10**12, 10**12 + 300
    if after_wide:
        numtheory.cyclic_numbers(lo, lo + 10**6)
    expected = 0
    for n in range(lo | 1, hi + 1, 2):
        factors = numtheory_oracles.factorize(n)
        small = [(p, a) for p, a in factors if p <= 1000]
        primes = [p for p, _ in small]
        marked = any(a > 1 for _, a in small) or any((p - 1) % r == 0 for r in primes for p in primes if r < p)
        if not marked and n // math.prod(primes) > 10**6:
            expected += 1
    calls = count_calls(monkeypatch, "_large_cofactor_factors", numtheory)
    trial = count_calls(monkeypatch, "factorize", numtheory)
    numtheory.cyclic_numbers(lo, hi)
    assert len(calls) == expected > 0
    assert trial == []


def test_consecutive_wide_windows_build_one_sieve_table(monkeypatch):
    numtheory._sieve_table.cache_clear()
    calls = count_calls(monkeypatch, "_prime_flags", numtheory)
    lo = 10**12
    assert len(numtheory.cyclic_numbers(lo, lo + 10**6)) == 272211
    assert len(numtheory.cyclic_numbers(lo + 10**6 + 1, lo + 2 * 10**6)) == 271911
    assert calls == [(10**6,)]


@pytest.mark.parametrize("p", [1009, 999983, 2**31 - 1, 2147483629])
def test_factorize_splits_squares_without_rho(monkeypatch, p):
    calls = count_calls(monkeypatch, "_rho", numtheory)
    assert numtheory.factorize(p * p).factors == ((p, 2),)
    if p**4 <= numtheory.MAX_INPUT:
        assert numtheory.factorize(p**4).factors == ((p, 4),)
    assert calls == []


@pytest.mark.parametrize("n", [4, 6, 18, 100, 2310])
def test_verify_computes_each_element_order_once(monkeypatch, n):
    # A square witness (4, 18, 100) is abelian, so its largest element
    # order is the lcm of the generator orders closure computed: no order
    # pass, and each generator's cycles are walked once, by closure.  An
    # arrow witness (6, 2310) is not abelian and takes one order pass.
    cert = build_witness(n)
    order_passes = {"square": 0, "arrow": 1}[cert.reason]
    passes = count_calls(monkeypatch, "_order_pass", groups)
    singles = count_calls(monkeypatch, "perm_order", perm, groups)
    walks_in_closure = count_calls(monkeypatch, "_cycles", groups)
    walks_elsewhere = count_calls(monkeypatch, "_cycles", perm)
    report = verify_certificate(cert)
    assert report.passed and report.group_size == n
    assert len(passes) == order_passes
    assert singles == []
    assert len(walks_in_closure) == len(cert.generators)
    assert walks_elsewhere == []


@pytest.mark.parametrize("r", [1, 2, 3, 6])
def test_is_abelian_composes_each_pair_of_generators_once(monkeypatch, r):
    # Z2^r as r disjoint transpositions: every pair commutes, so none is
    # skipped, and each unordered pair of distinct generators takes two
    # products.
    G = closure([perm.cycle([2 * i, 2 * i + 1], 2 * r) for i in range(r)])
    calls = count_calls(monkeypatch, "compose", perm)
    assert groups.is_abelian(G)
    assert len(calls) == r * (r - 1)


def test_element_order_on_the_9604_witness_reads_no_element_list():
    # Membership is one key lookup and one whole-tuple confirm.
    cert = build_witness(9604)
    G = closure(cert.generators)
    a, b = cert.generators
    for g in (a, b, a * b):
        assert groups.element_order(G, g) == perm.perm_order(g)
    for outside in (perm.cycle([0, 2], G.degree), perm.identity(G.degree - 1)):
        with pytest.raises(ValueError, match="element is not a member of the group"):
            groups.element_order(G, outside)
    assert "elements" not in vars(G)  # the cached property was never read


def test_membership_on_the_9604_witness_reads_no_element_list():
    cert = build_witness(9604)
    G = closure(cert.generators)
    a, b = cert.generators
    assert a in G and b in G and a * b in G
    assert perm.cycle([0, 2], G.degree) not in G
    assert perm.identity(G.degree - 1) not in G
    assert "elements" not in vars(G)


def test_equality_on_the_9604_witness_reads_no_element_list():
    # Equal order and the other group's generators in this one: r lookups.
    gens = build_witness(9604).generators
    G, reordered, smaller = closure(gens), closure(gens[::-1]), closure(gens[:1])
    assert G == reordered and hash(G) == hash(reordered)
    assert G != smaller and smaller != G
    assert all("elements" not in vars(X) for X in (G, reordered, smaller))


def test_conjugate_subgroup_on_the_9604_witness_reads_no_element_list():
    # F's element numbers go through b's conjugation map; the group is abelian.
    G = closure(build_witness(9604).generators)
    a, b = G.generators
    F = generated_subgroup(G, a)
    K = groups.conjugate_subgroup(G, F, b)
    assert K == F and a in K
    assert all("elements" not in vars(X) for X in (G, F, K))


@pytest.mark.parametrize("n", [12, 54, 100, 128])
def test_order_pass_walks_only_elements_no_earlier_walk_reached(monkeypatch, n):
    G = closure(build_witness(n).generators)
    # The pass walks in closure's numbering, and the identity, element 0,
    # has a known order.
    reached = {G.elements[0]}
    expected = 0
    for g in map(Permutation, map(G._dimino.images_of, range(n))):
        if g not in reached:
            expected += 1
            reached.update(generated_subgroup(G, g).elements)
    walks = count_calls(monkeypatch, "_power_keys", groups)
    groups.all_element_orders(G)
    assert len(walks) == expected < n - 1


def count_products(monkeypatch):
    """Make each map groups._gather returns count its calls; return the count list."""
    calls = []
    real = groups._gather

    def gather(images):
        step = real(images)

        def counted(x):
            calls.append(None)
            return step(x)

        return counted

    monkeypatch.setattr(groups, "_gather", gather)
    return calls


def test_closure_takes_under_1_6_products_per_element_up_to_200(monkeypatch):
    # Breadth-first closure took one product per element and generator.
    products = count_products(monkeypatch)
    for n in range(2, 201):
        cert = build_witness(n)
        if cert is None:
            continue
        products.clear()
        assert len(closure(cert.generators).elements) == n
        assert len(products) < 1.6 * n, n


@pytest.mark.parametrize("n", [12, 54, 62, 128, 2310])
def test_order_pass_and_lattice_take_no_products(monkeypatch, n):
    # All three key each element by its images on a base: no gathered
    # product.  The normalizer's test per coset runs on element numbers;
    # only the public function builds its result's permutations.
    G = closure(build_witness(n).generators)
    G.elements  # built on first read
    subgroups = [generated_subgroup(G, g) for g in G.elements[1:6]]
    if n <= groups.DEFAULT_SUBGROUP_BOUND:
        subgroups = groups.all_subgroups(G)
    numbers = [F.numbers for F in subgroups]
    products = count_products(monkeypatch)
    groups.all_element_orders(G)
    if n <= groups.DEFAULT_SUBGROUP_BOUND:
        groups.all_subgroups(G)
        groups.maximal_subgroups(G)
    for F in numbers:
        groups._normalizer(G, F)
    assert products == []


def normal_prime_index_pairs(G):
    """The pairs H < K of the oracle's lattice with H normal in K and [K : H] prime."""
    subgroups = group_oracles.subgroups(G)
    sets = [frozenset(H.elements) for H in subgroups]
    pairs = 0
    for H, S in zip(subgroups, sets):
        N = group_oracles.normalizer(G, H)
        for T in sets:
            index = len(T) // len(S)
            pairs += S < T <= N and all(index % q for q in range(2, index))
    return pairs


def elementary_abelian_2(k):
    return closure([perm.cycle([2 * i, 2 * i + 1], 2 * k) for i in range(k)])


@pytest.mark.parametrize("name, pairs", [("Z2^5", 2077), ("Z2^6", 23562), ("w62", 33)])
def test_lattice_builds_one_union_per_normal_subgroup_of_prime_index(monkeypatch, name, pairs):
    # Each subgroup H grows to H, c*H, ..., c^(p-1)*H, one union per K in
    # which H is normal of prime index p, with no orbit.  The pairs are
    # counted on the oracle's lattice, except for Z2^6, whose oracle
    # lattice takes about 80 s: there they are the pairs of subspaces
    # U < V of F2^6 with dim V = dim U + 1, the sum over d of
    # [6 choose d]_2 * (2^(6-d) - 1).
    G = closure(build_witness(62).generators) if name == "w62" else elementary_abelian_2(int(name[-1]))
    if name == "Z2^6":
        gaussian = [
            math.prod(2 ** (6 - i) - 1 for i in range(d)) // math.prod(2 ** (i + 1) - 1 for i in range(d))
            for d in range(7)
        ]
        assert gaussian == [1, 63, 651, 1395, 651, 63, 1]
        assert sum(gaussian[d] * (2 ** (6 - d) - 1) for d in range(6)) == pairs
    else:
        assert normal_prime_index_pairs(G) == pairs
    orbits = count_calls(monkeypatch, "_orbit", groups)
    unions = count_calls(monkeypatch, "_extension", groups)
    groups.all_subgroups(G)
    assert orbits == []
    assert len(unions) == pairs


def test_each_group_ranks_its_elements_once(monkeypatch):
    # The lattice, the subgroup lists and analyze's rows all read one rank per group.
    rank = groups.FiniteGroup.__dict__["_rank"]
    calls = []
    real = rank.func
    monkeypatch.setattr(rank, "func", lambda G: calls.append(G) or real(G))
    G = closure(build_witness(54).generators)
    groups.analyze(G)
    groups.all_subgroups(G)
    groups.maximal_subgroups(G)
    assert calls == [G]


@pytest.mark.parametrize("n", [1432, 2310])
def test_closure_takes_one_product_per_element_on_large_witnesses(monkeypatch, n):
    gens = build_witness(n).generators
    products = count_products(monkeypatch)
    assert len(closure(gens).elements) == n
    assert len(products) < 1.01 * n


@pytest.mark.parametrize("n", [1432, 2310, 9604])
def test_verify_builds_no_element_tuple(monkeypatch, n):
    # Closure builds only coset representatives and the elements its key
    # hits name; the order pass reads walked elements point by point.
    cert = build_witness(n)
    products = count_products(monkeypatch)
    report = verify_certificate(cert)
    assert report.passed and report.group_size == n
    assert len(products) < 0.05 * n


def write_witness(tmp_path, n):
    path = tmp_path / f"w{n}.json"
    assert cli.main(["witness", str(n), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("n", [6, 54, 128])
def test_analyze_computes_each_element_order_once(monkeypatch, capsys, tmp_path, n):
    path = write_witness(tmp_path, n)
    passes = count_calls(monkeypatch, "_order_pass", groups)
    singles = count_calls(monkeypatch, "perm_order", perm, groups)
    assert cli.main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == n
    assert len(passes) == 1
    assert singles == []


@pytest.mark.parametrize("n", [6, 54])
def test_analyze_builds_each_conjugacy_class_once(monkeypatch, n):
    # Each class is one orbit on element numbers under the conjugation
    # maps; the lattice's orbits take other steps.
    G = closure(build_witness(n).generators)
    calls = count_calls(monkeypatch, "_orbit", groups)
    sizes = groups.analyze(G)["conjugacy_class_sizes"]
    assert sum(sizes) == n
    assert len([args for args in calls if args[1] is G._conjugations]) == len(sizes)


@pytest.mark.parametrize("n", [12, 54, 62])
def test_analyze_rows_take_no_normalizer_conjugate_orbit_or_subgroup(monkeypatch, n):
    # A maximal subgroup's row is one normality test on element numbers.
    G = closure(build_witness(n).generators)
    maxima = groups.maximal_subgroups(G)
    normalizers = count_calls(monkeypatch, "_normalizer", groups)
    conjugates = count_calls(monkeypatch, "_conjugates", groups)
    trusted = count_calls(monkeypatch, "_trusted", groups.Subgroup)
    checked = count_calls(monkeypatch, "__init__", groups.Subgroup)
    assert len(groups.analyze(G)["maximal_subgroups"]) == len(maxima) > 1
    assert normalizers == conjugates == trusted == checked == []


@pytest.mark.parametrize("n", [128, 2310])
def test_analyze_above_order_64_builds_no_element_list(monkeypatch, capsys, tmp_path, n):
    # Above the lattice's bound every query runs on closure's element
    # numbers; only the generator it prints is built as a whole tuple.
    path = write_witness(tmp_path, n)
    calls = count_calls(monkeypatch, "images", groups._Dimino)
    assert cli.main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == n > groups.DEFAULT_SUBGROUP_BOUND
    assert calls == []


@pytest.mark.parametrize("n", [54, 62, 128])
def test_analyze_inverts_each_generator_once(monkeypatch, capsys, tmp_path, n):
    # The conjugation maps are built once per group, not per class or subgroup.
    path = write_witness(tmp_path, n)
    calls = count_calls(monkeypatch, "inverse", perm)
    assert cli.main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == n
    assert len(calls) == len(build_witness(n).generators)


def test_table_is_cyclic_reads_element_orders(monkeypatch):
    tables = enumerate_groups(4)
    calls = count_calls(monkeypatch, "element_orders", cayley)
    assert [cayley.table_is_cyclic(t) for t in tables] == [False, True]
    assert len(calls) == len(tables)


def test_enumerate_takes_one_order_pass_per_class(monkeypatch, capsys):
    # Every order pass over a table starts by reading its rows.
    calls = count_calls(monkeypatch, "_group_rows", cayley)
    assert cli.main(["enumerate", "8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == len(calls) == 5


def test_enumerate_takes_no_canonical_form(monkeypatch, capsys):
    # The first candidate of each class is its canonical form, and
    # canonical_form reads its class off one search per order.
    calls = count_calls(monkeypatch, "canonical_form", cayley)
    assert cli.main(["enumerate", "8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == 5
    assert calls == []
    tables = [c.table for c in enumerate_groups(8)] * 10
    cayley._classes.cache_clear()
    searches = count_calls(monkeypatch, "_candidate_tables", cayley)
    assert [cayley.canonical_form(t) for t in tables] == tables
    assert searches == [(8,)]
