"""Witness constructions and certificate verification."""

import pytest

import cyclicnum as cn
from cyclicnum import (
    CapacityError,
    WitnessCertificate,
    affine_map,
    build_witness,
    is_cyclic_number,
    verify_certificate,
    witness_arrow_case,
    witness_square_case,
)
from cyclicnum.cli import certificate_to_dict


class TestSquareCase:
    def test_n4_is_klein(self):
        cert = witness_square_case(4, 2)
        assert cert.degree == 4 and cert.params == {"p": 2}
        G = cn.closure(cert.generators)
        assert len(G) == 4
        assert max(cn.perm_order(g) for g in G) == 2

    def test_n12_degree_and_orders(self):
        cert = witness_square_case(12, 2)
        assert cert.degree == 2 + 6
        report = verify_certificate(cert)
        assert report.passed and report.max_element_order == 6

    def test_n9_two_three_cycles(self):
        cert = witness_square_case(9, 3)
        assert cert.degree == 6
        report = verify_certificate(cert)
        assert report.group_size == 9 and report.max_element_order == 3

    def test_rejects_prime_not_squared_into_n(self):
        with pytest.raises(ValueError):
            witness_square_case(6, 2)
        with pytest.raises(ValueError):
            witness_square_case(12, 4)

    def test_degree_cap(self):
        with pytest.raises(CapacityError):
            witness_square_case(4, 2, max_degree=3)


class TestAffineMap:
    def test_exponent_zero_zero_is_identity(self):
        assert affine_map(2, 3, 2, 0, 0) == cn.identity(3)

    def test_composition_law_samples(self):
        p1, p2 = 3, 7
        a = cn.element_of_order(p1, p2)
        for k, l, k2, l2 in [(1, 2, 2, 5), (0, 6, 1, 0), (2, 2, 2, 2)]:
            lhs = affine_map(p1, p2, a, k, l) * affine_map(p1, p2, a, k2, l2)
            rhs = affine_map(
                p1, p2, a, (k + k2) % p1, (l + pow(a, k, p2) * l2) % p2
            )
            assert lhs == rhs

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            affine_map(2, 3, 1, 1, 0)  # a=1 has order 1
        with pytest.raises(ValueError):
            affine_map(3, 7, 6, 1, 0)  # 6 has order 2 mod 7, not 3
        with pytest.raises(ValueError):
            affine_map(3, 5, 2, 1, 0)  # 3 does not divide 5-1
        with pytest.raises(ValueError):
            affine_map(2, 3, 2, 2, 0)  # k out of range
        with pytest.raises(ValueError):
            affine_map(2, 3, 2, 1, 3)  # l out of range


class TestArrowCase:
    def test_n6_matches_published_shape(self):
        cert = witness_arrow_case(6, 2, 3)
        assert cert.degree == 3
        assert cert.params == {"p1": 2, "p2": 3, "a": 2}
        assert len(cert.generators) == 2
        report = verify_certificate(cert)
        assert report.passed and report.max_element_order == 3

    def test_n30_appends_five_cycle(self):
        cert = witness_arrow_case(30, 2, 3)
        assert cert.degree == 3 + 5
        assert len(cert.generators) == 3
        report = verify_certificate(cert)
        assert report.group_size == 30 and report.max_element_order == 15

    @pytest.mark.parametrize("p1,p2", [(2, 3), (2, 5), (3, 7)])
    def test_two_affine_generators_close_to_p1p2(self, p1, p2):
        cert = witness_arrow_case(p1 * p2, p1, p2)
        G = cn.closure(cert.generators)
        assert len(G) == p1 * p2
        assert not cn.is_abelian(G)

    def test_rejects_pair_without_divisibility(self):
        with pytest.raises(ValueError):
            witness_arrow_case(15, 3, 5)  # 3 does not divide 5-1
        with pytest.raises(ValueError):
            witness_arrow_case(10, 2, 3)  # 2*3 does not divide 10

    def test_non_squarefree_order_still_verifies(self):
        # the arrow construction itself only needs p1*p2 | n
        report = verify_certificate(witness_arrow_case(12, 2, 3))
        assert report.passed and report.group_size == 12

    def test_degree_cap(self):
        with pytest.raises(CapacityError):
            witness_arrow_case(202, 2, 101, max_degree=100)


class TestBuildWitness:
    def test_absent_exactly_for_cyclic_numbers(self):
        for n in range(1, 41):
            cert = build_witness(n)
            assert (cert is None) == is_cyclic_number(n), n

    def test_square_wins_over_arrow(self):
        # 12 and 36 satisfy both failure conditions; the square branch is used
        assert build_witness(12).reason == "square"
        assert build_witness(36).reason == "square"

    def test_square_uses_smallest_repeated_prime(self):
        assert build_witness(36).params == {"p": 2}
        assert build_witness(45).params == {"p": 3}

    def test_arrow_uses_smallest_pair(self):
        cert = build_witness(42)
        assert cert.reason == "arrow"
        assert (cert.params["p1"], cert.params["p2"]) == (2, 3)

    def test_deterministic(self):
        a = certificate_to_dict(build_witness(24))
        b = certificate_to_dict(build_witness(24))
        assert a == b

    def test_degree_cap_propagates(self):
        with pytest.raises(CapacityError):
            build_witness(20000)
        cert = build_witness(20000, max_degree=10002)
        assert cert.degree == 10002

    def test_only_20000_exceeds_the_default_cap_up_to_20000(self):
        # The degree formulas p + n/p and p2 + n/(p1*p2), computed here.
        over, widest_arrow = [], (0, 0)
        for n in range(1, 20001):
            report = cn.check_conditions(n)
            if report.square_prime is not None:
                p = report.square_prime
                degree = p + n // p
            elif report.arrow_pair is not None:
                p1, p2 = report.arrow_pair
                m = n // (p1 * p2)
                degree = p2 + (m if m > 1 else 0)
                widest_arrow = max(widest_arrow, (degree, n))
            else:
                continue
            if degree > cn.DEGREE_CAP:
                over.append(n)
        assert over == [20000]
        with pytest.raises(CapacityError, match="exceeds the cap of 10000"):
            build_witness(20000)
        assert widest_arrow == (9973, 19946)
        assert build_witness(19946).degree == 9973

    def test_verified_sweep_to_40(self):
        for n in range(2, 41):
            cert = build_witness(n)
            if cert is None:
                continue
            report = verify_certificate(cert)
            assert report.order_ok and report.noncyclic_ok, n
            assert report.max_element_order < n


class TestVerifyAgainstWholeGroupClosure:
    def test_every_witness_up_to_3000(self):
        # verify reads |G| and the largest element order off the support
        # blocks; one closure of every generator must give the same report.
        reasons = {"square": 0, "arrow": 0}
        for n in range(2, 3001):
            cert = build_witness(n)
            if cert is None:
                continue
            G = cn.closure(cert.generators)
            largest = cn.max_element_order(G)
            report = verify_certificate(cert)
            assert (report.group_size, report.max_element_order) == (len(G), largest), n
            assert (report.order_ok, report.noncyclic_ok) == (len(G) == n, largest < len(G)), n
            assert report.passed, n
            reasons[cert.reason] += 1
        assert reasons == {"square": 1176, "arrow": 868}


class TestCertificateValidation:
    def test_wrong_degree_rejected(self):
        good = build_witness(6)
        with pytest.raises(ValueError):
            WitnessCertificate(6, "arrow", dict(good.params), 10, good.generators)
        # the grid-era arrow degree p2**2 no longer parses
        with pytest.raises(ValueError, match="must have degree 3"):
            WitnessCertificate(6, "arrow", dict(good.params), 9, (cn.identity(9),))

    def test_wrong_multiplier_rejected(self):
        good = build_witness(6)
        with pytest.raises(ValueError, match="multiplicative order"):
            WitnessCertificate(
                6, "arrow", {"p1": 2, "p2": 3, "a": 1}, 3, good.generators
            )

    def test_multiplier_order_decided_exactly(self):
        # mod 7, 2 and 4 have order 3; 3 and 5 have order 6, 6 has order 2
        good = build_witness(21)
        for a in (2, 4):
            WitnessCertificate(21, "arrow", dict(good.params, a=a), good.degree, good.generators)
        for a in (3, 5, 6, 7):
            with pytest.raises(ValueError, match="multiplicative order"):
                WitnessCertificate(21, "arrow", dict(good.params, a=a), good.degree, good.generators)

    def test_unknown_reason_rejected(self):
        good = build_witness(4)
        with pytest.raises(ValueError):
            WitnessCertificate(4, "mystery", dict(good.params), 4, good.generators)

    def test_generator_degree_mismatch_rejected(self):
        good = build_witness(4)
        with pytest.raises(ValueError):
            WitnessCertificate(
                4, "square", dict(good.params), 4, (cn.identity(5),) + good.generators
            )

    def test_dropped_generator_parses_but_fails_verification(self):
        good = build_witness(6)
        tampered = WitnessCertificate(
            6, "arrow", dict(good.params), 3, good.generators[:1]
        )
        report = verify_certificate(tampered)
        assert not report.order_ok
        assert not report.passed

    def test_verification_never_trusts_order_field(self):
        # a square certificate for 8 whose generators actually make a group of 8;
        # change n's consistency instead: 16 with p=2 has degree 2+8=10, so a
        # valid-looking cert for 16 with 8-point generators cannot even parse
        good = build_witness(8)
        with pytest.raises(ValueError):
            WitnessCertificate(16, "square", {"p": 2}, good.degree, good.generators)


NON_INTEGER_PARAMETERS = [
    (witness_square_case, (4, 2.0)),
    (witness_square_case, (4, True)),
    (witness_arrow_case, (6, 2.0, 3)),
    (witness_arrow_case, (6, 2, 3.0)),
    (witness_arrow_case, (6, True, 3)),
    (witness_arrow_case, (6, 2, True)),
    (affine_map, (2.0, 3, 2, 1, 0)),
    (affine_map, (2, 3.0, 2, 1, 0)),
    (affine_map, (2, 3, 2.0, 1, 0)),
    (affine_map, (2, 3, True, 1, 0)),
    (witness_square_case, (4.0, 2)),
    (witness_square_case, (True, 2)),
    (witness_arrow_case, (6.0, 2, 3)),
    (witness_arrow_case, (True, 2, 3)),
    (affine_map, (2, 3, 2, 1.0, 0)),
    (affine_map, (2, 3, 2, 1, 0.0)),
    (affine_map, (2, 3, 2, True, 0)),
    (affine_map, (2, 3, 2, 1, True)),
    (affine_map, (2, 3, 2, 0, True)),
]


class TestSharedConstructionChecks:
    @pytest.mark.parametrize(
        "build,args", NON_INTEGER_PARAMETERS, ids=[f"{f.__name__}{args}" for f, args in NON_INTEGER_PARAMETERS]
    )
    def test_float_or_bool_parameter_is_a_value_error(self, build, args):
        with pytest.raises(ValueError):
            build(*args)

    def test_builders_and_certificates_accept_the_same_parameters(self):
        # A builder refuses its parameters exactly when no certificate with the
        # same n and parameters parses, given the formula degree and an
        # identity generator; an arrow certificate may pick any multiplier a.
        identities = {}

        def parses(n, reason, params, degree):
            if degree not in identities:
                identities[degree] = cn.identity(degree)
            try:
                WitnessCertificate(n, reason, params, degree, (identities[degree],))
            except ValueError:
                return False
            return True

        def builds(build, *args):
            try:
                build(*args)
            except ValueError:
                return False
            return True

        for n in range(1, 201):
            for p in range(1, 14):
                assert builds(witness_square_case, n, p) == parses(n, "square", {"p": p}, p + n // p), (n, p)
            for p1 in range(1, 14):
                for p2 in range(1, 14):
                    m = n // (p1 * p2)
                    degree = p2 + (m if m > 1 else 0)
                    parsed = any(
                        parses(n, "arrow", {"p1": p1, "p2": p2, "a": a}, degree) for a in range(p2 + 1)
                    )
                    assert builds(witness_arrow_case, n, p1, p2) == parsed, (n, p1, p2)
