import random

import pytest

from rollsim.algebra import (
    DEFAULT_PRIME,
    Field,
    LagrangeBasis,
    PairingGroup,
    Polynomial,
)
from rollsim.snark import (
    CRS,
    DegenerateShift,
    FlatProgram,
    Statement,
    UnknownVariable,
    UnsupportedOp,
    WitnessExecutionError,
    WitnessUnsatisfied,
    assemble,
    build_qap,
    compile_r1cs,
    encrypt_eval,
    flatten,
    forge_without_kea,
    prove,
    roots_check,
    run_pipeline,
    setup,
    verify,
    witness,
    zk_shift,
)
from rollsim.validityrollup.settlement import DIGEST_CIRCUIT

F = Field(DEFAULT_PRIME)
GROUP = PairingGroup(DEFAULT_PRIME)

CUBE_PLUS_8 = "x*x*x + 8"


def cube_program() -> FlatProgram:
    return flatten(CUBE_PLUS_8, inputs=("x",))


class TestFlatten:
    def test_cube_structure(self):
        fp = cube_program()
        ops = [(s.op, s.left, s.right) for s in fp.statements]
        t1, t2 = fp.statements[0].target, fp.statements[1].target
        assert ops == [("*", "x", "x"), ("*", t1, "x"), ("+", t2, 8)]
        assert fp.statements[-1].target == "out"

    def test_bare_variable_normalized(self):
        fp = flatten("x", inputs=("x",))
        assert fp.statements == (Statement("out", "*", "x", 1),)

    def test_product_of_sums(self):
        fp = flatten("(x+1) * (x+2)", inputs=("x",))
        assert len(fp.statements) == 3
        s = witness(fp, F, {"x": 2})
        assert s[-1] == F(12)

    def test_unsupported_operator(self):
        with pytest.raises(UnsupportedOp):
            flatten("x ** 3", inputs=("x",))



class TestR1cs:
    def test_worked_example_vectors(self):
        r1cs = compile_r1cs(cube_program(), F)
        assert len(r1cs.constraints) == 3
        a1, b1, c1 = r1cs.constraints[0]
        assert a1 == (0, 1, 0, 0, 0)
        assert b1 == (0, 1, 0, 0, 0)
        assert c1 == (0, 0, 1, 0, 0)
        a2, b2, c2 = r1cs.constraints[1]
        assert a2 == (0, 0, 1, 0, 0)
        assert b2 == (0, 1, 0, 0, 0)
        assert c2 == (0, 0, 0, 1, 0)
        a3, b3, c3 = r1cs.constraints[2]
        assert a3 == (8, 0, 0, 1, 0)
        assert b3 == (1, 0, 0, 0, 0)
        assert c3 == (0, 0, 0, 0, 1)

    def test_one_gate_one_constraint(self):
        r1cs = compile_r1cs(flatten("x", inputs=("x",)), F)
        assert len(r1cs.constraints) == 1

    def test_unknown_variable(self):
        fp = FlatProgram(inputs=("x",), statements=(Statement("out", "*", "y", 1),))
        with pytest.raises(UnknownVariable):
            compile_r1cs(fp, F)

    def test_witness_satisfies_all_constraints(self):
        fp = cube_program()
        r1cs = compile_r1cs(fp, F)
        for x in (0, 1, 3, 17):
            assert r1cs.satisfied_by(witness(fp, F, {"x": x}))


class TestWitness:
    def test_x_equals_3(self):
        assert witness(cube_program(), F, {"x": 3}) == [F(v) for v in (1, 3, 9, 27, 35)]

    def test_x_equals_0(self):
        assert witness(cube_program(), F, {"x": 0}) == [F(v) for v in (1, 0, 0, 0, 8)]

    def test_x_equals_1(self):
        assert witness(cube_program(), F, {"x": 1}) == [F(v) for v in (1, 1, 1, 1, 9)]

    def test_division_gate(self):
        fp = flatten("x / 4 + 1", inputs=("x",))
        s = witness(fp, F, {"x": 8})
        assert s[-1] == F(3)
        assert compile_r1cs(fp, F).satisfied_by(s)

    def test_division_by_zero(self):
        fp = flatten("4 / x", inputs=("x",))
        with pytest.raises(WitnessExecutionError):
            witness(fp, F, {"x": 0})

    def test_missing_input(self):
        with pytest.raises(UnknownVariable):
            witness(cube_program(), F, {})


def naive_interpolate(field: Field, points) -> Polynomial:
    """Reference Lagrange interpolation: each basis polynomial built from
    scratch as a product of linear factors, over its own denominator."""
    xs = [field(x) for x, _ in points]
    result = Polynomial(field, [])
    for i, (xi, (_, yi)) in enumerate(zip(xs, points)):
        basis, denom = Polynomial(field, [1]), field.one
        for j, xj in enumerate(xs):
            if j != i:
                basis = basis * Polynomial(field, [-xj, 1])
                denom = denom * (xi - xj)
        result = result + basis * (field(yi) / denom)
    return result


# one gate per statement: 3, 2 and 9 constraints
QAP_CIRCUITS = [CUBE_PLUS_8, DIGEST_CIRCUIT, "x*x*x*x + 3*x*x - x/7 + 5"]


class TestQap:
    @pytest.mark.parametrize("source", QAP_CIRCUITS)
    def test_equals_per_column_naive_interpolation(self, source):
        r1cs = compile_r1cs(flatten(source, inputs=("x",)), F)
        qap = build_qap(r1cs)
        xs = range(1, len(r1cs.constraints) + 1)
        for which, polys in enumerate((qap.a_polys, qap.b_polys, qap.c_polys)):
            assert len(polys) == len(r1cs.variables)
            for var_idx, poly in enumerate(polys):
                column = [constraint[which][var_idx] for constraint in r1cs.constraints]
                assert poly == naive_interpolate(F, list(zip(xs, column)))
        naive_z = Polynomial(F, [1])
        for x in xs:
            naive_z = naive_z * Polynomial(F, [-x, 1])
        assert qap.z == naive_z
        assert (qap.num_constraints, qap.degree) == (len(xs), 2 * (len(xs) - 1))

    def test_interpolation_matches_naive_reference_on_random_points(self):
        rng = random.Random(39)
        for n in range(9):
            xs = rng.sample(range(1 << 62), n)
            # about three values in ten are zero, the entries a sparse column skips
            ys = [rng.randrange(F.prime) if rng.random() < 0.7 else 0 for _ in xs]
            poly = LagrangeBasis(F, xs).interpolate(ys)
            assert poly == naive_interpolate(F, list(zip(xs, ys)))
            assert poly.degree < max(n, 1)
            assert [poly(x) for x in xs] == [F(y) for y in ys]

    def test_paper_polynomials(self):
        qap = build_qap(compile_r1cs(cube_program(), F))
        half = (1, 2)
        expected_a = [
            [8, -12, 4],
            [(3, 1), (-5, 2), half],
            [-3, 4, -1],
            [(1, 1), (-3, 2), half],
            [],
        ]
        for poly, coeffs in zip(qap.a_polys, expected_a):
            assert poly == Polynomial.from_rationals(F, [c if isinstance(c, tuple) else (c, 1) for c in coeffs])

    def test_evaluation_at_3_reproduces_a3(self):
        qap = build_qap(compile_r1cs(cube_program(), F))
        row = [poly(3) for poly in qap.a_polys]
        assert row == [F(8), F(0), F(0), F(1), F(0)]

    def test_z_polynomial(self):
        qap = build_qap(compile_r1cs(cube_program(), F))
        assert qap.z == Polynomial(F, [-6, 11, -6, 1])

    def test_qap_r1cs_equivalence(self):
        r1cs = compile_r1cs(cube_program(), F)
        qap = build_qap(r1cs)
        for n, (a, b, c) in enumerate(r1cs.constraints, start=1):
            assert tuple(p(n).value for p in qap.a_polys) == a
            assert tuple(p(n).value for p in qap.b_polys) == b
            assert tuple(p(n).value for p in qap.c_polys) == c


class TestAssemble:
    def test_paper_p_and_h(self):
        fp = cube_program()
        qap = build_qap(compile_r1cs(fp, F))
        p, h = assemble(qap, witness(fp, F, {"x": 3}))
        assert p == Polynomial(F, [36, -6, -74, 54, -10])
        assert h == Polynomial(F, [-6, -10])

    def test_tampered_witness_raises(self):
        fp = cube_program()
        qap = build_qap(compile_r1cs(fp, F))
        s = witness(fp, F, {"x": 3})
        s[4] = F(36)
        with pytest.raises(WitnessUnsatisfied):
            assemble(qap, s)

    def test_trivial_constraints_zero_polys(self):
        fp = FlatProgram(inputs=(), statements=(Statement("out", "*", 0, 1),))
        qap = build_qap(compile_r1cs(fp, F))
        p, h = assemble(qap, [F(1), F(0)])
        assert p.is_zero() and h.is_zero()

    def test_remainder_zero_iff_satisfied(self):
        rng = random.Random(5)
        fp = cube_program()
        r1cs = compile_r1cs(fp, F)
        qap = build_qap(r1cs)
        for _ in range(100):
            x = rng.randrange(F.prime)
            s = witness(fp, F, {"x": x})
            if rng.random() < 0.5:
                idx = rng.randrange(1, len(s))
                s[idx] = s[idx] + rng.randrange(1, F.prime)
            satisfied = r1cs.satisfied_by(s)
            try:
                assemble(qap, s)
                assert satisfied
            except WitnessUnsatisfied:
                assert not satisfied


class TestCrsAndProof:
    def setup_method(self):
        self.fp = cube_program()
        self.qap = build_qap(compile_r1cs(self.fp, F))
        self.rng = random.Random(11)
        self.crs = setup(self.qap, GROUP, self.rng)

    def test_crs_shape(self):
        assert self.qap.degree == 4
        assert len(self.crs.powers) == 5
        assert len(self.crs.shifted_powers) == 5
        assert self.crs.toxic is None

    def test_power_zero_is_generator(self):
        assert self.crs.powers[0] == GROUP.generator

    def test_shift_consistency(self):
        for plain, shifted in zip(self.crs.powers, self.crs.shifted_powers):
            assert GROUP.pairing(plain, self.crs.vk.alpha_encrypted) == GROUP.pairing(
                shifted, GROUP.generator
            )

    def test_honest_proofs_accepted(self):
        for x in (0, 3, 12345):
            s = witness(self.fp, F, {"x": x})
            proof = prove(self.crs, self.qap, s)
            assert verify(self.crs.vk, proof, GROUP)

    def test_toxic_waste_cross_check(self):
        crs = setup(self.qap, GROUP, random.Random(13), retain_toxic_waste=True)
        r, alpha = crs.toxic
        s = witness(self.fp, F, {"x": 3})
        p_poly, h_poly = assemble(self.qap, s)
        proof = prove(crs, self.qap, s)
        assert proof.p == GROUP.encrypt(p_poly(F(r)).value)
        assert proof.p_shifted == GROUP.encrypt(alpha * p_poly(F(r)).value % GROUP.order)
        assert proof.h == GROUP.encrypt(h_poly(F(r)).value)

    def test_wrong_h_rejected(self):
        s = witness(self.fp, F, {"x": 3})
        proof = prove(self.crs, self.qap, s)
        bad = type(proof)(p=proof.p, p_shifted=proof.p_shifted, h=GROUP.encrypt(999))
        assert not verify(self.crs.vk, bad, GROUP)

    def test_swapped_p_h_rejected(self):
        s = witness(self.fp, F, {"x": 3})
        proof = prove(self.crs, self.qap, s)
        swapped = type(proof)(p=proof.h, p_shifted=proof.p_shifted, h=proof.p)
        assert not verify(self.crs.vk, swapped, GROUP)

    def test_random_p_shifted_rejected(self):
        s = witness(self.fp, F, {"x": 3})
        proof = prove(self.crs, self.qap, s)
        bad = type(proof)(p=proof.p, p_shifted=GROUP.encrypt(123456), h=proof.h)
        assert not verify(self.crs.vk, bad, GROUP)

    def test_proof_is_three_group_elements(self):
        import json

        s = witness(self.fp, F, {"x": 3})
        proof = prove(self.crs, self.qap, s)
        payload = json.loads(proof.to_json())
        assert set(payload) == {"p", "p_shifted", "h", "delta_applied"}


class TestForgery:
    def setup_method(self):
        self.qap = build_qap(compile_r1cs(cube_program(), F))
        self.crs = setup(self.qap, GROUP, random.Random(17))

    def test_forgery_passes_roots_check_alone(self):
        forged = forge_without_kea(self.crs.vk, GROUP, random.Random(19))
        assert roots_check(self.crs.vk, forged, GROUP)

    def test_forgery_fails_full_verification(self):
        forged = forge_without_kea(self.crs.vk, GROUP, random.Random(19))
        assert not verify(self.crs.vk, forged, GROUP)

    def test_hundred_forgeries_never_verify(self):
        rng = random.Random(23)
        for _ in range(100):
            forged = forge_without_kea(self.crs.vk, GROUP, rng)
            assert roots_check(self.crs.vk, forged, GROUP)
            assert not verify(self.crs.vk, forged, GROUP)


class TestZkShift:
    def setup_method(self):
        self.fp = cube_program()
        self.qap = build_qap(compile_r1cs(self.fp, F))
        self.crs = setup(self.qap, GROUP, random.Random(29))
        self.proof = prove(self.crs, self.qap, witness(self.fp, F, {"x": 3}))

    def test_shifted_honest_proof_accepts(self):
        rng = random.Random(31)
        for _ in range(20):
            delta = rng.randrange(1, GROUP.order)
            shifted = zk_shift(self.proof, delta, GROUP)
            assert shifted.delta_applied
            assert verify(self.crs.vk, shifted, GROUP)

    def test_shifted_invalid_proof_rejects(self):
        bad = type(self.proof)(p=self.proof.p, p_shifted=self.proof.p_shifted, h=GROUP.encrypt(5))
        shifted = zk_shift(bad, 7777, GROUP)
        assert not verify(self.crs.vk, shifted, GROUP)

    def test_zero_delta_rejected(self):
        with pytest.raises(DegenerateShift):
            zk_shift(self.proof, 0, GROUP)

    def test_distinct_deltas_give_distinct_elements(self):
        s1 = zk_shift(self.proof, 1111, GROUP)
        s2 = zk_shift(self.proof, 2222, GROUP)
        assert s1.p != s2.p and s1.h != s2.h


class TestNaiveInteractiveProtocol:
    """The plaintext-r exchange the CRS replaces, kept as a harness: it shows
    why hiding r and adding the shift is necessary."""

    def test_honest_naive_exchange(self):
        fp = cube_program()
        qap = build_qap(compile_r1cs(fp, F))
        rng = random.Random(37)
        r = F(rng.randrange(F.prime))
        p_poly, h_poly = assemble(qap, witness(fp, F, {"x": 3}))
        assert p_poly(r) == h_poly(r) * qap.z(r)

    def test_naive_exchange_is_forgeable(self):
        # without encryption a prover who never saw P(x) satisfies the check
        qap = build_qap(compile_r1cs(cube_program(), F))
        rng = random.Random(41)
        r = F(rng.randrange(F.prime))
        fake_h = F(rng.randrange(F.prime))
        fake_p = fake_h * qap.z(r)
        assert fake_p == fake_h * qap.z(r)  # verifier's naive equation accepts


def random_program(rng: random.Random) -> tuple[str, FlatProgram]:
    """Random expression with at most six gates; divisions use nonzero constants."""

    def expr(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return "x" if rng.random() < 0.7 else str(rng.randrange(1, 50))
        op = rng.choice(["+", "-", "*", "*", "/"])
        if op == "/":
            return f"({expr(depth - 1)}) / {rng.randrange(1, 30)}"
        return f"({expr(depth - 1)}) {op} ({expr(depth - 1)})"

    while True:
        source = expr(2)
        fp = flatten(source, inputs=("x",))
        if len(fp.statements) <= 6 and any(
            "x" in (s.left, s.right) for s in fp.statements
        ):
            return source, fp


class TestEndToEndSoundness:
    def test_random_programs_accept_and_reject(self):
        rng = random.Random(4242)
        for _ in range(30):
            _, fp = random_program(rng)
            r1cs = compile_r1cs(fp, F)
            qap = build_qap(r1cs)
            s = witness(fp, F, {"x": rng.randrange(F.prime)})
            crs = setup(qap, GROUP, rng)
            proof = prove(crs, qap, s)
            assert verify(crs.vk, proof, GROUP)
            # wrong witness: perturb one non-constant entry
            bad = list(s)
            idx = rng.randrange(1, len(bad))
            bad[idx] = bad[idx] + rng.randrange(1, F.prime)
            try:
                bad_proof = prove(crs, qap, bad)
                assert not verify(crs.vk, bad_proof, GROUP)
            except WitnessUnsatisfied:
                pass

    def test_pipeline_helper(self):
        result = run_pipeline(CUBE_PLUS_8, {"x": 3}, GROUP, random.Random(1))
        assert result.accepted
        assert [e.value for e in result.solution] == [1, 3, 9, 27, 35]
        assert result.output == F(35)
