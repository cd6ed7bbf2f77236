"""Toy SNARK pipeline over the pairing oracle.

The full chain: flatten an arithmetic expression into single-operation
statements, compile them to a rank-1 constraint system, generate a witness,
interpolate the quadratic arithmetic program, run a trusted setup producing
encrypted powers (the CRS), prove by evaluating the witness polynomials "in
the exponent", and verify with two pairing equations. The knowledge-of-
exponent forgery and the blinding shift are included: the first as the
canonical negative test, the second as the zero-knowledge repair.

Verification binds only the divisibility and shift structure, not the public
inputs; callers that need input binding expose the program output next to
the proof and re-derive it (see the validity-rollup settlement layer).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import (
    Field,
    FieldElement,
    GroupElement,
    LagrangeBasis,
    PairingGroup,
    Polynomial,
)

OUTPUT_VARIABLE = "out"
ONE_VARIABLE = "~one"


class UnsupportedOp(ValueError):
    """Expression uses an operator outside +, -, *, /."""


class UnknownVariable(KeyError):
    """Statement references a variable that is never assigned or declared."""


class WitnessExecutionError(ArithmeticError):
    """Program execution failed (division by zero)."""


class WitnessUnsatisfied(ValueError):
    """Assignment does not satisfy the constraint system."""


class DegenerateShift(ValueError):
    """The blinding shift must be nonzero."""


@dataclass(frozen=True)
class Statement:
    """One flattened operation: target = left <op> right."""

    target: str
    op: str
    left: str | int
    right: str | int

    def __str__(self) -> str:
        return f"{self.target} = {self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class FlatProgram:
    """A flattened program: its inputs and single-operator statements."""

    inputs: tuple[str, ...]
    statements: tuple[Statement, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        """Constraint-vector layout: [1, inputs..., intermediates..., out]."""
        intermediates = [
            s.target
            for s in self.statements
            if s.target != OUTPUT_VARIABLE and s.target not in self.inputs
        ]
        return (ONE_VARIABLE, *self.inputs, *intermediates, OUTPUT_VARIABLE)


def flatten(source: str, inputs: Sequence[str] = ("x",)) -> FlatProgram:
    """Flatten an arithmetic expression into single-operator statements.

    ``source`` is an expression over the declared inputs, e.g. "x*x*x + 8".
    Temporaries are introduced bottom-up; the root lands in ``out``. A bare
    variable or constant is normalized to a multiplication by one so that
    every program has at least one gate.
    """
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise UnsupportedOp(f"cannot parse expression: {exc}") from exc
    statements: list[Statement] = []
    counter = 0

    def emit(node: ast.expr) -> str | int:
        nonlocal counter
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                raise UnsupportedOp(f"non-integer constant {node.value!r}")
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in inputs:
                raise UnknownVariable(f"{node.id} is not a declared input")
            return node.id
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = emit(node.operand)
            counter += 1
            statements.append(Statement(f"t{counter}", "-", 0, inner))
            return f"t{counter}"
        if isinstance(node, ast.BinOp):
            op_map = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
            op = op_map.get(type(node.op))
            if op is None:
                raise UnsupportedOp(f"operator {type(node.op).__name__} not supported")
            left = emit(node.left)
            right = emit(node.right)
            counter += 1
            statements.append(Statement(f"t{counter}", op, left, right))
            return f"t{counter}"
        raise UnsupportedOp(f"node {type(node).__name__} not supported")

    root = emit(tree)
    if statements and statements[-1].target == root:
        last = statements.pop()
        statements.append(Statement(OUTPUT_VARIABLE, last.op, last.left, last.right))
    else:
        # bare input or constant: normalize to out = root * 1
        statements.append(Statement(OUTPUT_VARIABLE, "*", root, 1))
    return FlatProgram(inputs=tuple(inputs), statements=tuple(statements))


# --- R1CS -------------------------------------------------------------------


@dataclass(frozen=True)
class R1CS:
    """Constraints (a_i, b_i, c_i) over the layout; s satisfies iff
    (s . a_i) * (s . b_i) - (s . c_i) = 0 for every i."""

    field: Field
    variables: tuple[str, ...]
    constraints: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]

    def satisfied_by(self, s: Sequence[FieldElement]) -> bool:
        p = self.field.prime
        sv = [self.field(x).value for x in s]
        for a, b, c in self.constraints:
            dot_a = sum(x * y for x, y in zip(a, sv)) % p
            dot_b = sum(x * y for x, y in zip(b, sv)) % p
            dot_c = sum(x * y for x, y in zip(c, sv)) % p
            if (dot_a * dot_b - dot_c) % p:
                return False
        return True


def compile_r1cs(program: FlatProgram, field: Field) -> R1CS:
    """One constraint per gate; additions fold into the a-vector against one."""
    layout = program.variables
    index = {name: i for i, name in enumerate(layout)}
    width = len(layout)

    def vector(operand: str | int) -> list[int]:
        vec = [0] * width
        if isinstance(operand, int):
            vec[0] = operand % field.prime
        else:
            if operand not in index:
                raise UnknownVariable(f"{operand} not in layout {layout}")
            vec[index[operand]] = 1
        return vec

    def add_vectors(u: list[int], v: list[int], sign: int = 1) -> list[int]:
        return [(x + sign * y) % field.prime for x, y in zip(u, v)]

    one_vec = vector(1)
    constraints = []
    for st in program.statements:
        tgt = vector(st.target)
        if st.op == "*":
            a, b, c = vector(st.left), vector(st.right), tgt
        elif st.op == "/":
            # target = left / right compiles to target * right = left
            a, b, c = tgt, vector(st.right), vector(st.left)
        elif st.op == "+":
            a, b, c = add_vectors(vector(st.left), vector(st.right)), one_vec, tgt
        elif st.op == "-":
            a, b, c = add_vectors(vector(st.left), vector(st.right), -1), one_vec, tgt
        else:
            raise UnsupportedOp(st.op)
        constraints.append((tuple(a), tuple(b), tuple(c)))
    return R1CS(field=field, variables=layout, constraints=tuple(constraints))


def witness(
    program: FlatProgram, field: Field, inputs: Mapping[str, int]
) -> list[FieldElement]:
    """Execute the program and return the full solution vector, s[0] = 1."""
    env: dict[str, FieldElement] = {ONE_VARIABLE: field.one}
    for name in program.inputs:
        if name not in inputs:
            raise UnknownVariable(f"missing value for input {name}")
        env[name] = field(inputs[name])

    def value(operand: str | int) -> FieldElement:
        if isinstance(operand, int):
            return field(operand)
        if operand not in env:
            raise UnknownVariable(f"{operand} used before assignment")
        return env[operand]

    for st in program.statements:
        left, right = value(st.left), value(st.right)
        if st.op == "+":
            env[st.target] = left + right
        elif st.op == "-":
            env[st.target] = left - right
        elif st.op == "*":
            env[st.target] = left * right
        elif st.op == "/":
            if right.value == 0:
                raise WitnessExecutionError(f"division by zero in {st}")
            env[st.target] = left / right
        else:
            raise UnsupportedOp(st.op)
    return [env[name] for name in program.variables]


# --- QAP --------------------------------------------------------------------


@dataclass(frozen=True)
class QAP:
    """Per-variable polynomials with A_i(n) = a[n][i], plus the target Z.

    Constraint indices start at 1, matching the interpolation points of the
    worked example; degree is the maximum degree of P = A*B - C.
    """

    field: Field
    a_polys: tuple[Polynomial, ...]
    b_polys: tuple[Polynomial, ...]
    c_polys: tuple[Polynomial, ...]
    z: Polynomial
    degree: int
    num_constraints: int


def build_qap(r1cs: R1CS) -> QAP:
    """The QAP of ``r1cs``: one ``LagrangeBasis`` over the constraint indices
    x = 1..m, built once, whose vanishing polynomial is the target Z, and
    each of the 3 x V column polynomials the sum of that basis weighted by
    the column's entries, so a column costs only its nonzero entries."""
    field = r1cs.field
    m = len(r1cs.constraints)
    basis = LagrangeBasis(field, range(1, m + 1))

    def column_polys(which: int) -> tuple[Polynomial, ...]:
        rows = [constraint[which] for constraint in r1cs.constraints]
        return tuple(
            basis.interpolate([row[var_idx] for row in rows])
            for var_idx in range(len(r1cs.variables))
        )

    return QAP(
        field=field,
        a_polys=column_polys(0),
        b_polys=column_polys(1),
        c_polys=column_polys(2),
        z=basis.vanishing,
        degree=2 * (m - 1),
        num_constraints=m,
    )


def assemble(qap: QAP, s: Sequence[FieldElement]) -> tuple[Polynomial, Polynomial]:
    """Combine witness and QAP into (P, H) with P = A*B - C = H*Z exactly.

    A nonzero remainder means the witness fails some constraint and raises
    WitnessUnsatisfied.
    """
    field = qap.field
    zero = Polynomial(field, [])

    def combine(polys: tuple[Polynomial, ...]) -> Polynomial:
        acc = zero
        for coeff, poly in zip(s, polys):
            acc = acc + poly * field(coeff)
        return acc

    big_a, big_b, big_c = combine(qap.a_polys), combine(qap.b_polys), combine(qap.c_polys)
    p = big_a * big_b - big_c
    h, remainder = p.divmod(qap.z)
    if not remainder.is_zero():
        raise WitnessUnsatisfied("P(x) is not divisible by Z(x); witness invalid")
    return p, h


# --- CRS, prove, verify -----------------------------------------------------


@dataclass(frozen=True)
class VerificationKey:
    """The CRS elements verification reads: g^Z(r) and g^alpha."""

    z_encrypted: GroupElement  # g^Z(r)
    alpha_encrypted: GroupElement  # g^alpha


@dataclass(frozen=True)
class CRS:
    """Encrypted powers of the evaluation point and their alpha-shifts.

    ``toxic`` retains (r, alpha) only when setup is explicitly asked to keep
    them for oracle cross-checks in tests; production setups zeroize.
    """

    group: PairingGroup
    powers: tuple[GroupElement, ...]  # g^(r^i), i = 0..d
    shifted_powers: tuple[GroupElement, ...]  # g^(alpha * r^i)
    vk: VerificationKey
    toxic: tuple[int, int] | None = None


@dataclass(frozen=True)
class SnarkProof:
    """g^P(r), g^(alpha P(r)), g^H(r); optionally marked as delta-shifted."""

    p: GroupElement
    p_shifted: GroupElement
    h: GroupElement
    delta_applied: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p.to_hex(),
                "p_shifted": self.p_shifted.to_hex(),
                "h": self.h.to_hex(),
                "delta_applied": self.delta_applied,
            }
        )


def setup(
    qap: QAP, group: PairingGroup, rng, retain_toxic_waste: bool = False
) -> CRS:
    """Trusted setup: sample (r, alpha), publish encrypted powers, drop secrets."""
    if group.order != qap.field.prime:
        raise ValueError("QAP field prime must equal the group order")
    r = rng.randrange(1, group.order)
    alpha = rng.randrange(1, group.order)
    powers = []
    shifted = []
    r_pow = 1
    for _ in range(qap.degree + 1):
        powers.append(group.encrypt(r_pow))
        shifted.append(group.encrypt(alpha * r_pow % group.order))
        r_pow = r_pow * r % group.order
    z_at_r = qap.z(qap.field(r)).value
    vk = VerificationKey(
        z_encrypted=group.encrypt(z_at_r), alpha_encrypted=group.encrypt(alpha)
    )
    return CRS(
        group=group,
        powers=tuple(powers),
        shifted_powers=tuple(shifted),
        vk=vk,
        toxic=(r, alpha) if retain_toxic_waste else None,
    )


def encrypt_eval(poly: Polynomial, powers: Sequence[GroupElement], group: PairingGroup) -> GroupElement:
    """g^poly(r) from encrypted powers alone: product of powers[i]^coeff_i."""
    if len(poly.coeffs) > len(powers):
        raise ValueError("polynomial degree exceeds the CRS")
    acc = group.identity
    for coeff, power in zip(poly.coeffs, powers):
        acc = acc * power.pow_clear(coeff.value)
    return acc


def prove(crs: CRS, qap: QAP, s: Sequence[FieldElement]) -> SnarkProof:
    """Build the proof from CRS elements only; never touches r or alpha."""
    p_poly, h_poly = assemble(qap, s)
    return SnarkProof(
        p=encrypt_eval(p_poly, crs.powers, crs.group),
        p_shifted=encrypt_eval(p_poly, crs.shifted_powers, crs.group),
        h=encrypt_eval(h_poly, crs.powers, crs.group),
    )


def roots_check(vk: VerificationKey, proof: SnarkProof, group: PairingGroup) -> bool:
    """The divisibility check alone: e(g^p, g) == e(g^Z(r), g^h)."""
    return group.pairing(proof.p, group.generator) == group.pairing(vk.z_encrypted, proof.h)


def shift_check(vk: VerificationKey, proof: SnarkProof, group: PairingGroup) -> bool:
    """The knowledge check: e(g^p, g^alpha) == e(g^p', g)."""
    return group.pairing(proof.p, vk.alpha_encrypted) == group.pairing(
        proof.p_shifted, group.generator
    )


def verify(vk: VerificationKey, proof: SnarkProof, group: PairingGroup) -> bool:
    """Accept iff both pairing equations hold."""
    return roots_check(vk, proof, group) and shift_check(vk, proof, group)


def forge_without_kea(vk: VerificationKey, group: PairingGroup, rng) -> SnarkProof:
    """Forge a pair that passes the roots check using only g^Z(r).

    Picks a random s and returns (p = (g^Z(r))^s, h = g^s): the divisibility
    equation holds by construction, but no correctly alpha-shifted p' can be
    produced without the shifted powers, so full verification rejects.
    """
    s = rng.randrange(1, group.order)
    return SnarkProof(
        p=vk.z_encrypted.pow_clear(s),
        p_shifted=group.generator.pow_clear(s),
        h=group.generator.pow_clear(s),
    )


def zk_shift(proof: SnarkProof, delta: int, group: PairingGroup) -> SnarkProof:
    """Blind a proof by raising every component to the same nonzero delta.

    Both verification equations are homogeneous in delta, so the shifted
    proof verifies iff the original does, while its elements are fresh group
    elements unrelated (to an observer) to the originals.
    """
    if delta % group.order == 0:
        raise DegenerateShift("delta must be nonzero modulo the group order")
    return SnarkProof(
        p=proof.p.pow_clear(delta),
        p_shifted=proof.p_shifted.pow_clear(delta),
        h=proof.h.pow_clear(delta),
        delta_applied=True,
    )


# --- end-to-end convenience --------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    """Every intermediate of ``run_pipeline``, from the flat program to the verdict."""

    program: FlatProgram
    r1cs: R1CS
    solution: list[FieldElement]
    qap: QAP
    p_poly: Polynomial
    h_poly: Polynomial
    crs: CRS
    proof: SnarkProof
    accepted: bool

    @property
    def output(self) -> FieldElement:
        return self.solution[-1]


def run_pipeline(
    source: str,
    inputs: Mapping[str, int],
    group: PairingGroup,
    rng,
) -> PipelineResult:
    """Flatten, compile, solve, set up, prove and verify in one pass; the
    program takes the names of ``inputs`` in sorted order."""
    program = flatten(source, inputs=tuple(sorted(inputs)))
    field = group.field
    r1cs = compile_r1cs(program, field)
    s = witness(program, field, inputs)
    qap = build_qap(r1cs)
    p_poly, h_poly = assemble(qap, s)
    crs = setup(qap, group, rng)
    proof = prove(crs, qap, s)
    return PipelineResult(
        program=program,
        r1cs=r1cs,
        solution=s,
        qap=qap,
        p_poly=p_poly,
        h_poly=h_poly,
        crs=crs,
        proof=proof,
        accepted=verify(crs.vk, proof, group),
    )
