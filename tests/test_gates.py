"""Gate schema truth tables and arity contracts, read through both kernel
passes: every table entry is the output of one gated variable fed by
constant parents, computed by the trie pass (`observational`) and by the
parallel-worlds pass (`cf1`), which must agree."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scmlab import gates
from scmlab.errors import ArityMismatchError
from scmlab.scm_core import Mechanism, NoiseDist, Scm, cf1, observational


def gated(gate, inputs, noise):
    """Variables 0..k-1 are constants carrying `inputs`; variable k runs
    `gate` on all of them, its noise fixed at the one symbol `noise`."""
    k = len(inputs)
    parents = [
        Mechanism(gates.CONST1 if bit else gates.CONST0, (), NoiseDist.constant())
        for bit in inputs
    ]
    return Scm(k + 1, (*parents, Mechanism(gate, tuple(range(k)), NoiseDist.constant(noise))))


def gate_output(gate, inputs, noise):
    """The gated variable's output bit, from the one outcome of each pass:
    the observational law and the factual world of its CF1 triple."""
    scm = gated(gate, inputs, noise)
    k = len(inputs)
    (outcome,) = observational(scm).outcomes()
    (triple,) = cf1(scm)[k].outcomes()
    assert triple[: k + 1] == outcome
    return int(outcome[k])


def refused(gate, inputs, noise, error):
    """Both passes refuse the gated model with `error`."""
    scm = gated(gate, inputs, noise)
    with pytest.raises(error):
        observational(scm)
    with pytest.raises(error):
        cf1(scm)


def test_constants_ignore_everything():
    assert gate_output(gates.CONST0, [1, 1, 1], 7) == 0
    assert gate_output(gates.CONST1, [], 0) == 1


def test_copy_and_neg():
    assert gate_output(gates.COPY, [0], 0) == 0
    assert gate_output(gates.COPY, [1], 0) == 1
    assert gate_output(gates.NEG, [0], 0) == 1
    assert gate_output(gates.NEG, [1], 0) == 0


def test_and_or_parity_tables():
    assert gate_output(gates.AND, [1, 1, 1], 0) == 1
    assert gate_output(gates.AND, [1, 0, 1], 0) == 0
    assert gate_output(gates.OR, [0, 0], 0) == 0
    assert gate_output(gates.OR, [0, 1], 0) == 1
    assert gate_output(gates.PARITY, [1, 0, 1], 0) == 0
    assert gate_output(gates.PARITY, [1, 1, 1], 0) == 1


def test_empty_arity_conventions():
    # AND of nothing is 1, OR of nothing is 0, PARITY of nothing is 0
    assert gate_output(gates.AND, [], 0) == 1
    assert gate_output(gates.OR, [], 0) == 0
    assert gate_output(gates.PARITY, [], 0) == 0


def test_noise_reading_gates():
    assert gate_output(gates.BERN_SOURCE, [], 1) == 1
    assert gate_output(gates.BERN_SOURCE, [], 0) == 0
    assert gate_output(gates.XOR_NOISE, [1], 1) == 0
    assert gate_output(gates.XOR_NOISE, [1], 0) == 1
    assert gate_output(gates.XOR_NOISE, [], 1) == 1
    assert gate_output(gates.XOR_NOISE, [1, 1], 1) == 1


def test_arity_contract_violations():
    refused(gates.COPY, [0, 1], 0, ArityMismatchError)
    refused(gates.NEG, [], 0, ArityMismatchError)
    refused(gates.BERN_SOURCE, [1], 0, ArityMismatchError)
    # the kernel's error carries the text `validate` reports
    with pytest.raises(ArityMismatchError) as info:
        observational(gated(gates.NEG, [], 0))
    assert str(info.value) == gates.arity_issue(gates.NEG, 0) == "NEG takes exactly 1 parent(s), got 0"


def test_non_bit_noise_rejected():
    refused(gates.XOR_NOISE, [1], 2, ValueError)
    refused(gates.BERN_SOURCE, [], 5, ValueError)


def test_unknown_gate_rejected():
    refused("NAND", [1, 1], 0, ValueError)
    assert gates.arity_issue("NAND", 2) is not None


def test_arity_issue_contract():
    assert gates.arity_issue(gates.COPY, 1) is None
    assert gates.arity_issue(gates.COPY, 0) is not None
    assert gates.arity_issue(gates.BERN_SOURCE, 0) is None
    assert gates.arity_issue(gates.BERN_SOURCE, 2) is not None
    assert gates.arity_issue(gates.AND, 5) is None


@given(st.lists(st.integers(0, 1), max_size=6), st.integers(0, 1))
def test_gate_identities(bits, noise):
    assert gate_output(gates.AND, bits, noise) == (0 if 0 in bits else 1)
    assert gate_output(gates.OR, bits, noise) == (1 if 1 in bits else 0)
    parity = sum(bits) % 2
    assert gate_output(gates.PARITY, bits, noise) == parity
    assert gate_output(gates.XOR_NOISE, bits, noise) == parity ^ noise
