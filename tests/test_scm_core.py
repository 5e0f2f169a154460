"""Core SCM machinery: validation, ordering, and the three exact
distribution operators."""

from dataclasses import make_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmlab import (
    EMPTY_INTERVENTION,
    ExactDist,
    Intervention,
    Mechanism,
    NoiseDist,
    Scm,
    all_interventions,
    apply_do,
    counterfactual_triple,
    int_all,
    interventional,
    observational,
    topo_order,
    validate,
)
from scmlab import gates
from scmlab.errors import (
    BadPositionError,
    CycleError,
    NTooLargeError,
    SupportTooLargeError,
)

from conftest import small_scms

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

FAIR = NoiseDist.bernoulli(HALF)
CONST = NoiseDist.constant()


def chain(n: int) -> Scm:
    """X_0 fair, X_k copies X_{k-1}."""
    mechanisms = [Mechanism(gates.BERN_SOURCE, (), FAIR)]
    for k in range(1, n):
        mechanisms.append(Mechanism(gates.COPY, (k - 1,), CONST))
    return Scm(n, tuple(mechanisms))


def independent(n: int) -> Scm:
    return Scm(n, tuple(Mechanism(gates.BERN_SOURCE, (), FAIR) for _ in range(n)))


class TestNoiseDist:
    def test_bernoulli_shapes(self):
        assert NoiseDist.bernoulli(HALF) == NoiseDist((0, 1), (HALF, HALF))
        assert NoiseDist.bernoulli(0) == NoiseDist((0,), (Fraction(1),))
        assert NoiseDist.bernoulli(1) == NoiseDist((1,), (Fraction(1),))

    def test_coercion(self):
        d = NoiseDist([0, 1], ["1/3", "2/3"])
        assert d.probs == (Fraction(1, 3), Fraction(2, 3))
        assert isinstance(d.support, tuple)

    @given(st.lists(st.integers(-3, 3), max_size=4), st.lists(st.fractions(), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_repr_is_the_generated_one(self, support, probs):
        # the repr a dataclass of the same two fields generates, for any
        # law, valid or not, of any length
        plain = make_dataclass("NoiseDist", ["support", "probs"])
        noise = NoiseDist(support, probs)
        assert repr(noise) == repr(plain(noise.support, noise.probs))

    @given(small_scms())
    @settings(max_examples=50, deadline=None)
    def test_a_models_repr_reads_back(self, scm):
        names = {"Scm": Scm, "Mechanism": Mechanism, "NoiseDist": NoiseDist, "Fraction": Fraction}
        assert eval(repr(scm), names) == scm

    def test_a_mass_too_long_to_write_is_a_placeholder(self):
        # past the interpreter's 4300-digit limit for int-to-text conversion,
        # where the generated repr raised
        noise = NoiseDist.bernoulli(Fraction(1, 10**4400))
        with pytest.raises(ValueError):
            repr(noise.probs)
        text = repr(noise)
        assert text == (
            "NoiseDist(support=(0, 1), probs=("
            "<Fraction too long to write: 14617-bit numerator, 14617-bit denominator>, "
            "<Fraction too long to write: 1-bit numerator, 14617-bit denominator>))"
        )
        scm = Scm(1, (Mechanism(gates.BERN_SOURCE, (), noise),))
        assert repr(scm) == (
            f"Scm(n=1, mechanisms=(Mechanism(gate='BERN_SOURCE', parents=(), noise={text}),))"
        )


class TestExactDist:
    def test_accessors(self):
        d = ExactDist(2, {"00": HALF, "11": HALF})
        assert d.p("00") == HALF
        assert d.p("01") == 0
        assert d.prob_bit(0, 0) == HALF
        assert d.prob_bit(1, 1) == HALF
        assert d.outcomes() == ["00", "11"]

    def test_prob_bit_range(self):
        d = ExactDist(2, {"00": Fraction(1)})
        with pytest.raises(BadPositionError):
            d.prob_bit(2, 0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ExactDist(1, {"0": HALF, "1": Fraction(1, 3)})

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            ExactDist(2, {"0": Fraction(1)})
        with pytest.raises(ValueError):
            ExactDist(1, {"x": Fraction(1)})

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ExactDist(1, {"0": Fraction(0), "1": Fraction(1)})


class TestEquality:
    def test_a_dist_is_not_equal_to_a_non_dist(self):
        dist = ExactDist(1, {"1": Fraction(1)})
        assert dist.__eq__(1) is NotImplemented
        assert (dist == 1) is False and (dist != "1=1/1") is True
        assert dist == observational(Scm(1, (Mechanism(gates.CONST1, (), CONST),)))


class TestValidate:
    def test_families_are_valid(self):
        assert validate(chain(3)) == []
        assert validate(independent(2)) == []

    def test_cycle_flagged(self):
        scm = Scm(
            2,
            (
                Mechanism(gates.COPY, (1,), CONST),
                Mechanism(gates.COPY, (0,), CONST),
            ),
        )
        assert any(issue.startswith("CYCLE") for issue in validate(scm))

    def test_self_loop_flagged(self):
        scm = Scm(1, (Mechanism(gates.COPY, (0,), CONST),))
        assert any(issue.startswith("CYCLE") for issue in validate(scm))

    def test_bad_parent_flagged(self):
        out_of_range = Scm(1, (Mechanism(gates.AND, (3,), CONST),))
        assert any(i.startswith("BAD_PARENT") for i in validate(out_of_range))
        duplicated = Scm(
            2,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.AND, (0, 0), CONST),
            ),
        )
        assert any(i.startswith("BAD_PARENT") for i in validate(duplicated))

    def test_bad_noise_flagged(self):
        does_not_sum = Scm(
            1,
            (
                Mechanism(
                    gates.BERN_SOURCE,
                    (),
                    NoiseDist((0, 1), (HALF, Fraction(1, 3))),
                ),
            ),
        )
        assert any(i.startswith("BAD_NOISE") for i in validate(does_not_sum))
        non_bit_for_xor = Scm(
            1,
            (
                Mechanism(
                    gates.XOR_NOISE,
                    (),
                    NoiseDist((0, 2), (HALF, HALF)),
                ),
            ),
        )
        assert any(i.startswith("BAD_NOISE") for i in validate(non_bit_for_xor))
        empty_support = Scm(1, (Mechanism(gates.CONST0, (), NoiseDist((), ())),))
        assert any(i.startswith("BAD_NOISE") for i in validate(empty_support))
        zero_probability = Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist((0, 1), (0, 1))),))
        assert "BAD_NOISE: variable 0: probabilities must be positive" in validate(zero_probability)

    def test_bad_gate_flagged(self):
        unknown = Scm(1, (Mechanism("NAND", (), CONST),))
        assert any(i.startswith("BAD_GATE") for i in validate(unknown))
        bad_arity = Scm(
            2,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.COPY, (), CONST),
            ),
        )
        assert any(i.startswith("BAD_GATE") for i in validate(bad_arity))

    def test_shape_mismatch_flagged(self):
        scm = Scm(2, (Mechanism(gates.BERN_SOURCE, (), FAIR),))
        assert any(i.startswith("BAD_SHAPE") for i in validate(scm))
        assert validate(Scm(0, ())) == ["BAD_SHAPE: n must be at least 1, got 0"]

    def test_more_mechanisms_than_variables(self):
        # the extra mechanism lists an earlier parent: reported, not indexed
        extra = Scm(1, (Mechanism(gates.BERN_SOURCE, (), FAIR), Mechanism(gates.COPY, (0,), CONST)))
        assert validate(extra) == ["BAD_SHAPE: 2 mechanisms for 1 variables"]
        with pytest.raises(ValueError, match="^2 mechanisms for 1 variables$"):
            observational(extra)
        longer = Scm(2, chain(3).mechanisms)
        assert validate(longer) == ["BAD_SHAPE: 3 mechanisms for 2 variables"]
        with pytest.raises(ValueError, match="^3 mechanisms for 2 variables$"):
            observational(longer)

    def test_fewer_mechanisms_than_variables(self):
        short = Scm(2, (Mechanism(gates.BERN_SOURCE, (), FAIR),))
        assert validate(short) == ["BAD_SHAPE: 1 mechanisms for 2 variables"]
        assert topo_order(short) == [0, 1]
        with pytest.raises(ValueError, match="^1 mechanisms for 2 variables$"):
            observational(short)


class TestTopoOrder:
    def test_chain(self):
        assert topo_order(chain(3)) == [0, 1, 2]

    def test_edgeless_ascending(self):
        assert topo_order(independent(3)) == [0, 1, 2]

    def test_tie_break_is_ascending(self):
        # diamond: 3 depends on 1 and 2, both depend on 0
        scm = Scm(
            4,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.COPY, (0,), CONST),
                Mechanism(gates.COPY, (0,), CONST),
                Mechanism(gates.AND, (1, 2), CONST),
            ),
        )
        assert topo_order(scm) == [0, 1, 2, 3]

    def test_reversed_chain(self):
        scm = Scm(
            2,
            (
                Mechanism(gates.COPY, (1,), CONST),
                Mechanism(gates.BERN_SOURCE, (), FAIR),
            ),
        )
        assert topo_order(scm) == [1, 0]

    def test_orders_only_the_n_variables(self):
        scm = Scm(2, (*chain(2).mechanisms, Mechanism(gates.COPY, (1,), CONST)))
        assert topo_order(scm) == [0, 1]
        scm = Scm(2, (Mechanism(gates.COPY, (1,), CONST), Mechanism(gates.BERN_SOURCE, (), FAIR),
                      Mechanism(gates.COPY, (0,), CONST)))
        assert topo_order(scm) == [1, 0]

    def test_cycle_raises(self):
        scm = Scm(
            2,
            (
                Mechanism(gates.COPY, (1,), CONST),
                Mechanism(gates.COPY, (0,), CONST),
            ),
        )
        with pytest.raises(CycleError):
            topo_order(scm)


class TestObservational:
    def test_chain_two_point_law(self):
        assert observational(chain(3)) == ExactDist(
            3, {"000": HALF, "111": HALF}
        )

    def test_single_fair_bit(self):
        assert observational(chain(1)) == ExactDist(1, {"0": HALF, "1": HALF})

    def test_biased_source(self):
        scm = Scm(1, (Mechanism(gates.BERN_SOURCE, (), NoiseDist.bernoulli(Fraction(1, 3))),))
        assert observational(scm) == ExactDist(
            1, {"0": Fraction(2, 3), "1": Fraction(1, 3)}
        )

    def test_neg_chain(self):
        scm = Scm(
            2,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.NEG, (0,), CONST),
            ),
        )
        assert observational(scm) == ExactDist(2, {"01": HALF, "10": HALF})

    def test_parity_of_two_fair_bits(self):
        scm = Scm(
            3,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.PARITY, (0, 1), CONST),
            ),
        )
        assert observational(scm) == ExactDist(
            3, {"000": QUARTER, "011": QUARTER, "101": QUARTER, "110": QUARTER}
        )

    def test_constant_gates_point_mass(self):
        scm = Scm(
            2,
            (
                Mechanism(gates.CONST1, (), CONST),
                Mechanism(gates.CONST0, (), CONST),
            ),
        )
        assert observational(scm) == ExactDist(2, {"10": Fraction(1)})

    def test_support_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("SCMLAB_SUPPORT_CAP", "3")
        with pytest.raises(SupportTooLargeError):
            observational(independent(2))


class TestApplyDo:
    def test_empty_is_identity(self):
        scm = chain(3)
        assert apply_do(scm, EMPTY_INTERVENTION) == scm

    def test_replaces_mechanism_with_constant(self):
        scm = apply_do(chain(3), Intervention.of({1: 0}))
        assert scm.mechanisms[1] == Mechanism(gates.CONST0, (), NoiseDist.constant())
        assert scm.mechanisms[2] == chain(3).mechanisms[2]

    def test_out_of_range_rejected(self):
        with pytest.raises(BadPositionError):
            apply_do(chain(2), Intervention.of({5: 0}))

    def test_non_bit_value_rejected(self):
        with pytest.raises(ValueError):
            apply_do(chain(2), Intervention.of({0: 2}))

    def test_a_variable_listed_twice_is_rejected(self):
        # a dict of the pairs would keep the last one and answer do(X0=0)
        with pytest.raises(ValueError, match="lists a variable twice"):
            interventional(chain(2), Intervention(((0, 1), (0, 0))))
        with pytest.raises(ValueError, match="lists a variable twice"):
            apply_do(chain(2), Intervention(((1, 0), (1, 0))))


class TestInterventional:
    def test_chain_do_middle(self):
        dist = interventional(chain(3), Intervention.of({1: 0}))
        assert dist == ExactDist(3, {"000": HALF, "100": HALF})
        assert dist.prob_bit(2, 0) == 1
        assert dist.prob_bit(0, 0) == HALF

    def test_sink_intervention_keeps_upstream_law(self):
        obs = observational(chain(3))
        dist = interventional(chain(3), Intervention.of({2: 1}))
        for position in (0, 1):
            assert dist.prob_bit(position, 0) == obs.prob_bit(position, 0)
        assert dist.prob_bit(2, 1) == 1

    def test_do_all_variables_is_point_mass(self):
        dist = interventional(chain(3), Intervention.of({0: 1, 1: 0, 2: 1}))
        assert dist == ExactDist(3, {"101": Fraction(1)})


class TestCounterfactual:
    def test_xor_module_coupling(self):
        # X fair, Y = X xor fresh fair noise; intervene on X
        scm = Scm(
            2,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.XOR_NOISE, (0,), FAIR),
            ),
        )
        triple = counterfactual_triple(scm, 0)
        assert triple == ExactDist(
            6,
            {
                "000011": QUARTER,
                "010110": QUARTER,
                "110011": QUARTER,
                "100110": QUARTER,
            },
        )

    def test_fresh_noise_worlds_agree(self):
        # Y independent of X: both intervention worlds give the same Y
        scm = Scm(
            2,
            (
                Mechanism(gates.BERN_SOURCE, (), FAIR),
                Mechanism(gates.BERN_SOURCE, (), FAIR),
            ),
        )
        triple = counterfactual_triple(scm, 0)
        agree = sum(
            (w for outcome, w in triple.mass.items() if outcome[3] == outcome[5]),
            Fraction(0),
        )
        assert agree == 1

    def test_bad_index(self):
        with pytest.raises(BadPositionError):
            counterfactual_triple(chain(2), 2)


class TestIntAll:
    def test_single_variable_enumeration(self):
        entries = int_all(chain(1))
        assert [iv.assignments for iv, _ in entries] == [(), ((0, 0),), ((0, 1),)]
        assert entries[0][1] == ExactDist(1, {"0": HALF, "1": HALF})
        assert entries[1][1] == ExactDist(1, {"0": Fraction(1)})
        assert entries[2][1] == ExactDist(1, {"1": Fraction(1)})

    def test_two_variable_count_and_order(self):
        entries = int_all(independent(2))
        assert len(entries) == 9
        keys = [iv.assignments for iv, _ in entries]
        assert keys == [
            (),
            ((0, 0),),
            ((0, 1),),
            ((1, 0),),
            ((1, 1),),
            ((0, 0), (1, 0)),
            ((0, 0), (1, 1)),
            ((0, 1), (1, 0)),
            ((0, 1), (1, 1)),
        ]
        assert entries[5][1] == ExactDist(2, {"00": Fraction(1)})

    def test_all_interventions_count(self):
        assert sum(1 for _ in all_interventions(3)) == 27

    def test_cap_enforced(self, monkeypatch):
        with pytest.raises(NTooLargeError):
            int_all(independent(13))
        # a lowered environment cap refuses smaller models too
        monkeypatch.setenv("SCMLAB_INTALL_NMAX", "2")
        with pytest.raises(NTooLargeError):
            int_all(independent(3))


@given(small_scms())
@settings(max_examples=60, deadline=None)
def test_empty_intervention_matches_observational(scm):
    assert interventional(scm, EMPTY_INTERVENTION) == observational(scm)


@given(small_scms())
@settings(max_examples=40, deadline=None)
def test_counterfactual_blocks_marginalize_correctly(scm):
    from scmlab import marginal

    obs = observational(scm)
    n = scm.n
    for i in range(n):
        triple = counterfactual_triple(scm, i)
        assert marginal(triple, range(n)) == obs
        assert marginal(triple, range(n, 2 * n)) == interventional(
            scm, Intervention.of({i: 0})
        )
        assert marginal(triple, range(2 * n, 3 * n)) == interventional(
            scm, Intervention.of({i: 1})
        )


@given(small_scms(max_n=3))
@settings(max_examples=25, deadline=None)
def test_int_all_starts_with_observational(scm):
    entries = int_all(scm)
    assert entries[0][0] == EMPTY_INTERVENTION
    assert entries[0][1] == observational(scm)
    assert len(entries) == 3**scm.n


@given(small_scms())
@settings(max_examples=40, deadline=None)
def test_intervened_values_are_forced(scm):
    dist = interventional(scm, Intervention.of({0: 1}))
    assert dist.prob_bit(0, 1) == 1
