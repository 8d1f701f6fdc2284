"""Rule constructors, catalyst/inhibitor transformers, lac operon model."""

import random

import pytest

from tscls import (OsmosisParams, PTermVar, TypeEnv, add_both, add_catalyst,
                   add_inhibitor, complexation_rule, decomplexation_rule,
                   evaluate, lac_operon_model, lac_operon_source,
                   osmosis_rules, parse_model, parse_term, print_model,
                   rule_violations, state_change_rule, transitions,
                   validate_model)
from conftest import random_term

ENV = TypeEnv()


def T(text):
    return parse_term(text)


def rates_at(state_text, rules):
    return [tr.rate for tr in transitions(T(state_text), rules, ENV, {})]


class TestStateChange:
    def test_rate_counts_bare_occurrences(self):
        rule = state_change_rule("a", "b", 0.5)
        assert rates_at("<m>[ a | a | a ]", [rule]) == [1.5]

    def test_sequences_do_not_count(self):
        rule = state_change_rule("a", "b", 0.5)
        assert rates_at("<m>[ a | a.a ]", [rule]) == [0.5]

    def test_requires_a_bare_occurrence(self):
        rule = state_change_rule("a", "b", 0.5)
        assert rates_at("<m>[ a.a | c ]", [rule]) == []

    def test_target(self):
        rule = state_change_rule("a", "b", 2.0)
        (tr,) = transitions(T("a | a | c"), [rule], ENV, {})
        assert tr.target == T("a | b | c") and tr.rate == 4.0

    def test_default_id(self):
        assert state_change_rule("a", "b", 1.0).id == "a_to_b"
        assert state_change_rule("a", "b", 1.0, rule_id="R9").id == "R9"


class TestComplexation:
    def test_rate_is_product_of_counts(self):
        rule = complexation_rule("a", "b", "c", 0.5)
        assert rates_at("a | a | b | b | b", [rule]) == [2 * 3 * 0.5]

    def test_target_consumes_one_of_each(self):
        rule = complexation_rule("a", "b", "c", 1.0)
        (tr,) = transitions(T("a | b"), [rule], ENV, {})
        assert tr.target == T("c")

    def test_decomplexation_inverse(self):
        rule = decomplexation_rule("c", "a", "b", 0.25)
        (tr,) = transitions(T("c"), [rule], ENV, {})
        assert tr.target == T("a | b") and tr.rate == 0.25

    def test_random_states_match_mass_action(self, rng):
        rule = complexation_rule("a", "b", "c", 1.25)
        for _ in range(40):
            na, nb = rng.randrange(4), rng.randrange(4)
            parts = ["a"] * na + ["b"] * nb + ["z"] * rng.randrange(3)
            rng.shuffle(parts)
            state = T(" | ".join(parts) if parts else "eps")
            got = [tr.rate for tr in transitions(state, [rule], ENV, {})]
            want = [na * nb * 1.25] if na and nb else []
            assert got == want


PARAMS = OsmosisParams(surface=1.0, volume=1.0, va=1.0, vb=1.0, k=1.0)


class TestOsmosisParams:
    @pytest.mark.parametrize("field,value", [
        ("surface", 0.0), ("volume", -1.0), ("va", 0.0), ("vb", -2.0),
        ("k", 0.0), ("kc", 0.0),
    ])
    def test_rejects_nonpositive(self, field, value):
        kwargs = dict(surface=1.0, volume=1.0, va=1.0, vb=1.0, k=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            OsmosisParams(**kwargs)


class TestOsmosis:
    def test_only_downhill_direction_enabled(self):
        out, inn = osmosis_rules("a", "b", PARAMS)
        trs = transitions(T("a | <s>[ a | 4 * b ]"), [out, inn], ENV, {})
        assert [(tr.rule_id, tr.rate) for tr in trs] == [("a_out", 0.8)]
        assert trs[0].target == T("2 * a | <s>[ 4 * b ]")

    def test_inward_when_gradient_reversed(self):
        out, inn = osmosis_rules("a", "b", PARAMS)
        trs = transitions(T("a | 4 * b | <s>[ a ]"), [out, inn], ENV, {})
        assert [(tr.rule_id, tr.rate) for tr in trs] == [("a_in", 0.8)]
        assert trs[0].target == T("4 * b | <s>[ a | a ]")

    def test_antisymmetric_rates(self):
        out, inn = osmosis_rules("a", "b", PARAMS)
        for counts in ({"n1": 0, "n2": 4, "n3": 0, "n4": 0},
                       {"n1": 3, "n2": 1, "n3": 2, "n4": 7}):
            fwd = evaluate(out.rate, counts, {})
            bwd = evaluate(inn.rate, counts, {})
            assert fwd == -bwd

    def test_equal_concentrations_silent(self):
        out, inn = osmosis_rules("a", "b", PARAMS)
        # no b anywhere: both directions match with difference exactly 0
        assert transitions(T("a | <s>[ a ]"), [out, inn], ENV, {}) == ()
        # equal b fractions inside and outside
        state = T("2 * b | <s>[ a | 2 * b ]")
        assert transitions(state, [out, inn], ENV, {}) == ()

    def test_catalysed_membrane_factor(self):
        params = OsmosisParams(1.0, 1.0, 1.0, 1.0, 1.0, kc=3.0)
        out, inn = osmosis_rules("a", "b", params, catalyst="c")
        trs = transitions(T("a | <s.c.c>[ a | 4 * b ]"), [out, inn], ENV, {})
        assert [(tr.rule_id, tr.rate) for tr in trs] \
            == [("a_out", 0.8 * (2 * 3.0 + 1))]

    def test_inhibited_membrane_divisor(self):
        params = OsmosisParams(1.0, 1.0, 1.0, 1.0, 1.0, kc=2.0)
        out, inn = osmosis_rules("a", "b", params, inhibitor="c")
        trs = transitions(T("a | <s.c.c>[ a | 4 * b ]"), [out, inn], ENV, {})
        assert [tr.rate for tr in trs] == [0.8 / (2 * 2.0)]
        bare = transitions(T("a | <s>[ a | 4 * b ]"), [out, inn], ENV, {})
        assert [tr.rate for tr in bare] == [0.8]

    def test_catalyst_and_inhibitor_exclusive(self):
        params = OsmosisParams(1.0, 1.0, 1.0, 1.0, 1.0, kc=1.0)
        with pytest.raises(ValueError):
            osmosis_rules("a", "b", params, catalyst="c", inhibitor="d")

    def test_modes_require_kc(self):
        with pytest.raises(ValueError):
            osmosis_rules("a", "b", PARAMS, catalyst="c")
        with pytest.raises(ValueError):
            osmosis_rules("a", "b", PARAMS, inhibitor="c")

    def test_ids(self):
        out, inn = osmosis_rules("a", "b", PARAMS)
        assert (out.id, inn.id) == ("a_out", "a_in")
        out, inn = osmosis_rules("a", "b", PARAMS, ids=("fwd", "bwd"))
        assert (out.id, inn.id) == ("fwd", "bwd")


class TestTransformers:
    def test_inhibitor_divides_by_count(self):
        rule = add_inhibitor(state_change_rule("a", "b", 1.0), "c", 1.0)
        assert rates_at("a | a", [rule]) == [2.0]
        assert rates_at("a | a | c", [rule]) == [2.0]
        assert rates_at("a | a | c | c", [rule]) == [1.0]

    def test_catalyst_multiplies(self):
        rule = add_catalyst(state_change_rule("a", "b", 1.0), "c", 2.0)
        assert rates_at("a | a", [rule]) == [2.0]
        assert rates_at("a | a | c", [rule]) == [2.0 * 3.0]

    def test_zero_catalyst_is_bitwise_neutral(self, rng):
        plain = state_change_rule("a", "b", 0.7)
        boosted = add_catalyst(plain, "q", 5.0)
        for _ in range(30):
            state = random_term(rng)
            before = transitions(state, [plain], ENV, {})
            after = transitions(state, [boosted], ENV, {})
            assert [(tr.path, tr.target, tr.rate) for tr in before] \
                == [(tr.path, tr.target, tr.rate) for tr in after]

    def test_both_neutral_without_either_element(self):
        plain = state_change_rule("a", "b", 0.7)
        both = add_both(plain, "c", "d", 2.0, 3.0)
        assert rates_at("a | a | a", [both]) == rates_at("a | a | a", [plain])
        assert rates_at("a | c | d | d", [both]) \
            == [0.7 * (1 * 2.0 + 1) / (2 * 3.0)]

    def test_fresh_names_avoid_collisions(self):
        rule = state_change_rule("a", "b", 1.0)
        twice = add_catalyst(add_catalyst(rule, "c", 1.0), "d", 1.0)
        names = twice.count_names()
        assert len(set(names)) == len(list(names))
        assert rule_violations(twice, {}) == []

    def test_frame_variable_added_when_missing(self):
        from tscls import Num, Pattern, RewriteRule, lits
        bare = RewriteRule("flip", Pattern((lits("a"),)),
                           Pattern((lits("b"),)), Num(1.0), ())
        boosted = add_catalyst(bare, "c", 2.0)
        assert isinstance(boosted.lhs.items[-1], PTermVar)
        assert isinstance(boosted.rhs.items[-1], PTermVar)
        assert rule_violations(boosted, {}) == []
        assert rates_at("a | c | z", [boosted]) == [3.0]

    def test_constructed_rules_are_valid(self):
        params = OsmosisParams(2.0, 3.0, 1.0, 0.5, 1.5, kc=0.5)
        built = [
            state_change_rule("a", "b", 1.0),
            complexation_rule("a", "b", "c", 1.0),
            decomplexation_rule("c", "a", "b", 1.0),
            *osmosis_rules("a", "b", params),
            *osmosis_rules("a", "b", params, catalyst="c"),
            *osmosis_rules("a", "b", params, inhibitor="c"),
            add_both(state_change_rule("a", "b", 1.0), "c", "d", 1.0, 2.0),
        ]
        for rule in built:
            assert rule_violations(rule, {}) == []


class TestLacOperon:
    def test_model_is_valid(self):
        model = lac_operon_model()
        assert validate_model(model) == []
        assert len(model.rules) == 15
        assert [r.id for r in model.rules] == [f"R{i}" for i in range(1, 16)]

    def test_elements(self):
        want = {"lacI", "lacP", "lacO", "lacZ", "lacY", "lacA", "PP", "RO",
                "Irna", "Rna", "polym", "repr", "betagal", "perm", "transac",
                "LACT", "RLACT", "GLU", "GAL", "m"}
        assert lac_operon_model().elements() == want

    def test_initial_state_shape(self):
        model = lac_operon_model()
        text = print_model(model)
        assert "init: 100 * LACT | <m>[ 30 * polym | 100 * repr" in text

    def test_fixture_file_matches_source(self):
        with open("models/lac_operon.tscls", encoding="utf-8") as fh:
            assert fh.read() == lac_operon_source()

    def test_source_round_trips(self):
        source = lac_operon_source()
        model = parse_model(source)
        assert validate_model(model) == []
        assert print_model(model) == source
        direct = lac_operon_model()
        assert model.init == direct.init
        assert model.run_defaults == direct.run_defaults
        assert [r.id for r in model.rules] == [r.id for r in direct.rules]
        # the file perfbench runs and the model test_08 runs are one model
        with open("models/lac_operon.tscls", encoding="utf-8") as fh:
            read = parse_model(fh.read())
        for part in ("rules", "observables", "constants", "type_decls",
                     "typing"):
            assert getattr(read, part) == getattr(direct, part), part
