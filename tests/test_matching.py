"""Whole-compartment matching, substitution, compartment paths."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscls import (Instantiation, Loop, SubstitutionError, Term, Var,
                   VarKind, WellFormednessError, canonicalize, compartments,
                   congruent, match_whole, parse_pattern, parse_term,
                   path_text, splice, substitute)
from tscls.matching import image, path_of
from tscls.terms import component_counts

from conftest import abstract_pattern, random_rule, random_seq, random_term


def T(text):
    return parse_term(text)


def P(text):
    return parse_pattern(text)


def the_binding(insts, name, kind=VarKind.TERM):
    (inst,) = insts
    return inst[Var(kind, name)]


class TestCompartments:
    def test_flat(self):
        comps = compartments(T("a | a | c"))
        assert len(comps) == 1
        assert comps[0].path == () and comps[0].content == T("a | a | c")

    def test_loop_adds_site(self):
        comps = compartments(T("a | a | c | <b.c.c>[a]"))
        assert [c.path for c in comps] == [(), (0,)]
        assert comps[1].content == T("a")

    def test_nested_depth(self):
        comps = compartments(T("<m>[<n>[x]]"))
        assert [c.path for c in comps] == [(), (0,), (0, 0)]

    def test_path_indexes_loops_only(self):
        comps = compartments(T("a | z.z | <m>[x] | <n>[y]"))
        paths = {path_text(c.path): c.content for c in comps}
        assert set(paths) == {"/", "/0", "/1"}
        assert paths["/0"] == T("x")
        assert paths["/1"] == T("y")

    def test_each_copy_of_a_loop_is_a_site(self):
        comps = compartments(T("2 * <m>[ 2 * <n>[ x ] ] | <p>[ y ]"))
        assert [c.path for c in comps] == [
            (), (0,), (0, 0), (0, 1), (1,), (1, 0), (1, 1), (2,)]
        assert [c.content for c in comps[-2:]] == [T("x"), T("y")]

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_positions_give_the_paths_of_compartments(self, seed):
        # a position lists the key and the copy number of each loop on the
        # way from the root: positions sort in pre-order, and path_of
        # gives each the path compartments() gives its site
        def copied(t):
            comps = []
            for comp in t.components:
                if isinstance(comp, Loop):
                    comp = Loop(comp.membrane, copied(comp.content))
                    comps.extend([comp] * rng.randint(1, 3))
                else:
                    comps.append(comp)
            return Term(comps)

        def positions(term, pos):
            yield pos
            for comp, n in component_counts(term).items():
                if isinstance(comp, Loop):
                    for copy in range(n):
                        yield from positions(comp.content,
                                             pos + (comp.key, copy))

        rng = random.Random(seed)
        state = canonicalize(copied(random_term(rng, depth=3)))
        found = list(positions(state, ()))
        assert found == sorted(found)
        assert [path_of(state, pos) for pos in found] \
            == [comp.path for comp in compartments(state)]

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_splice_reconstructs_state(self, seed):
        state = canonicalize(random_term(random.Random(seed), depth=3))
        for comp in compartments(state):
            assert splice(state, comp.path, comp.content) == state

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_splice_of_a_canonical_state(self, seed):
        # a canonical state keeps its other components in place and moves
        # the changed loops; the result must be the canonical form that
        # splicing a copy not known to be canonical gives. Loops of one
        # membrane are ordered by their contents, so a splice reorders them
        def raw(t):
            return Term([Loop(c.membrane, raw(c.content))
                         if isinstance(c, Loop) else c
                         for c in t.components])

        def cells(depth):
            return Term([Loop(("m",), cells(depth - 1))
                         if depth and rng.random() < 0.6 else random_seq(rng)
                         for _ in range(rng.randint(0, 4))])

        rng = random.Random(seed)
        state = canonicalize(cells(3))
        for comp in compartments(state):
            new = random_term(rng, depth=1)
            got = splice(state, comp.path, new)
            assert got.key == splice(raw(state), comp.path, new).key
            assert got.key == canonicalize(raw(got)).key

    def test_splice_bad_path(self):
        with pytest.raises(ValueError):
            splice(T("a"), (0,), T("b"))


class TestMatchWhole:
    def test_symmetric_choices_collapse(self):
        insts = match_whole(P("a | $X"), T("a | a | c"))
        assert the_binding(insts, "X") == T("a | c")

    def test_sequence_head(self):
        insts = match_whole(P("a.~x"), T("a.b.c"))
        assert the_binding(insts, "x", VarKind.SEQ) == ("b", "c")

    def test_no_match(self):
        assert match_whole(P("a | $X"), T("b | c")) == frozenset()

    def test_whole_compartment_only(self):
        # without a frame variable the lhs must cover everything
        assert match_whole(P("a"), T("a | b")) == frozenset()
        assert len(match_whole(P("a"), T("a"))) == 1

    def test_term_var_may_bind_empty(self):
        insts = match_whole(P("a | $X"), T("a"))
        assert the_binding(insts, "X") == Term(())

    def test_seq_var_may_bind_empty(self):
        insts = match_whole(P("a.~x"), T("a"))
        assert the_binding(insts, "x", VarKind.SEQ) == ()

    def test_elem_var_must_consume(self):
        assert match_whole(P("a.?y"), T("a")) == frozenset()
        insts = match_whole(P("?y"), T("a"))
        assert the_binding(insts, "y", VarKind.ELEM) == "a"

    def test_loop_rotation_matching(self):
        insts = match_whole(P("<a.~x>[eps]"), T("<c.a.b>[eps]"))
        assert the_binding(insts, "x", VarKind.SEQ) == ("b", "c")

    def test_nonlinear_terms(self):
        assert len(match_whole(P("$X | $X"), T("a | a"))) == 1
        assert match_whole(P("$X | $X"), T("a | b")) == frozenset()
        insts = match_whole(P("2 * $X | $Y"), T("3 * a | b"))
        assert {i[Var(VarKind.TERM, "X")] for i in insts} == {T("eps"), T("a")}
        # bound inside the loop, $X takes its binding twice outside it
        lhs = P("<~x>[ $X ] | 2 * $X")
        assert match_whole(lhs, T("<m>[ a ] | a")) == frozenset()
        assert the_binding(match_whole(lhs, T("<m>[ a ] | 2 * a")), "X") \
            == T("a")

    def test_nonlinear_elements(self):
        insts = match_whole(P("?y.?y"), T("a.a"))
        assert the_binding(insts, "y", VarKind.ELEM) == "a"
        assert match_whole(P("?y.?y"), T("a.b")) == frozenset()

    def test_multiple_splits_enumerated(self):
        insts = match_whole(P("~x.~z"), T("a.b"))
        xs = sorted(i[Var(VarKind.SEQ, "x")] for i in insts)
        assert xs == [(), ("a",), ("a", "b")]

    def test_two_term_vars_split_multiset(self):
        insts = match_whole(P("$X | $Y"), T("a | a | b"))
        pairs = {(i[Var(VarKind.TERM, "X")], i[Var(VarKind.TERM, "Y")])
                 for i in insts}
        # splits of {a,a,b}: multiplicities 0..2 of a times 0..1 of b
        assert len(pairs) == 6

    def test_r13_shape_on_nested_state(self):
        state = T("<m>[ perm | polym | repr ] | 2 * LACT")
        insts = match_whole(P("<~x>[ perm | $X ] | $Y"), state)
        (inst,) = insts
        assert inst[Var(VarKind.SEQ, "x")] == ("m",)
        assert inst[Var(VarKind.TERM, "X")] == T("polym | repr")
        assert inst[Var(VarKind.TERM, "Y")] == T("2 * LACT")

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_soundness(self, seed):
        rng = random.Random(seed)
        content = canonicalize(random_term(rng))
        lhs = abstract_pattern(rng, content)
        insts = match_whole(lhs, content)
        assert insts, (lhs, content)  # built to match
        for inst in insts:
            assert congruent(substitute(lhs, inst), content)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_congruence_invariance(self, seed):
        from conftest import scramble
        rng = random.Random(seed)
        t = random_term(rng)
        lhs = abstract_pattern(rng, canonicalize(t))
        assert match_whole(lhs, t) == match_whole(lhs, scramble(t, rng))


class TestSubstitute:
    def test_parallel(self):
        inst = Instantiation({Var(VarKind.TERM, "X"): T("a | c")})
        assert substitute(P("b | $X"), inst) == T("a | b | c")

    def test_empty(self):
        inst = Instantiation({Var(VarKind.TERM, "X"): Term(())})
        assert substitute(P("$X"), inst) == Term(())

    def test_sequence_splice(self):
        inst = Instantiation({Var(VarKind.SEQ, "x"): ("b", "c")})
        assert substitute(P("a.~x"), inst) == T("a.b.c")

    def test_membrane_splice(self):
        inst = Instantiation({Var(VarKind.SEQ, "x"): ("m",),
                              Var(VarKind.TERM, "X"): T("polym")})
        assert substitute(P("<perm.~x>[ $X ]"), inst) == T("<m.perm>[polym]")

    def test_unbound_variable(self):
        with pytest.raises(SubstitutionError):
            substitute(P("a | $X"), Instantiation({}))


class TestImage:
    def test_term_variables_are_a_multiset(self):
        x, y = Var(VarKind.TERM, "X"), Var(VarKind.TERM, "Y")
        one = Instantiation({x: T("a"), y: T("b")})
        two = Instantiation({x: T("b"), y: T("a")})
        assert image(P("$X | $Y"), one) == image(P("$X | $Y"), two)
        assert image(P("<m>[ $X ] | $Y"), one) \
            != image(P("<m>[ $X ] | $Y"), two)
        assert image(P("2 * $X | $Y"), one) != image(P("2 * $X | $Y"), two)

    def test_empty_items_vanish(self):
        inst = Instantiation({Var(VarKind.SEQ, "x"): (),
                              Var(VarKind.TERM, "X"): Term(())})
        assert image(P("~x | $X | <~x>[ $X ]"), inst) == image(P("$X"), inst)

    def test_errors_match_substitute(self):
        inst = Instantiation({Var(VarKind.SEQ, "x"): (),
                              Var(VarKind.TERM, "X"): T("b")})
        for p, error in ((P("<~x>[ $X ]"), WellFormednessError),
                         (P("a | $Z"), SubstitutionError)):
            with pytest.raises(error) as want:
                substitute(p, inst)
            with pytest.raises(error) as got:
                image(p, inst)
            assert str(got.value) == str(want.value)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_equal_images_give_congruent_substitutes(self, seed):
        rng = random.Random(seed)
        t = random_term(rng)
        rule = random_rule(rng, "r")
        for site in compartments(t):
            by_image = {}
            for inst in match_whole(rule.lhs, site.content):
                got = substitute(rule.rhs, inst)
                seen = by_image.setdefault(image(rule.rhs, inst), got)
                assert congruent(seen, got)
