"""Term algebra: canonical forms, congruence, typing multisets."""

import copy
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscls import (EMPTY, Loop, ParseError, Seq, Term, TypeEnv, TypeName,
                   WellFormednessError, canonicalize, congruent, par,
                   stype_of, term_elements, type_of)
from tscls.syntax import parse_term, print_term
from tscls.terms import component_counts, counted, seq_types, type_counts

from conftest import (random_env, random_loop_state, random_seq, random_term,
                      scramble)


def T(text: str) -> Term:
    return parse_term(text)


class TestCanonicalize:
    def test_eps_is_neutral(self):
        raw = Term((Seq(("a",)), Seq(())))
        assert canonicalize(raw) == T("a")

    def test_membrane_least_rotation(self):
        assert T("<c.b.c>[a]") == T("<b.c.c>[a]")
        assert print_term(T("<c.b.c>[a]")) == "<b.c.c>[ a ]"

    def test_component_order_is_shortlex(self):
        assert print_term(T("b | a.a | a")) == "a | b | a.a"

    def test_seq_sorts_before_loop(self):
        assert print_term(T("<a>[eps] | z")) == "z | <a>[eps]"

    def test_empty_loop_vanishes(self):
        raw = Term((Loop((), Term(())), Seq(("a",))))
        assert canonicalize(raw) == T("a")

    def test_empty_membrane_with_content_rejected(self):
        with pytest.raises(WellFormednessError):
            Loop((), Term((Seq(("a",)),)))

    def test_idempotent_on_examples(self):
        for text in ("a | eps", "<c.b.c>[a]", "b | a.a | a",
                     "<m>[ <n>[x | y] | z.z ]"):
            once = canonicalize(T(text))
            assert canonicalize(once) is once

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_random(self, seed):
        t = random_term(random.Random(seed))
        once = canonicalize(t)
        assert canonicalize(once) == once

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_scramble_invariant(self, seed):
        rng = random.Random(seed)
        t = random_term(rng)
        assert canonicalize(scramble(t, rng)) == canonicalize(t)

    def test_copied_sequences_leave_the_neutral_one_empty(self):
        a = Seq(("a",))
        state = T("<m>[ a | b ] | a.c")
        for again in (copy.copy(a), copy.deepcopy(a),
                      pickle.loads(pickle.dumps(a))):
            assert again is a
        assert copy.deepcopy(state) == state
        assert pickle.loads(pickle.dumps(state)) == state
        assert Seq(()).elems == ()
        assert canonicalize(Term((a, Seq(())))) == T("a")


class TestCongruence:
    def test_parallel_commutes(self):
        assert congruent(T("a | b"), T("b | a"))

    def test_membrane_rotation(self):
        assert congruent(T("<a.b>[c]"), T("<b.a>[c]"))

    def test_sequence_is_not_parallel(self):
        assert not congruent(T("a.b"), T("a | b"))

    def test_neutral_element(self):
        assert congruent(par(T("a"), EMPTY), T("a"))

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_equivalence_on_scrambles(self, seed):
        rng = random.Random(seed)
        t1 = random_term(rng)
        t2 = scramble(t1, rng)
        t3 = scramble(t2, rng)
        assert congruent(t1, t2) and congruent(t2, t3) and congruent(t1, t3)


class TestWellFormedness:
    def test_eps_membrane_rejected(self):
        with pytest.raises(ParseError):
            parse_term("<eps>[a]")

    def test_reserved_eps_in_sequence(self):
        with pytest.raises(Exception):
            parse_term("a.eps")

    def test_eps_neutral_in_parallel(self):
        assert parse_term("a | eps") == T("a")
        assert parse_term("eps | a") == T("a")
        assert parse_term("eps") == EMPTY


class TestTyping:
    def test_type_name_is_a_value(self):
        tn = TypeName("t_a")
        assert (tn.base, tn.is_seq) == ("t_a", False)
        assert tn.as_seq() == TypeName("t_a", is_seq=True) != tn
        assert hash(tn.as_seq()) == hash(TypeName(base="t_a", is_seq=True))
        assert (str(tn), str(tn.as_seq())) == ("t_a", "seq(t_a)")
        assert repr(tn.as_seq()) == "TypeName(base='t_a', is_seq=True)"
        assert pickle.loads(pickle.dumps(tn.as_seq())) == tn.as_seq()
        with pytest.raises(AttributeError):
            tn.base = "t_b"

    def test_bare_elements(self):
        env = TypeEnv()
        assert type_of(T("a | a | c"), env) == Counter(
            {TypeName("t_a"): 2, TypeName("t_c"): 1})

    def test_loop_contributes_membrane_stype_only(self):
        env = TypeEnv()
        assert type_of(T("<b.c.c>[a | a | a | c]"), env) == Counter(
            {TypeName("t_b", True): 1, TypeName("t_c", True): 2})

    def test_empty_term(self):
        assert type_of(EMPTY, TypeEnv()) == Counter()

    def test_stype(self):
        env = TypeEnv()
        assert stype_of(("b", "c", "c"), env) == Counter(
            {TypeName("t_b", True): 1, TypeName("t_c", True): 2})
        assert stype_of(("a",), env) == Counter({TypeName("t_a", True): 1})
        assert stype_of((), env) == Counter()

    def test_multi_element_sequence_is_seq_typed(self):
        env = TypeEnv()
        assert type_of(T("a.a"), env) == Counter({TypeName("t_a", True): 2})

    def test_declared_assignment_wins(self):
        env = TypeEnv({"a": "alpha"})
        assert type_of(T("a"), env) == Counter({TypeName("alpha"): 1})

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_congruence_invariant(self, seed):
        rng = random.Random(seed)
        t = random_term(rng)
        env = TypeEnv()
        assert type_of(t, env) == type_of(scramble(t, rng), env)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_cardinality_counts_outermost_occurrences(self, seed):
        t = canonicalize(random_term(random.Random(seed)))
        direct = 0
        for comp in t.components:
            direct += len(comp.elems if isinstance(comp, Seq)
                          else comp.membrane)
        assert sum(type_of(t, TypeEnv()).values()) == direct

    @given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
    @settings(max_examples=150, deadline=None)
    def test_union_homomorphism(self, s1, s2):
        t1 = random_term(random.Random(s1))
        t2 = random_term(random.Random(s2))
        env = TypeEnv()
        assert type_of(par(t1, t2), env) == type_of(t1, env) + type_of(t2, env)


def expanded_key(t: Term) -> tuple:
    """The key that lists one entry per copy: the number of components
    and every component's key, loops keyed by their contents' expanded
    keys."""
    return (2, len(t.components), tuple(
        c.key if isinstance(c, Seq)
        else (1, (len(c.membrane), c.membrane), expanded_key(c.content))
        for c in t.components))


def drawn_pair(rng: random.Random) -> tuple[Term, Term]:
    """Two canonical terms drawn from one small pool of components: flat
    sequences, and cells whose contents are drawn the same way, so the
    terms often have equal lengths, equal components and runs of
    different lengths, at the top and inside cells."""
    def draw(pool, size):
        return canonicalize(Term([rng.choice(pool) for _ in range(size)]))

    seqs = [random_seq(rng, 2) for _ in range(3)]
    inner = [draw(seqs, rng.randint(0, 4)) for _ in range(2)]
    inner.append(canonicalize(random_loop_state(rng)))
    cells = [Loop(rng.choice((("m",), ("m", "p"))), rng.choice(inner))
             for _ in range(3)]
    pool = seqs + cells
    size = rng.randint(0, 6)
    return draw(pool, size), draw(pool, size + rng.choice((0, 0, 1)))


def recounted(t: Term) -> Term:
    """The canonical term ``t`` built again from its component multiset,
    cells included, as an event builds the compartments it changes."""
    counts: dict = {}
    for c in t.components:
        if isinstance(c, Loop):
            c = Loop(c.membrane, recounted(c.content))
        counts[c] = counts.get(c, 0) + 1
    return counted(counts)


class TestRunLengthKey:
    """A term's key has one entry per distinct component."""

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_orders_canonical_terms_as_their_copies(self, seed):
        a, b = drawn_pair(random.Random(seed))
        assert (a.key < b.key) == (expanded_key(a) < expanded_key(b))
        assert (b.key < a.key) == (expanded_key(b) < expanded_key(a))
        assert (a == b) == (expanded_key(a) == expanded_key(b))

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_counted_and_listed_terms_agree(self, seed):
        rng = random.Random(seed)
        for t in drawn_pair(rng) + (canonicalize(random_loop_state(rng)),):
            again = recounted(t)
            # one multiset, in the same canonical order
            assert list(component_counts(again).items()) \
                == list(component_counts(t).items())
            assert again.key == t.key
            assert again == t and t == again
            assert hash(again) == hash(t)
            assert again.is_empty() == t.is_empty()
            assert again.components == t.components
            assert canonicalize(again) is again

    def test_runs(self):
        a, b = Seq(("a",)), Seq(("b",))
        assert Term([a, a, b]).key == (2, 3, ((a.key, -2), (b.key, -1)))
        # a term counts its argument: copies apart in a listing are counted
        # together
        assert Term([a, b, a]).key == (2, 3, ((a.key, -2), (b.key, -1)))
        assert counted({a: 2, b: 1}).key == Term([a, a, b]).key
        assert Term().key == counted({}).key == (2, 0, ())
        # the longer run of the lesser component sorts first
        assert T("3 * a | b").key < T("2 * a | 2 * b").key


def terms_below(t: Term) -> list[Term]:
    """The term and every loop content inside it, at any depth."""
    out, stack = [], [t]
    while stack:
        cur = stack.pop()
        out.append(cur)
        stack.extend(c.content for c in cur.components if isinstance(c, Loop))
    return out


class TestTypeHistogram:
    """``type_counts`` (cached on the term) against ``type_of``."""

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_is_type_of(self, seed):
        rng = random.Random(seed)
        t = random_term(rng, depth=2, max_comps=5)
        if rng.random() < 0.5:
            t = canonicalize(t)
        env = random_env(rng)
        for sub in terms_below(t):
            for _ in range(2):  # built, then read from the cache
                assert type_counts(sub, env) == type_of(sub, env)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=200, deadline=None)
    def test_one_term_under_two_environments(self, seed):
        # the cache holds one environment's histogram; asking under the
        # other must not return it
        rng = random.Random(seed)
        t = canonicalize(random_term(rng, depth=2, max_comps=5))
        first = TypeEnv({e: "t_a" for e in "bcdef"})
        second = random_env(rng)
        for env in (first, second, first, TypeEnv(), second):
            for sub in terms_below(t):
                assert type_counts(sub, env) == type_of(sub, env)

    def test_environments_that_disagree(self):
        t = T("a | a.b | <b.c>[ a ]")
        merged = TypeEnv({"a": "t_b", "c": "t_b"})
        assert type_counts(t, TypeEnv()) == {
            TypeName("t_a"): 1, TypeName("t_a", True): 1,
            TypeName("t_b", True): 2, TypeName("t_c", True): 1}
        assert type_counts(t, merged) == {
            TypeName("t_b"): 1, TypeName("t_b", True): 4}
        assert type_counts(t, TypeEnv()) == type_of(t, TypeEnv())

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_sequence_histogram_is_stype_of(self, seed):
        rng = random.Random(seed)
        elems = tuple(rng.choice("abc") for _ in range(rng.randint(0, 4)))
        env = random_env(rng)
        assert seq_types(elems, env, False) == stype_of(elems, env)
        literal = seq_types(elems, env, True)
        if len(elems) == 1:
            assert literal == {env.basic(elems[0]): 1}
        else:
            assert literal == stype_of(elems, env)


def test_term_elements():
    t = T("a.b | <m>[ c | <n>[d] ]")
    assert term_elements(t) == {"a", "b", "m", "c", "n", "d"}
