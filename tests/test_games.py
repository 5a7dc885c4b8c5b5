import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxsim import games
from ctxsim.games import (
    NC_SEARCH_BOUND,
    Assignment,
    ContextualityGame,
    QuantumStrategy,
    chsh,
    embed_in_qubits,
    embed_nonlocal_game,
    extend_strategy,
    kcbs,
    magic_square,
    nc_value,
    nc_value_with_table,
    pad_contexts,
    quantum_value_of,
)
from ctxsim.qsim import Observable, StateVector, X, Z


def reference_nc_value_with_table(game):
    """Oracle: every assignment in itertools.product order, scored with
    Fraction sums; the first maximum wins."""
    best = None
    best_table = None
    for combo in itertools.product(game.answers, repeat=len(game.questions)):
        table = dict(zip(game.questions, combo))
        value = sum(
            (w for i, w in enumerate(game.context_weights)
             if tuple(table[q] for q in game.contexts[i]) in game.accepts[i]),
            Fraction(0),
        )
        if best is None or value > best:
            best, best_table = value, table
    return best, Assignment(best_table)


def assert_matches_reference(game):
    value, table = nc_value_with_table(game)
    ref_value, ref_table = reference_nc_value_with_table(game)
    assert type(value) is Fraction
    assert value == ref_value
    assert table.table == ref_table.table


def toy_game():
    return ContextualityGame(
        questions=(0, 1, 2),
        answers=(0, 1),
        contexts=((0, 1), (1, 2)),
        context_weights=(Fraction(1, 2), Fraction(1, 2)),
        accepts={0: {(0, 0), (1, 1)}, 1: {(0, 1), (1, 0)}},
    )


def test_magic_square_shape_and_predicate():
    game, _ = magic_square()
    assert len(game.contexts) == 6
    assert game.predicate(0, (1, 1, 1)) == 1
    assert game.predicate(5, (1, 1, 1)) == 0
    assert game.predicate(5, (1, 1, -1)) == 1


def test_magic_square_nc_value_exact():
    game, _ = magic_square()
    assert nc_value(game) == Fraction(5, 6)


def test_magic_square_quantum_value_is_one():
    game, strat = magic_square()
    assert quantum_value_of(game, strat) == pytest.approx(1.0, abs=1e-9)


def test_kcbs_nc_value_exact():
    game, _ = kcbs()
    assert nc_value(game) == Fraction(4, 5)


def test_kcbs_quantum_value():
    game, strat = kcbs()
    assert quantum_value_of(game, strat) == pytest.approx(2 / np.sqrt(5), abs=1e-9)


def test_kcbs_neighbor_projectors_orthogonal():
    _, strat = kcbs()
    for q in range(5):
        a = strat.observables[q].matrix
        b = strat.observables[(q + 1) % 5].matrix
        assert np.max(np.abs(a @ b)) < 1e-12


def test_kcbs_rejects_double_click():
    game, _ = kcbs()
    assert game.predicate(0, (1, 1)) == 0
    assert game.predicate(0, (0, 1)) == 1


def test_single_context_trivial_game():
    game = ContextualityGame(
        questions=("q",),
        answers=(0, 1),
        contexts=(("q",),),
        context_weights=(1,),
        accepts={0: {(0,), (1,)}},
    )
    assert nc_value(game) == 1


def test_constant_strategy_wins_constant_game():
    game = ContextualityGame(
        questions=(0,),
        answers=(0, 1),
        contexts=((0,),),
        context_weights=(1,),
        accepts={0: {(0,)}},
    )
    strat = QuantumStrategy(2, StateVector((2,), [1, 0]), {0: Observable(np.zeros((2, 2)))})
    assert quantum_value_of(game, strat) == pytest.approx(1.0)


def test_chsh_embedding_counts_and_values():
    game, strat = chsh()
    assert len(game.questions) == 4
    assert len(game.contexts) == 4
    assert all(len(c) == 2 for c in game.contexts)
    assert nc_value(game) == Fraction(3, 4)
    assert quantum_value_of(game, strat) == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)


def test_embed_nonlocal_game_contexts_pair_roles():
    game = embed_nonlocal_game((0, 1), (0,), (0, 1), lambda x, y, a, b: a == b)
    assert game.contexts == (("A0", "B0"), ("A1", "B0"))


def test_nc_argmax_table_attains_value():
    game, _ = magic_square()
    value, table = nc_value_with_table(game)
    achieved = sum(
        w for i, w in enumerate(game.context_weights)
        if game.predicate(i, table.on_context(game.contexts[i]))
    )
    assert achieved == value == Fraction(5, 6)


def test_quantum_value_rejects_bad_spectrum():
    game = ContextualityGame(
        questions=(0,), answers=(0, 1), contexts=((0,),),
        context_weights=(1,), accepts={0: {(0,)}},
    )
    strat = QuantumStrategy(2, StateVector((2,), [1, 0]), {0: Observable(0.5 * np.eye(2))})
    with pytest.raises(ValueError):
        quantum_value_of(game, strat)


def test_answer_for_takes_a_label_within_1e_6_and_refuses_the_rest():
    for game, strat in (kcbs(), magic_square()):
        for a in game.answers:
            for eps in (1e-7, -1e-7):
                assert strat.answer_for(game, float(a) + eps) == a
            for eps in (1e-5, -1e-5):
                with pytest.raises(ValueError, match="matches no declared outcome"):
                    strat.answer_for(game, float(a) + eps)


def test_quantum_value_rejects_noncommuting_context():
    game = ContextualityGame(
        questions=(0, 1), answers=(1, -1), contexts=((0, 1),),
        context_weights=(1,), accepts={0: {(1, 1)}},
    )
    strat = QuantumStrategy(
        2, StateVector((2,), [1, 0]), {0: Observable(X), 1: Observable(Z)}
    )
    with pytest.raises(ValueError):
        quantum_value_of(game, strat)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        ContextualityGame(
            questions=(0,), answers=(0,), contexts=((0,),),
            context_weights=(Fraction(1, 2),), accepts={0: {(0,)}},
        )
    # three float thirds sum to 9999999999999999/10000000000000000, not 1
    with pytest.raises(ValueError, match='"1/3"'):
        ContextualityGame(
            questions=(0, 1, 2), answers=(0,), contexts=((0,), (1,), (2,)),
            context_weights=(0.3333333333333333,) * 3,
            accepts={i: {(0,)} for i in range(3)},
        )
    thirds = ContextualityGame(
        questions=(0, 1, 2), answers=(0,), contexts=((0,), (1,), (2,)),
        context_weights=("1/3",) * 3, accepts={i: {(0,)} for i in range(3)},
    )
    assert nc_value(thirds) == 1


def test_a_zero_denominator_weight_is_a_value_error():
    with pytest.raises(ValueError, match="'1/0'"):
        ContextualityGame(
            questions=(0, 1), answers=(0,), contexts=((0,), (1,)),
            context_weights=("1/0", 1), accepts={},
        )


@pytest.mark.parametrize("key", [5, 7, -1])
def test_a_predicate_for_a_missing_context_is_refused(key):
    game, _ = games.kcbs()
    with pytest.raises(ValueError, match="name no context"):
        ContextualityGame(game.questions, game.answers, game.contexts, game.context_weights,
                          {**game.accepts, key: game.accepts[0]})
    data = json.loads(game.to_json())
    data["predicate"][str(key)] = data["predicate"]["0"]
    with pytest.raises(ValueError, match="name no context"):
        ContextualityGame.from_json(json.dumps(data))


@pytest.mark.parametrize("answers", [(0, 1, 0), ()])
def test_answers_must_be_distinct_and_nonempty(answers):
    # the search codes tables by answer position
    with pytest.raises(ValueError, match="answers must be distinct"):
        ContextualityGame(
            questions=(0,), answers=answers, contexts=((0,),),
            context_weights=(1,), accepts={},
        )


def test_pad_contexts_equalizes_and_preserves_nc():
    mixed = ContextualityGame(
        questions=(0, 1, 2),
        answers=(0, 1),
        contexts=((0, 1), (0, 1, 2)),
        context_weights=(Fraction(1, 2), Fraction(1, 2)),
        accepts={0: {(0, 1), (1, 0)}, 1: {(0, 0, 0)}},
    )
    padded = pad_contexts(mixed)
    assert all(len(c) == 3 for c in padded.contexts)
    assert nc_value(padded) == nc_value(mixed)
    # Original-question behavior is untouched.
    assert padded.predicate(0, (0, 1, 0)) == padded.predicate(0, (0, 1, 1)) == 1
    assert padded.predicate(0, (1, 1, 0)) == 0


def test_pad_contexts_identity_on_uniform_game():
    game, _ = kcbs()
    assert pad_contexts(game) is game


def test_pad_contexts_preserves_quantum_value():
    mixed = ContextualityGame(
        questions=("a", "b", "c"),
        answers=(1, -1),
        contexts=(("a", "b"), ("a", "b", "c")),
        context_weights=(Fraction(1, 2), Fraction(1, 2)),
        accepts={0: {(1, 1), (-1, -1)}, 1: {(1, 1, 1)}},
    )
    strat = QuantumStrategy(
        2, StateVector((2,), [1, 0]),
        {"a": Observable(Z), "b": Observable(Z), "c": Observable(np.eye(2))},
    )
    padded = pad_contexts(mixed)
    padded_strat = extend_strategy(strat, padded.questions, padded.answers[0])
    assert quantum_value_of(padded, padded_strat) == pytest.approx(
        quantum_value_of(mixed, strat), abs=1e-12
    )


def test_commuting_strategy_matches_assignment_mixture():
    # All-diagonal observables: the joint eigenbasis is the computational
    # basis, so the quantum value must equal a mixture of deterministic
    # tables weighted by |psi_i|^2.
    game = toy_game()
    rng = np.random.default_rng(11)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    diag = {
        0: np.diag([0.0, 0.0, 1.0, 1.0]),
        1: np.diag([0.0, 1.0, 0.0, 1.0]),
        2: np.diag([1.0, 1.0, 0.0, 0.0]),
    }
    strat = QuantumStrategy(4, StateVector((4,), v), {q: Observable(m) for q, m in diag.items()})

    expected = 0.0
    for i in range(4):
        table = Assignment({q: int(diag[q][i, i]) for q in game.questions})
        score = sum(
            float(w) for j, w in enumerate(game.context_weights)
            if game.predicate(j, table.on_context(game.contexts[j]))
        )
        expected += abs(v[i]) ** 2 * score
    assert quantum_value_of(game, strat) == pytest.approx(expected, abs=1e-12)


def test_game_json_roundtrip():
    game, _ = magic_square()
    back = ContextualityGame.from_json(game.to_json())
    assert back == game
    assert nc_value(back) == Fraction(5, 6)


def test_strategy_json_roundtrip():
    game, strat = kcbs()
    back = QuantumStrategy.from_json(strat.to_json(), questions=game.questions)
    assert quantum_value_of(game, back) == pytest.approx(2 / np.sqrt(5), abs=1e-9)


def test_embed_in_qubits_preserves_value():
    game, strat = kcbs()
    embedded = embed_in_qubits(strat, fill_answer=game.answers[0])
    assert embedded.psi.dims == (2, 2)
    assert quantum_value_of(game, embedded) == pytest.approx(2 / np.sqrt(5), abs=1e-9)


@pytest.mark.parametrize("build", [magic_square, kcbs, chsh])
def test_nc_search_matches_reference_on_builtin_games(build):
    game, _ = build()
    assert_matches_reference(game)


@st.composite
def random_games(draw, context_size=None):
    """1-6 questions, 2-3 non-integer answer labels, contexts of mixed
    sizes (or all of context_size) with possibly empty accept sets,
    small-denominator weights (so ties are common)."""
    n = draw(st.integers(context_size or 1, 6))
    questions = tuple(f"q{i}" for i in range(n))
    answers = draw(st.sampled_from([(1, -1), ("a", "b", "c"), (0.5, "x")]))
    n_contexts = draw(st.integers(1, 5))
    contexts, accepts = [], {}
    for i in range(n_contexts):
        size = context_size or draw(st.integers(1, min(n, 3)))
        ctx = tuple(draw(st.permutations(questions))[:size])
        tuples = list(itertools.product(answers, repeat=size))
        keep = draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
        contexts.append(ctx)
        accepts[i] = {t for t, k in zip(tuples, keep) if k}
    raw = draw(st.lists(st.integers(0, 3), min_size=n_contexts, max_size=n_contexts))
    if not any(raw):
        raw[0] = 1
    weights = tuple(Fraction(r, sum(raw)) for r in raw)
    return ContextualityGame(questions=questions, answers=answers,
                             contexts=tuple(contexts), context_weights=weights,
                             accepts=accepts)


@settings(max_examples=200, deadline=None)
@given(random_games())
def test_nc_search_matches_reference_on_random_games(game):
    assert_matches_reference(game)


@settings(max_examples=100, deadline=None)
@given(random_games())
def test_nc_search_matches_reference_with_leading_axes(game):
    # blocks of 1 to 8 tables split the questions into leading axes, indexed
    # one answer tuple per block, and trailing axes scored within a block
    for block in (1, 2, 3, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(games, "_NC_BLOCK", block)
            assert_matches_reference(game)


def test_nc_search_blocks_of_powers_of_three():
    # 3^8 tables: blocks of 3^7 on the trailing seven questions.  An 8-cycle
    # of differing answers, one edge also asked to agree, q0 asked to be c,
    # and q3, q5, q7 asked to agree: 15/16, with q0 = c in the last block.
    questions = tuple(f"q{i}" for i in range(8))
    answers = ("a", "b", "c")
    differ = {(x, y) for x in answers for y in answers if x != y}
    contexts = tuple((questions[i], questions[(i + 1) % 8]) for i in range(8)) + (
        ("q0",), ("q7", "q3", "q5"), ("q2", "q1"))
    game = ContextualityGame(
        questions=questions, answers=answers, contexts=contexts,
        context_weights=(Fraction(1, 16),) * 8 + (Fraction(3, 16),) * 2 + (Fraction(1, 8),),
        accepts={**{i: differ for i in range(8)}, 8: {("c",)},
                 9: {(x,) * 3 for x in answers}, 10: {(x, x) for x in answers}},
    )
    assert 3 ** 7 <= games._NC_BLOCK < 3 ** 8
    value, table = nc_value_with_table(game)
    assert value == Fraction(15, 16)
    assert table.table["q0"] == "c"
    assert_matches_reference(game)


def test_nc_search_ties_take_the_first_table():
    # (b, a) and (a, b) both win; with answers ordered (b, a) the first is
    # x=b, y=a
    game = ContextualityGame(
        questions=("x", "y"), answers=("b", "a"), contexts=(("x", "y"),),
        context_weights=(1,), accepts={0: {("a", "b"), ("b", "a")}},
    )
    value, table = nc_value_with_table(game)
    assert value == 1
    assert table.table == {"x": "b", "y": "a"}
    assert_matches_reference(game)


def test_nc_search_ties_across_blocks():
    # odd 13-cycle: flipping every answer keeps a table's score, so each
    # optimum with q0=0 (first block) has a twin with q0=1 (second block)
    n = 13
    assert 2 ** (n - 1) >= games._NC_BLOCK
    game = ContextualityGame(
        questions=tuple(range(n)), answers=(0, 1),
        contexts=tuple((i, (i + 1) % n) for i in range(n)),
        context_weights=(Fraction(1, n),) * n,
        accepts={i: {(0, 1), (1, 0)} for i in range(n)},
    )
    value, table = nc_value_with_table(game)
    assert value == Fraction(n - 1, n)
    assert table.table[0] == 0
    assert_matches_reference(game)


def test_nc_search_exact_past_int64():
    # the weights' common denominator p * r exceeds int64
    p, r = 2 ** 61 - 1, 2 ** 31 - 1
    game = ContextualityGame(
        questions=(0, 1, 2), answers=(0, 1),
        contexts=((0, 1), (1, 2), (0, 2)),
        context_weights=(Fraction(1, p), Fraction(1, r), 1 - Fraction(1, p) - Fraction(1, r)),
        accepts={i: {(0, 1), (1, 0)} for i in range(3)},
    )
    assert p * r > 2 ** 63
    # a frustrated triangle: the lightest edge, 1/p, is the one given up
    value, _ = nc_value_with_table(game)
    assert value == 1 - Fraction(1, p)
    assert_matches_reference(game)


def test_nc_search_exact_past_int64_across_blocks(monkeypatch):
    # object scores indexed along leading axes: a 4-cycle of differing
    # answers plus one diagonal, whose weights' denominator p * r passes int64
    p, r = 2 ** 61 - 1, 2 ** 31 - 1
    game = ContextualityGame(
        questions=(0, 1, 2, 3), answers=(0, 1),
        contexts=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)),
        context_weights=(Fraction(1, 4) - Fraction(1, p), Fraction(1, 4), Fraction(1, 4),
                         Fraction(1, 4) - Fraction(1, r), Fraction(1, p) + Fraction(1, r)),
        accepts={i: {(0, 1), (1, 0)} for i in range(5)},
    )
    # the diagonal closes two odd triangles; giving it up (1/p + 1/r) costs
    # less than giving up an edge of each
    for block in (1, 2, 4):
        monkeypatch.setattr(games, "_NC_BLOCK", block)
        value, _ = nc_value_with_table(game)
        assert value == 1 - Fraction(1, p) - Fraction(1, r)
        assert_matches_reference(game)


def test_nc_search_rejects_oversized_games_before_allocating(monkeypatch):
    over = ContextualityGame(
        questions=tuple(range(25)), answers=(0, 1), contexts=((0,),),
        context_weights=(1,), accepts={0: {(0,)}},
    )
    assert 2 ** 25 > NC_SEARCH_BOUND
    # any numpy use would fail, so the error comes before any array
    monkeypatch.setattr(games, "np", None)
    with pytest.raises(ValueError, match="exceed the brute-force bound"):
        nc_value_with_table(over)


def test_nc_search_rejects_oversized_accept_lookups(monkeypatch):
    questions = tuple(range(24))
    wide = ContextualityGame(
        questions=questions, answers=(0, 1), contexts=(questions, questions[::-1]),
        context_weights=(Fraction(1, 2), Fraction(1, 2)),
        accepts={0: {(0,) * 24}, 1: {(1,) * 24}},
    )
    monkeypatch.setattr(games, "np", None)
    with pytest.raises(ValueError, match="accept lookups"):
        nc_value_with_table(wide)


def test_nc_search_memory_stays_flat():
    # 2**16 tables: an odd 15-cycle plus one edge, so no table scores 1 and
    # every block is searched
    n = 16
    contexts = tuple((i, (i + 1) % 15) for i in range(15)) + ((14, 15),)
    game = ContextualityGame(
        questions=tuple(range(n)), answers=(0, 1), contexts=contexts,
        context_weights=(Fraction(1, n),) * n,
        accepts={i: {(0, 1), (1, 0)} for i in range(n)},
    )
    tracemalloc.start()
    try:
        value, table = nc_value_with_table(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == Fraction(15, 16)
    assert sum(game.predicate(i, table.on_context(c))
               for i, c in enumerate(game.contexts)) == 15
    assert peak < 1 << 20
