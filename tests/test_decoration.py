"""Decoration grammar, recursion and dual reading.

Claims:
    - the grammar forbids open next to filled across any bond
    - seeds put one square at an extreme node of a chain
    - the single-square recursion is deterministic and produces, at step
      k, k filled marks, one square and n-k-1 open marks; the filled node
      sets grow strictly along the chain, so each face lies in the next
    - the general step branches over all squares into distinct successors
    - dual reading swaps the roles of open and filled marks
    - the cached chain equals the uncached recursion, is one shared object
      per (diagram, end), is bounded, and caches no error; locating a
      decoration in the cached chains agrees with a linear search; the
      face cache is bounded too
"""

import itertools

import pytest

from platonic import (
    Decoration,
    DecorationError,
    End,
    Family,
    Symbol,
    build,
    chain,
    dual_read,
    seed,
    step,
    validate,
)
from platonic.facelattice import enumerate_faces, locate_in_chain
from conftest import chain_diagrams


def dec(text):
    return Decoration.from_text(text)


class TestValidate:
    def test_valid_examples(self):
        h3 = build(Family.H3, 3)
        assert validate(h3, dec("fso"))
        a3 = build(Family.A, 3)
        assert validate(a3, dec("sss"))

    def test_open_next_to_filled_rejected(self):
        a3 = build(Family.A, 3)
        assert not validate(a3, dec("fos"))
        # non-adjacent open and filled are fine
        assert validate(a3, dec("fso"))

    def test_length_mismatch_raises(self):
        with pytest.raises(DecorationError):
            validate(build(Family.A, 3), dec("ss"))

    def test_text_roundtrip(self):
        d = dec("ffso")
        assert d.text == "ffso"
        assert d.pretty == "◆◆□◊"
        assert Decoration.from_text(d.text) == d
        with pytest.raises(DecorationError):
            Decoration.from_text("fxo")


class TestSeed:
    def test_left_right(self):
        a3 = build(Family.A, 3)
        assert seed(a3, End.LEFT) == dec("soo")
        assert seed(a3, End.RIGHT) == dec("oos")

    def test_rank_one(self):
        assert seed(build(Family.A, 1), End.LEFT) == dec("s")

    def test_fork_rejected(self):
        with pytest.raises(DecorationError):
            seed(build(Family.D, 4), End.LEFT)


class TestStep:
    def test_chain_progression(self):
        a4 = build(Family.A, 4)
        assert step(a4, dec("sooo")) == (dec("fsoo"),)
        assert step(a4, dec("fsoo")) == (dec("ffso"),)

    def test_terminal_raises(self):
        a3 = build(Family.A, 3)
        with pytest.raises(DecorationError):
            step(a3, dec("ffs"))

    def test_no_square_raises(self):
        a3 = build(Family.A, 3)
        with pytest.raises(DecorationError):
            step(a3, dec("ooo"))

    def test_invalid_input_raises(self):
        a3 = build(Family.A, 3)
        with pytest.raises(DecorationError):
            step(a3, dec("fos"))

    def test_multi_square_branches(self):
        a4 = build(Family.A, 4)
        successors = step(a4, dec("soso"))
        assert set(successors) == {dec("fsso"), dec("ssfs")}
        assert len(set(successors)) == len(successors)
        for succ in successors:
            assert validate(a4, succ)


class TestChain:
    def test_a3_left(self):
        a3 = build(Family.A, 3)
        assert chain(a3, End.LEFT) == (dec("soo"), dec("fso"), dec("ffs"))

    def test_h4_right(self):
        h4 = build(Family.H4, 4)
        assert chain(h4, End.RIGHT) == (
            dec("ooos"), dec("oosf"), dec("osff"), dec("sfff"),
        )

    def test_rank_one(self):
        assert chain(build(Family.A, 1), End.LEFT) == (dec("s"),)

    def test_shape_invariants(self):
        for d in chain_diagrams(8):
            for end in (End.LEFT, End.RIGHT):
                seq = chain(d, end)
                assert len(seq) == d.rank
                assert all(a.filled_nodes < b.filled_nodes for a, b in zip(seq, seq[1:]))
                for k, c in enumerate(seq):
                    assert validate(d, c)
                    assert c.dimension == k
                    assert len(c.square_nodes) == 1
                    assert c.dual_dimension == d.rank - k - 1
                    assert c.dimension + c.dual_dimension + 1 == d.rank
                    if end is End.LEFT:
                        assert c.square_nodes == {k + 1}

    def test_deterministic_single_successor(self):
        for d in chain_diagrams(6):
            seq = chain(d, End.LEFT)
            for c in seq[:-1]:
                assert len(step(d, c)) == 1


class TestCachedChain:
    def test_equals_uncached_recursion(self):
        for d in chain_diagrams(24):  # every (diagram, end) of the queries stream
            for end in (End.LEFT, End.RIGHT):
                cached = chain(d, end)
                assert cached == chain.__wrapped__(d, end)
                assert chain(d, end) is cached

    def test_bounded(self):
        assert chain.cache_info().maxsize is not None

    def test_face_cache_bounded(self):
        assert enumerate_faces.cache_info().maxsize is not None

    def test_error_raised_on_every_call(self):
        d4 = build(Family.D, 4)
        for _ in range(3):
            with pytest.raises(DecorationError):
                chain(d4, End.LEFT)

    def test_locate_matches_linear_search(self):
        for d in chain_diagrams(8):
            chains = [(end, chain.__wrapped__(d, end)) for end in (End.LEFT, End.RIGHT)]
            for symbols in itertools.product(tuple(Symbol), repeat=d.rank):
                c = Decoration(symbols)
                found = [(end, seq.index(c)) for end, seq in chains if c in seq]
                try:
                    located = locate_in_chain(d, c)
                except DecorationError:
                    located = None
                assert located == (found[0] if found else None), c.text


class TestDualRead:
    def test_vertex_class(self):
        assert dual_read(dec("soo")) == (2, frozenset({2, 3}), frozenset())

    def test_edge_class(self):
        assert dual_read(dec("fso")) == (1, frozenset({3}), frozenset({1}))

    def test_top_class(self):
        assert dual_read(dec("ffs")) == (0, frozenset(), frozenset({1, 2}))

    def test_mirror_of_primal(self):
        for d in chain_diagrams(6):
            for c in chain(d, End.LEFT):
                v, face_nodes, stab_nodes = dual_read(c)
                assert v == c.dual_dimension
                assert face_nodes == c.open_nodes
                assert stab_nodes == c.filled_nodes
