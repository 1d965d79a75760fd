"""Decoration grammar, recursion and dual reading.

Claims:
    - a decoration is a string of s/o/f marks; any other character raises
    - the grammar forbids open next to filled across any bond
    - seeds put one square at an extreme node of any diagram; the walk, not
      the seed, judges whether the seed is Platonic
    - the single-square recursion is deterministic and produces, at step
      k, k filled marks, one square and n-k-1 open marks; the filled node
      sets grow strictly along the chain, so each face lies in the next
    - the general step, a test-local oracle, branches over all squares into
      distinct successors
    - dual reading swaps the roles of open and filled marks
    - the cached chain equals the uncached recursion, is one shared object
      per (diagram, end), is bounded, and caches no error; locating a
      decoration in the cached chains agrees with a linear search; the
      face cache is bounded too
    - the walk is the paper's test: it raises, naming the decoration, at
      the first one without exactly one square; on every diagram of rank
      <= 24 it agrees with the step-by-step recursion and its branching and
      length checks, and its verdict with the edge-path shape test; D is
      refused from both ends, and no seed at an interior node keeps a
      single square
    - the walk's work is linear in rank: a diagram lists each node's
      neighbours once, so the walk iterates no bond while it fills squares
"""

import itertools

import pytest

from platonic import (
    ConsistencyError,
    Decoration,
    DecorationError,
    Diagram,
    End,
    Family,
    build,
    chain,
    is_platonic_chain,
    seed,
    validate,
)
from platonic.facelattice import enumerate_faces, locate_in_chain
from conftest import all_diagrams, chain_diagrams


def dec(text):
    return Decoration(text)


def step(d, c):
    """All successors of a decoration under one recursion step: for each
    square, in node order, fill it and promote its open neighbours to
    squares.  Raises on an invalid decoration, on one with no square, and on
    a terminal one (no open node left).  The branching oracle for ``chain``.
    """
    if not validate(d, c):
        raise DecorationError(f"invalid decoration {c.text} for {d.name}")
    if "s" not in c.text:
        raise DecorationError("no square to replace")
    if "o" not in c.text:
        raise DecorationError("terminal decoration: no open node remains")
    successors = []
    for s in sorted(c.square_nodes):
        marks = list(c.text)
        marks[s - 1] = "f"
        for nb in d.neighbors(s):
            if marks[nb - 1] == "o":
                marks[nb - 1] = "s"
        successors.append(Decoration("".join(marks)))
    return tuple(successors)


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
        assert Decoration(d.text) == d
        with pytest.raises(DecorationError):
            Decoration("fxo")

    def test_mark_outside_sof_raises(self):
        for text in ("fxo", "SOO", "s o", "◆◆□"):
            with pytest.raises(DecorationError):
                Decoration(text)


class TestSeed:
    def test_left_right(self):
        a3 = build(Family.A, 3)
        assert seed(a3, End.LEFT) == dec("soo")
        assert seed(a3, End.RIGHT) == dec("oos")

    def test_rank_one(self):
        assert seed(build(Family.A, 1), End.LEFT) == dec("s")

    def test_fork_seeded(self):
        # the seed does not judge; chain(D4, ...) refuses the walk from it
        assert seed(build(Family.D, 4), End.LEFT) == dec("sooo")


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
            for marks in itertools.product("sof", repeat=d.rank):
                c = Decoration("".join(marks))
                found = [(end, seq.index(c)) for end, seq in chains if c in seq]
                try:
                    located = locate_in_chain(d, c)
                except DecorationError:
                    located = None
                assert located == (found[0] if found else None), c.text



def reference_chain(d, end):
    """The step-by-step recursion with its branching and length checks: the
    oracle for the single-square walk of ``chain``."""
    current = seed(d, end)
    out = [current]
    while current.open_nodes:
        successors = step(d, current)
        if len(successors) != 1:
            raise ConsistencyError("single-square chain recursion must not branch")
        current = successors[0]
        out.append(current)
    if len(out) != d.rank:
        raise ConsistencyError(f"chain has {len(out)} decorations, rank is {d.rank}")
    return tuple(out)


def is_edge_path(d):
    """The diagram-shape test: every bond joins consecutive nodes."""
    return all(j == i + 1 for i, j, _ in d.edges)


def walk_outcome(fn, d, end):
    """The decorations ``fn`` returns, or None when it refuses the seed."""
    try:
        return fn(d, end)
    except (ConsistencyError, DecorationError):
        return None


def keeps_one_square(d, text):
    """Whether the recursion from ``text`` keeps a single square to the end."""
    current = Decoration(text)
    while current.text.count("s") == 1:
        if not current.open_nodes:
            return True
        [current] = step(d, current)
    return False


DIAGRAMS_TO_24 = all_diagrams(24)


class TestPlatonicWalk:
    def test_95_diagrams(self):
        assert len(DIAGRAMS_TO_24) == 95
        assert {d.family for d in DIAGRAMS_TO_24} == set(Family)

    def test_walk_equals_reference_loop(self):
        for d in DIAGRAMS_TO_24:
            for end in (End.LEFT, End.RIGHT):
                expected = walk_outcome(reference_chain, d, end)
                assert walk_outcome(chain.__wrapped__, d, end) == expected, (d.name, end)
                assert (expected is None) == (d.family is Family.D), (d.name, end)

    def test_verdict_equals_edge_path(self):
        for d in DIAGRAMS_TO_24:
            assert is_platonic_chain(d) == is_edge_path(d), d.name

    def test_d_refused_at_both_ends(self):
        for d in DIAGRAMS_TO_24:
            if d.family is Family.D:
                for end in (End.LEFT, End.RIGHT):
                    with pytest.raises(DecorationError, match="chain"):
                        chain(d, end)

    def test_square_count_decides(self):
        # D4's walk from the left never branches: it ends on two squares and
        # no open node, so only the square count refuses it
        with pytest.raises(DecorationError,
                           match="^D4 has no Platonic chain from its left end: ffss has 2 squares$"):
            chain(build(Family.D, 4), End.LEFT)
        assert len(step(build(Family.D, 4), dec("fsoo"))) == 1

    def test_no_interior_seed_keeps_one_square(self):
        interior = 0
        for d in DIAGRAMS_TO_24:
            for k in range(2, d.rank):
                text = "o" * (k - 1) + "s" + "o" * (d.rank - k)
                assert not keeps_one_square(d, text), (d.name, k)
                interior += 1
            for end in (End.LEFT, End.RIGHT):
                assert keeps_one_square(d, seed(d, end).text) == is_edge_path(d), (d.name, end)
        assert interior == 1016  # nodes 2..n-1 over the 95 diagrams

    def test_walk_reads_no_bond_per_step(self):
        # work counted, not timed: each bond the walk iterates is one visit.
        # A per-step scan of every bond makes A400's walk visit four times
        # A200's; reading stored neighbours makes it visit none.
        visits = {200: 0, 400: 0}

        class CountedBonds(tuple):
            def __iter__(self):
                for bond in super().__iter__():
                    visits[len(self) + 1] += 1  # A_n has n - 1 bonds
                    yield bond

        for n in visits:
            d = Diagram(Family.A, n)
            object.__setattr__(d, "edges", CountedBonds(d.edges))
            for end in (End.LEFT, End.RIGHT):
                assert len(chain.__wrapped__(d, end)) == n
        assert visits[400] <= 2 * visits[200], visits


def dual(c):
    """The dual reading: dimension, face group nodes, stabilizer nodes."""
    return c.dual_dimension, c.open_nodes, c.filled_nodes


class TestDualRead:
    def test_vertex_class(self):
        assert dual(dec("soo")) == (2, frozenset({2, 3}), frozenset())

    def test_edge_class(self):
        assert dual(dec("fso")) == (1, frozenset({3}), frozenset({1}))

    def test_top_class(self):
        assert dual(dec("ffs")) == (0, frozenset(), frozenset({1, 2}))

    def test_mirror_of_primal(self):
        # a left k-face class read dually is the right (n-1-k)-face class
        for d in chain_diagrams(6):
            for c, r in zip(chain(d, End.LEFT), reversed(chain(d, End.RIGHT))):
                assert dual(c) == (r.dimension, r.filled_nodes, r.open_nodes), (d.name, c.text)
