"""The graph-rank search answers each odd-hole search once per graph.

`rank.disjunctive_rank_graph` keeps the odd-hole answers of its last
search (`rank._HOLES`, keyed by side of the root pair and deleted
positions) for the next search when that one runs on the same graph or
on its complement: G - F of an antiweb is the complement of G - F of
its web.  The tests compare it with the search that shares
nothing (`oracles.disjunctive_rank_graph_uncached`), and check that the
shared answers outlive no pair, that `recheck` does not read them (it
runs its own searches, or none when G - F or its complement is
chordal), and that they skip neither the deadline nor the closing
perfection check.
"""

import random
import time
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from webrank import graphs, rank
from webrank.graphs import (Graph, SearchTimeout, complement, delete_nodes, is_chordal,
                            limits, web)
from webrank.rank import disjunctive_rank_graph
from webrank.recheck import recheck_certificate

from oracles import disjunctive_rank_graph_polyhedral, disjunctive_rank_graph_uncached


def outcome(res):
    return res.rank, res.deletion_set, res.lower_bound_witnesses


def random_graph(rng, n_max):
    """Up to n_max nodes, labels drawn from 1..4 n_max (rarely contiguous)."""
    nodes = sorted(rng.sample(range(1, 4 * n_max), rng.randint(1, n_max)))
    p = rng.uniform(0.25, 0.75)
    return Graph(nodes, [e for e in combinations(nodes, 2) if rng.random() < p])


@pytest.fixture
def counted_holes(monkeypatch):
    """The (graph, deleted mask) of each odd-hole search that the rank
    search or `recheck` runs."""
    calls = []
    real = graphs.find_induced_odd_hole

    def counting(g, deleted=0):
        calls.append((g, deleted))
        return real(g, deleted)
    monkeypatch.setattr(rank, "find_induced_odd_hole", counting)
    monkeypatch.setattr(graphs, "find_induced_odd_hole", counting)
    return calls


def test_search_unchanged_on_seeded_web_deletions():
    rng = random.Random(1)
    for k in range(2, 8):
        for n in range(2 * (k + 1), 26):
            g = delete_nodes(web(n, k), sorted(rng.sample(range(1, n + 1), 1 + n % 3)))
            assert outcome(disjunctive_rank_graph(g)) == \
                outcome(disjunctive_rank_graph_uncached(g)), (n, k)


def test_search_unchanged_on_random_graphs_after_their_complements():
    rng = random.Random(19)
    ranked = 0
    for _ in range(200):
        g = random_graph(rng, 12)
        for h in (complement(g), g):
            res = disjunctive_rank_graph(h)
            assert outcome(res) == outcome(disjunctive_rank_graph_uncached(h)), h.nodes
            ranked += res.rank > 0
    assert ranked >= 100


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(rank, "_HOLES", {})
    monkeypatch.setattr(rank, "_HOLES_PAIR", None)


def cached_answers_are_searches_on(root):
    """Every answer in the cache is the odd-hole search of its side of
    (root, complement(root)) minus its deleted positions."""
    pair = (root, complement(root))
    assert rank._HOLES_PAIR == pair
    for (side, deleted), hole in rank._HOLES.items():
        assert hole == graphs.find_induced_odd_hole(pair[side], deleted), (side, deleted)


def test_the_cache_holds_the_last_search_only(empty_cache):
    w, u = web(13, 3), delete_nodes(web(12, 2), (5,))
    disjunctive_rank_graph(u)
    alone = set(rank._HOLES)
    cached_answers_are_searches_on(u)
    disjunctive_rank_graph(w)
    disjunctive_rank_graph(complement(w))
    cached_answers_are_searches_on(w)
    pair = set(rank._HOLES)
    disjunctive_rank_graph(u)
    assert set(rank._HOLES) == alone and pair - alone       # the pair's own keys are gone
    cached_answers_are_searches_on(u)


def test_an_antiweb_ranked_after_its_web_reuses_answers(empty_cache, counted_holes):
    w = web(13, 3)
    a = complement(w)
    want = outcome(disjunctive_rank_graph(a))
    fresh = len(counted_holes)
    rank._HOLES.clear()
    disjunctive_rank_graph(w)
    counted_holes.clear()
    assert outcome(disjunctive_rank_graph(a)) == want
    assert 0 < len(counted_holes) < fresh


class _WatchedDict(dict):
    """A dict that records every key looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)


def test_recheck_runs_its_own_searches(monkeypatch, counted_holes):
    """W_10^3 minus its deletion set {1, 2} is neither chordal nor
    co-chordal, so `recheck` proves it perfect by its own two odd-hole
    searches, and reads none of the search's shared answers."""
    g = web(10, 3)
    cert = disjunctive_rank_graph(g).to_json(g)
    rest = delete_nodes(g, cert["deletion_set"])
    assert cert["deletion_set"] == [1, 2]
    assert not is_chordal(rest) and not is_chordal(complement(rest))
    watched = _WatchedDict(rank._HOLES)
    monkeypatch.setattr(rank, "_HOLES", watched)
    counted_holes.clear()
    assert recheck_certificate(cert)[0]
    assert counted_holes == [(rest, 0), (complement(rest), 0)]
    assert watched.reads == []


def test_recheck_proves_a_chordal_g_minus_f_with_no_odd_hole_search(counted_holes):
    """W_10^2 minus its deletion set {1, 2} is chordal, so `is_perfect`
    answers from the chordality test and runs no odd-hole search."""
    g = web(10, 2)
    cert = disjunctive_rank_graph(g).to_json(g)
    assert cert["deletion_set"] == [1, 2] and is_chordal(delete_nodes(g, (1, 2)))
    counted_holes.clear()
    assert recheck_certificate(cert)[0]
    assert counted_holes == []


def test_cached_answers_still_meet_the_deadline(empty_cache, counted_holes):
    w = web(13, 3)
    disjunctive_rank_graph(w)
    disjunctive_rank_graph(complement(w))
    counted_holes.clear()
    assert outcome(disjunctive_rank_graph(w)) == outcome(disjunctive_rank_graph_uncached(w))
    counted_holes.clear()
    disjunctive_rank_graph(complement(w))
    assert counted_holes == []                  # every answer of the pair is kept
    with limits(deadline=time.monotonic() - 1), pytest.raises(SearchTimeout):
        disjunctive_rank_graph(w)


def test_the_closing_guard_checks_a_wrong_deletion_set(monkeypatch):
    g = web(8, 2)
    assert disjunctive_rank_graph(g).rank == 2
    for fresh in (False, True):
        if fresh:
            monkeypatch.setattr(rank, "_HOLES", {})
        # right size (the first `size` nodes), but g minus it keeps an odd
        # hole or antihole
        monkeypatch.setattr(rank, "hitting_set",
                            lambda masks, size, seed=0, refute=None: (1 << size) - 1)
        with pytest.raises(RuntimeError, match="hitting-set search"):
            disjunctive_rank_graph(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(1, n + 1), [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(small_graphs())
def test_rank_of_a_graph_and_of_its_complement_is_the_polyhedral_rank(g):
    r = disjunctive_rank_graph(g).rank
    assert disjunctive_rank_graph(complement(g)).rank == r
    assert disjunctive_rank_graph_polyhedral(g) == r
