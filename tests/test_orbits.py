"""Isomorphism classes: the canonical form and the class census behind
count_free."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlab import DIGRAPH, ORIENTED, BlowupSpec, Digraph, contains, count_free_naive
from ttlab.census import _free_attachments
from ttlab.orbits import canonical_form, grow_classes
from ttlab.oracle import SWEEP_BOUND

MODES = [DIGRAPH, ORIENTED]
#: pair states drawn in each mode (oriented graphs have no digon, state 3)
STATES = {DIGRAPH: 3, ORIENTED: 2}


def graphs(mode: str, max_n: int):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.integers(0, STATES[mode]), min_size=comb(n, 2),
                           max_size=comb(n, 2))
        .map(lambda states: Digraph(n, tuple(states))))


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(MODES), data=st.data())
def test_canonical_form_is_a_relabelling_shared_by_every_relabelling(mode, data):
    g = data.draw(graphs(mode, 6))
    n = g.n
    perm = data.draw(st.permutations(range(n)))
    relabelled = Digraph.from_arcs(n, [(perm[u], perm[v]) for u, v in g.arcs()])
    form = canonical_form(g.out_masks)
    assert canonical_form(relabelled.out_masks) == form
    # the form is a digraph of g's class: as many single arcs and digons,
    # and g embeds in it, so the embedding is an isomorphism
    h = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n) if form[u] >> v & 1])
    assert (h.f1, h.f2) == (g.f1, g.f2)
    assert contains(h, g) is not None
    assert canonical_form(form) == form


# unlabelled digraphs (OEIS A000273) and oriented graphs (A001174) on
# m = 0, 1, 2, ... vertices
UNLABELLED = {DIGRAPH: (1, 1, 3, 16, 218), ORIENTED: (1, 1, 2, 7, 42, 582)}


@pytest.mark.parametrize("mode", MODES)
def test_classes_without_a_fitting_pattern_are_all_unlabelled_digraphs(mode):
    # T_2^3 has six vertices, so every digraph here is free: one class per
    # isomorphism class, and the labelled counts add up to every digraph
    spec = BlowupSpec(2, 3)
    radix = 4 if mode == DIGRAPH else 3
    for m, classes in enumerate(UNLABELLED[mode]):
        table = grow_classes(m, _free_attachments, spec, mode)
        assert len(table) == classes, m
        assert sum(table.values()) == radix ** comb(m, 2), m


@pytest.mark.parametrize("mode", MODES)
def test_class_counts_sum_to_the_free_count_at_every_level(mode):
    # N(C) summed over the classes is the labelled free count: checked
    # against the unpruned sweep at each level up to its bound for T_3^1,
    # and up to five vertices for T_2^2
    for spec, top in ((BlowupSpec(3, 1), SWEEP_BOUND[mode]), (BlowupSpec(2, 2), 5)):
        for m in range(top + 1):
            table = grow_classes(m, _free_attachments, spec, mode)
            assert sum(table.values()) == count_free_naive(m, spec, mode), (str(spec), m)
