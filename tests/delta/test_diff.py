"""Structural deltas: sub-fingerprint trees, classification, cones."""

from __future__ import annotations

from repro.delta.diff import affected_cone, compute_delta
from repro.serve.fingerprint import fingerprint, sub_fingerprints
from repro.workloads.editing import (
    flip_trace,
    growing_trace,
    menu_editing_trace,
    rename_trace,
    replace_rule,
)
from repro.workloads.pl_services import HASH, word_service
from repro.workloads.random_sws import random_pl_sws


class TestSubFingerprints:
    def test_root_matches_whole_instance_fingerprint_equality(self):
        a = random_pl_sws(3, n_states=5)
        b = random_pl_sws(3, n_states=5)
        c = random_pl_sws(4, n_states=5)
        assert sub_fingerprints(a).root == sub_fingerprints(b).root
        assert (fingerprint(a) == fingerprint(c)) == (
            sub_fingerprints(a).root == sub_fingerprints(c).root
        )
        assert sub_fingerprints(a).root != sub_fingerprints(c).root

    def test_rename_is_invariant(self):
        base, renamed = rename_trace(steps=1)[:2]
        assert base.name != renamed.name
        assert sub_fingerprints(base).root == sub_fingerprints(renamed).root

    def test_leaf_digests_localize_the_edit(self):
        trace = menu_editing_trace(edits=1)
        base_tree, new_tree = (sub_fingerprints(sws) for sws in trace)
        changed = base_tree.changed_states(new_tree)
        assert len(changed) == 1
        (state,) = changed
        for other, digest in base_tree.states.items():
            if other != state:
                assert new_tree.states[other] == digest

    def test_changed_states_covers_one_sided_states(self):
        base = word_service(["a", HASH], "ab")
        grown = word_service(["a", "b", HASH], "ab")
        tree, grown_tree = sub_fingerprints(base), sub_fingerprints(grown)
        # States present on only one side count as changed.
        assert set(grown.states) - set(base.states) <= set(
            tree.changed_states(grown_tree)
        )


class TestComputeDelta:
    def test_identical_versions_are_empty(self):
        sws = random_pl_sws(7)
        delta = compute_delta(sws, sws)
        assert delta.is_empty and not delta.is_local

    def test_rename_only_is_empty(self):
        base, renamed = rename_trace(steps=1)[:2]
        assert compute_delta(base, renamed).is_empty

    def test_single_rule_edit_is_local(self):
        base, edited = menu_editing_trace(edits=1)
        delta = compute_delta(base, edited)
        assert delta.is_local and not delta.is_empty
        assert len(delta.changed_states) == 1

    def test_added_and_removed_states_are_global(self):
        short = word_service(["a", HASH], "ab")
        long = word_service(["a", "b", HASH], "ab")
        delta = compute_delta(short, long)
        assert not delta.is_local and not delta.is_empty
        assert delta.added_states
        reverse = compute_delta(long, short)
        assert reverse.removed_states == delta.added_states

    def test_alphabet_growth_is_global(self):
        base, grown = growing_trace()
        delta = compute_delta(base, grown)
        assert delta.alphabet_changed and not delta.is_local

    def test_flip_edit_is_local_both_ways(self):
        base, dead, back = flip_trace()
        assert compute_delta(base, dead).is_local
        assert compute_delta(dead, back).is_local
        # Restoring the guard returns to the original root.
        assert compute_delta(base, back).is_empty


class TestAffectedCone:
    def test_chain_cone_is_the_prefix(self):
        sws = word_service(["a", "b", "c", HASH], "abc")
        cone = affected_cone(sws, frozenset({"w1"}))
        assert "w0" in cone and "w1" in cone
        assert "w2" not in cone and "w3" not in cone

    def test_cone_of_start_is_start(self):
        sws = word_service(["a", HASH], "ab")
        assert affected_cone(sws, frozenset({sws.start})) == {sws.start}

    def test_edit_outside_cone_preserves_leaf_digests(self):
        # The cone is diagnostic; the Merkle tree is authoritative.  An
        # edit to one branch leaves every other branch's digest intact.
        trace = menu_editing_trace(branches=4, edits=1)
        tree0, tree1 = (sub_fingerprints(sws) for sws in trace)
        changed = compute_delta(*trace, tree0, tree1).changed_states
        cone = affected_cone(trace[1], changed)
        assert changed <= cone
        for state in set(trace[0].states) - cone:
            assert tree0.states[state] == tree1.states[state]


def test_rule_object_sharing_hits_the_digest_memo():
    """Edited copies share rule objects, so leaf digests are memo hits."""
    import importlib

    # `repro.serve` re-exports the `fingerprint` *function*, which
    # shadows the submodule on attribute-style imports.
    fp_mod = importlib.import_module("repro.serve.fingerprint")

    base = menu_editing_trace(edits=0)[0]
    sub_fingerprints(base)  # prime the memo
    before = len(fp_mod._STATE_DIGEST_MEMO)
    edited = replace_rule(base, base.start, name="copy")
    sub_fingerprints(edited)
    after = len(fp_mod._STATE_DIGEST_MEMO)
    assert after == before  # every leaf came out of the memo
