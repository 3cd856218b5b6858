import csv
import random

import pytest

from lyapsearch import pq, sequences
from lyapsearch.pq import apply_operation, apply_sequence, initial_pair
from lyapsearch.sequences import (B_STAGES, C_STAGES, D_STAGES, M_STAGES, OperationSequence,
                                  TOTAL_SEQUENCES, dump_groups_csv, enumerate_pairs,
                                  generate_sequences, max_observed_gamma_order)
from lyapsearch.systems import CATALOG, load_system


def test_stage_set_sizes():
    assert (len(B_STAGES), len(C_STAGES), len(D_STAGES), len(M_STAGES)) == (10, 2, 13, 7)
    assert TOTAL_SEQUENCES == 10 * 2 * 13 * 7 * 13 == 23660


def test_generate_sequences_count_and_unique():
    seqs = generate_sequences()
    assert len(seqs) == 23660
    assert len(set(seqs)) == 23660
    assert all(s.ops()[0] == "A1" for s in seqs)
    seqs.clear()  # each call returns a list of its own
    assert len(generate_sequences()) == 23660


def test_all_empty_stages_is_bare_a1():
    seqs = generate_sequences()
    empty = OperationSequence((), (), (), (), ())
    assert seqs[0] == empty
    assert empty.ops() == ("A1",)


def test_specific_sequence_present_exactly_once():
    target = OperationSequence(
        b=("B1", "B2", "B3"), c=("C1",), d1=("D2", "D3", "D1"),
        m=("F1", "D2", "D3", "D1", "E1", "D3", "D2", "F1"), d2=("D1", "D3", "D2"))
    seqs = generate_sequences()
    assert seqs.count(target) == 1
    # Stage choices 7, 1, 12, 6 and 11, in the product order of the stages.
    assert seqs.index(target) == (((7 * 2 + 1) * 13 + 12) * 7 + 6) * 13 + 11


def test_enumeration_deterministic(enumerations):
    first = enumerations("damped-newton")
    second = enumerate_pairs(CATALOG["damped-newton"])
    assert [(g.representative.P, g.representative.Q) for g in first] == \
           [(g.representative.P, g.representative.Q) for g in second]
    assert [len(g.sequences) for g in first] == [len(g.sequences) for g in second]


def test_group_members_share_matrices(enumerations):
    groups = enumerations("nag")
    system = CATALOG["nag"]
    rng = random.Random(5)
    for group in groups:
        for seq in rng.sample(group.sequences, min(3, len(group.sequences))):
            pair = apply_sequence(initial_pair(system), seq.ops())
            assert (pair.P, pair.Q) == (group.representative.P, group.representative.Q)
    assert sum(g.member_count for g in groups) == 23660


def test_out_of_family_sequences_land_in_known_groups(enumerations):
    """Sampled reduction soundness: arbitrary admissible compositions collapse
    into the enumerated set (repeats and re-ordered commuting steps included)."""
    groups = enumerations("damped-newton")
    known = {(g.representative.P, g.representative.Q) for g in groups}
    system = CATALOG["damped-newton"]
    ops_pool = ["B1", "B2", "B3", "C1", "D1", "D2", "D3", "D4", "E1", "F1"]
    rng = random.Random(11)
    canonical = set(generate_sequences()[i].ops() for i in rng.sample(range(23660), 200))
    checked = 0
    while checked < 50:
        tail = tuple(rng.choice(ops_pool) for _ in range(rng.randint(1, 12)))
        if ("A1",) + tail in canonical:
            continue
        pair = apply_sequence(initial_pair(system), ("A1",) + tail)
        assert (pair.P, pair.Q) in known
        checked += 1


def test_max_gamma_order_reported(enumerations):
    # The enumeration never needs more than a handful of nested derivatives;
    # record what actually occurs.
    order = max_observed_gamma_order(enumerations("nag"))
    assert 2 <= order <= 5


def test_dump_groups_csv(tmp_path, enumerations):
    groups = enumerations("damped-newton")
    path = tmp_path / "groups.csv"
    dump_groups_csv(groups, path, "damped-newton")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["group_id", "member_count", "representative", "nonzero_entries"]
    assert len(rows) == 1 + len(groups)
    assert sum(int(r[1]) for r in rows[1:]) == 23660
    assert rows[1][2].startswith("A1")


def test_each_distinct_transition_and_entry_update_is_computed_once(monkeypatch):
    """enumerate_pairs applies the rules once per distinct (state, operation)
    the stages reach, and computes each distinct entry update through Exprs
    once; every other step is a table lookup.  A1 is applied once, to the
    initial pair."""
    transitions, updates = [], []
    apply_to_cells = sequences.apply_to_cells
    scaled = pq._scaled
    computed = [0]  # Expr updates so far: each computes one scaled term

    def counting_apply(cells, op, pool):
        transitions.append((cells, op))
        return apply_to_cells(cells, op, pool)

    def counting_scaled(factor, value):
        computed[0] += 1
        return scaled(factor, value)

    def recording(update):
        def run(pool, *key):
            before = computed[0]
            new = update(pool, *key)
            if computed[0] > before:
                updates.append(key)
            return new
        return run

    monkeypatch.setattr(sequences, "apply_to_cells", counting_apply)
    monkeypatch.setattr(pq, "_scaled", counting_scaled)
    monkeypatch.setattr(pq.EntryPool, "add", recording(pq.EntryPool.add))
    monkeypatch.setattr(pq.EntryPool, "sub", recording(pq.EntryPool.sub))
    counts = {}
    for name, system in CATALOG.items():
        transitions.clear()
        updates.clear()
        enumerate_pairs(system)
        assert len(transitions) == len(set(transitions)), name
        assert len(updates) == len(set(updates)), name
        assert "A1" not in {op for _cells, op in transitions}, name
        counts[name] = (len(transitions), len(updates))
    # (transitions, entry updates), A1's three updates included.
    assert counts == {"damped-newton": (96, 39), "first-order-hessian": (190, 45),
                      "second-order-hessian": (939, 61), "nag": (79, 14),
                      "generalized-nag": (79, 14), "hessian-nag": (939, 61)}


def _reference_enumerate_pairs(system):
    """Path-by-path enumeration: every sequence applied in product order.

    This is the enumerator that the stage-wise expansion over distinct states
    replaced; it returns (representative, members) per group in id order.
    """
    base = apply_operation(initial_pair(system), "A1")
    groups = {}
    for b in B_STAGES:
        pair_b = apply_sequence(base, b)
        for c in C_STAGES:
            pair_c = apply_sequence(pair_b, c)
            for d1 in D_STAGES:
                pair_d1 = apply_sequence(pair_c, d1)
                for m in M_STAGES:
                    pair_m = apply_sequence(pair_d1, m)
                    for d2 in D_STAGES:
                        final = apply_sequence(pair_m, d2)
                        seq = OperationSequence(b, c, d1, m, d2)
                        group = groups.get((final.P, final.Q))
                        if group is None:
                            groups[(final.P, final.Q)] = (final, [seq])
                        else:
                            group[1].append(seq)
    return list(groups.values())


def _assert_matches_reference(groups, system):
    reference = _reference_enumerate_pairs(system)
    assert [g.group_id for g in groups] == list(range(len(reference)))
    for group, (pair, members) in zip(groups, reference, strict=True):
        assert (group.representative.P, group.representative.Q) == (pair.P, pair.Q)
        assert group.representative.provenance == pair.provenance
        assert group.sequences == members


def test_group_members_are_positions_decoded_on_read(enumerations):
    sequences = generate_sequences()
    for name in ("nag", "second-order-hessian"):
        groups = enumerations(name)
        assert sorted(i for g in groups for i in g.positions) == list(range(len(sequences)))
        for group in groups:
            assert group.positions == sorted(group.positions)
            assert group.sequences == [sequences[i] for i in group.positions]
            assert group.member_count == len(group.positions)
            assert group.label() == sequences[group.positions[0]].label()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_enumeration_matches_path_by_path_reference(name, enumerations):
    _assert_matches_reference(enumerations(name), CATALOG[name])


def test_enumeration_matches_reference_on_spec_system(tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text("name = custom\n"
                    "coeff_v1 = 1/2\n"
                    "coeff_v2 = 1\n"
                    "coeff_v3 = 1*a + 1*t^-1\n"
                    "coeff_v4 = 1*b*t\n"
                    "coeff_v5 = 1 + 1/4*t\n")
    system = load_system(path)
    _assert_matches_reference(enumerate_pairs(system), system)
