"""Enumeration of admissible operation sequences and grouping of the results.

A sequence is staged: A1 first, then one choice from each of the B, C, first-D,
mixed E/F/D, and second-D stage sets.  The stage sets below are the complete
reduced families; their product has 1 * 10 * 2 * 13 * 7 * 13 = 23660 members.
Applying them all to a system's initial pair and grouping structurally equal
results is the search space the analysis ranks.

Operations act on the pair alone, not on how it was reached, so the product is
expanded stage by stage over distinct states rather than path by path: the
23660 paths pass through only a few hundred distinct pairs.  Each distinct
pair is interned to an int state id when first reached, and a per-call table
of transitions (state id, operation) -> state id runs apply_operation only on
a miss, so a stage choice is a fold of table lookups and each distinct
transition is applied once.  Provenance is not carried along the way: a
group's representative is rebuilt from its first member's operations.  A
group keeps its members as their positions in the stage-product order, and
decodes them into OperationSequences only when they are read.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

from .pq import PQPair, apply_operation, initial_pair
from .systems import OdeSystemSpec

B_STAGES: tuple[tuple[str, ...], ...] = (
    (),
    ("B1",),
    ("B2",),
    ("B1", "B2"),
    ("B3",),
    ("B1", "B3"),
    ("B2", "B3"),
    ("B1", "B2", "B3"),
    ("B3", "B2"),
    ("B1", "B3", "B2"),
)

C_STAGES: tuple[tuple[str, ...], ...] = ((), ("C1",))

D_STAGES: tuple[tuple[str, ...], ...] = (
    (),
    ("D1",),
    ("D2",),
    ("D3",),
    ("D4",),
    ("D1", "D3"),
    ("D1", "D4"),
    ("D2", "D3"),
    ("D2", "D4"),
    ("D3", "D1"),
    ("D3", "D2"),
    ("D1", "D3", "D2"),
    ("D2", "D3", "D1"),
)

M_STAGES: tuple[tuple[str, ...], ...] = (
    (),
    ("E1",),
    ("F1",),
    ("E1", "F1"),
    ("E1", "D3", "D2", "F1"),
    ("F1", "D2", "D3", "E1"),
    ("F1", "D2", "D3", "D1", "E1", "D3", "D2", "F1"),
)

STAGES = (B_STAGES, C_STAGES, D_STAGES, M_STAGES, D_STAGES)

TOTAL_SEQUENCES = math.prod(len(stage) for stage in STAGES)


@dataclass(frozen=True, slots=True)
class OperationSequence:
    b: tuple[str, ...]
    c: tuple[str, ...]
    d1: tuple[str, ...]
    m: tuple[str, ...]
    d2: tuple[str, ...]

    def ops(self) -> tuple[str, ...]:
        return ("A1",) + self.b + self.c + self.d1 + self.m + self.d2

    def label(self) -> str:
        return ">".join(self.ops())


def generate_sequences() -> list[OperationSequence]:
    """All admissible sequences, in the fixed stage-product order."""
    return [OperationSequence(*choices) for choices in itertools.product(*STAGES)]


def _sequence_at(position: int) -> OperationSequence:
    """generate_sequences()[position], decoded in mixed radix over the stages."""
    choices = []
    for stage in reversed(STAGES):
        position, choice = divmod(position, len(stage))
        choices.append(stage[choice])
    return OperationSequence(*reversed(choices))


@dataclass
class PairGroup:
    """A group of equal pairs: its members are held as their sorted positions in
    generate_sequences(), and decoded only when sequences is read."""

    group_id: int
    representative: PQPair
    positions: list[int]

    @property
    def sequences(self) -> list[OperationSequence]:
        return [_sequence_at(i) for i in self.positions]

    @property
    def member_count(self) -> int:
        return len(self.positions)

    def label(self) -> str:
        """The first member's label(), read off the representative's provenance."""
        return ">".join(self.representative.provenance)


def enumerate_pairs(system: OdeSystemSpec) -> list[PairGroup]:
    """Apply every sequence to the system's initial pair and group equal results.

    Grouping compares the full matrices entry-wise in canonical form, with
    gamma abstract and the system's free parameters symbolic.  Groups are
    numbered by first occurrence in the fixed sequence order, which makes two
    runs produce identical partitions.

    Each stage maps the distinct states of the previous one, in first-occurrence
    order, through its choices in order, so the first insertion of a state is
    its first occurrence.  A state carries the positions, in the product order
    of the stages so far, of every prefix that reaches it; after the last stage
    these index generate_sequences(), and the smallest is the group's first
    member, whose operations become the representative's provenance.
    """
    pairs = [apply_operation(initial_pair(system), "A1")]  # by state id
    state_ids = {pairs[0].matrix_key(): 0}
    transitions: dict[tuple[int, str], int] = {}

    def step(state: int, op: str) -> int:
        target = transitions.get((state, op))
        if target is None:
            new = apply_operation(pairs[state], op)
            target = state_ids.setdefault(new.matrix_key(), len(pairs))
            if target == len(pairs):
                pairs.append(new)
            transitions[(state, op)] = target
        return target

    states: dict[int, list[int]] = {0: [0]}
    for stage in STAGES:
        size = len(stage)
        reached: dict[int, list[int]] = {}
        for state, prefixes in states.items():
            for choice, ops in enumerate(stage):
                positions = [prefix * size + choice for prefix in prefixes]
                target = functools.reduce(step, ops, state)
                if target in reached:
                    reached[target].extend(positions)
                else:
                    reached[target] = positions
        states = reached
    groups = []
    for group_id, (state, positions) in enumerate(states.items()):
        positions.sort()
        pair = pairs[state]
        representative = PQPair(pair.P, pair.Q, _sequence_at(positions[0]).ops(), True)
        groups.append(PairGroup(group_id, representative, positions))
    return groups


def max_observed_gamma_order(groups: list[PairGroup]) -> int:
    """Highest gamma-derivative order across all group representatives."""
    return max(g.representative.max_gamma_order() for g in groups)


def _nonzero_sketch(pair: PQPair) -> str:
    p = [f"P{i}{j}" for i in range(1, 4) for j in range(i, 4) if pair.p_entry(i, j)]
    q = [f"Q{i}{j}" for i in range(1, 6) for j in range(i, 6) if pair.q_entry(i, j)]
    return " ".join(p) + "|" + " ".join(q)


def dump_groups_csv(groups: list[PairGroup], path: str | Path, system_name: str = "") -> None:
    """One row per group: id, member count, a representative sequence, sketch."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# pair groups for system={system_name}; gamma abstract; "
                 f"max gamma-derivative order {max_observed_gamma_order(groups)}\n")
        writer = csv.writer(fh)
        writer.writerow(["group_id", "member_count", "representative", "nonzero_entries"])
        for group in groups:
            writer.writerow([
                group.group_id,
                group.member_count,
                group.label(),
                _nonzero_sketch(group.representative),
            ])
