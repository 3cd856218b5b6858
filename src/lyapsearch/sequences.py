"""Enumeration of admissible operation sequences and grouping of the results.

A sequence is staged: A1 first, then one choice from each of the B, C, first-D,
mixed E/F/D, and second-D stage sets.  The stage sets below are the complete
reduced families; their product has 1 * 10 * 2 * 13 * 7 * 13 = 23660 members.
Applying them all to a system's initial pair and grouping structurally equal
results is the search space the analysis ranks.

Operations act on the pair alone, not on how it was reached, so the product is
expanded stage by stage over distinct states rather than path by path: the
23660 paths pass through only a few hundred distinct pairs.  A state is the
tuple of its 34 entry ids in the enumeration's EntryPool, interned to an int
state id when first reached.  A per-call table of transitions (state id,
operation) -> state id runs apply_to_cells only on a miss, and the pool
computes each distinct entry update once, so Expr arithmetic runs once per
distinct update and a stage choice is a fold of table lookups.  Provenance
is not carried along the way: a group's representative is rebuilt from its
first member's operations.  A group keeps the number of its members and the
state they end in; their positions in the stage-product order are walked out
of the kept per-stage moves, and decoded into OperationSequences, only when
they are read.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

from .pq import EntryPool, PQPair, apply_operation, apply_to_cells, initial_pair
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
class Enumeration:
    """What the groups of one enumerate_pairs call share.

    pool interns every entry reached; cells holds each distinct state's
    entry ids, by state id, state 0 being the initial pair after A1; and
    moves holds, per stage, each state the stage starts from and the state
    each of its choices leads to.
    """

    pool: EntryPool
    cells: list[tuple[int, ...]]
    moves: list[dict[int, tuple[int, ...]]]

    def positions(self, state: int) -> list[int]:
        """The sorted positions in generate_sequences() of the sequences that
        end in state.

        A backward pass over moves marks, per stage, the states from which
        state can still be reached; the forward walk then expands only
        those, in product order, so the positions come out sorted.
        """
        reach = [{state}]
        for moves in reversed(self.moves):
            reach.append({source for source, targets in moves.items()
                          if not reach[-1].isdisjoint(targets)})
        reach.reverse()
        prefixes = [(0, 0)]  # (position so far, state)
        for stage, moves, ahead in zip(STAGES, self.moves, reach[1:]):
            size = len(stage)
            prefixes = [(prefix * size + choice, target) for prefix, source in prefixes
                        for choice, target in enumerate(moves[source]) if target in ahead]
        return [position for position, _state in prefixes]


@dataclass
class PairGroup:
    """A group of equal pairs: its representative, the number of its members,
    and the state that ends each of them in its enumeration.  The members'
    positions and sequences are worked out only when read."""

    group_id: int
    representative: PQPair
    member_count: int
    state: int
    enumeration: Enumeration = field(repr=False, compare=False)

    @property
    def pool(self) -> EntryPool:
        return self.enumeration.pool

    @property
    def cells(self) -> tuple[int, ...]:
        """The representative's entries, as ids of pool."""
        return self.enumeration.cells[self.state]

    @property
    def positions(self) -> list[int]:
        """The members' sorted positions in generate_sequences()."""
        return self.enumeration.positions(self.state)

    @property
    def sequences(self) -> list[OperationSequence]:
        return [_sequence_at(i) for i in self.positions]

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
    its first occurrence.  A state carries the number of prefixes that reach
    it and the position of the first, in the product order of the stages so
    far; after the last stage the first is the group's first member, whose
    operations become the representative's provenance.
    """
    pool = EntryPool()
    enumeration = Enumeration(pool, [pool.cells(apply_operation(initial_pair(system), "A1"))], [])
    cells = enumeration.cells  # by state id
    state_ids = {cells[0]: 0}
    transitions: dict[tuple[int, str], int] = {}

    def step(state: int, op: str) -> int:
        target = transitions.get((state, op))
        if target is None:
            new = apply_to_cells(cells[state], op, pool)
            target = state_ids.setdefault(new, len(cells))
            if target == len(cells):
                cells.append(new)
            transitions[(state, op)] = target
        return target

    states: dict[int, list[int]] = {0: [1, 0]}  # state -> [members, first position]
    for stage in STAGES:
        size = len(stage)
        moves: dict[int, tuple[int, ...]] = {}
        reached: dict[int, list[int]] = {}
        for state, (count, first) in states.items():
            targets = moves[state] = tuple(functools.reduce(step, ops, state) for ops in stage)
            for choice, target in enumerate(targets):
                seen = reached.get(target)
                if seen is None:
                    reached[target] = [count, first * size + choice]
                else:
                    seen[0] += count
        enumeration.moves.append(moves)
        states = reached
    return [PairGroup(group_id, pool.pair(cells[state], _sequence_at(first).ops()), count,
                      state, enumeration)
            for group_id, (state, (count, first)) in enumerate(states.items())]


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
