"""Verification of the declared mutation relations between collection types.

The length-6 collection types of each variety are connected by *moves*:
helix rotations (either direction) and transpositions of completely
orthogonal neighbours.  A declared relation chain asserts that from an
instance of one type a short move sequence reaches an instance of the next
type.  This module realizes each declared step by breadth-first search
over the move graph (depth at most 8) and reports the move words found.

Declared chains:

* point model -- the six parameter-free types form a single rotation cycle
  ``(4) -> (5) -> (6) -> (7) -> (8) -> (9) -> (4)``, and the parameterized
  types cycle ``(1)_a -> (2) -> (3) -> (1)_{4-a} -> (2) -> (3) -> (1)_a``
  with the waypoint parameters pinned at every visit to type (1).  The
  intermediate visits to types (2) and (3) are *non-strict*: the search
  records which parameters actually occur (``a - 1, a - 2, 3 - a, 2 - a``)
  instead of asserting declared ones;
* line model -- the two-step descent
  ``(1)_{a,b} -> (2)_{b-a, 3-a} -> (1)_{b-a-1, 2-a}``, fully strict;
* cubic model -- two sporadic rotation 6-cycles ``(1) -> ... -> (6) -> (1)``
  and ``(7) -> ... -> (12) -> (7)``, and the parameterized cycle
  ``(13)_b -> (14)_{b-1} -> (15)_{b-2} -> (13)_{5-b} -> ... -> (13)_b``
  obtained by composing the declared three-step relation with itself.

For cyclic chains the walk is additionally required to return to the exact
starting collection.

EXAMPLES::

    >>> report = verify_mutation_relations(variety_model("line"), 3)
    >>> report.ok
    True
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, NamedTuple, Optional

from .geometry import VarietyModel
from .sequences import (
    Collection,
    helix_rotate_left,
    helix_rotate_right,
    transpose_orthogonal,
)
from .families import TypeLabel, matching_type_labels, type_instance

__all__ = [
    "MAX_SEARCH_DEPTH",
    "StepResult",
    "ChainWalk",
    "RelationReport",
    "find_move_path",
    "verify_mutation_relations",
]

MAX_SEARCH_DEPTH = 8

Assignment = dict[str, int]
ParamsOf = Callable[[Assignment], tuple[int, ...]]


class _ChainNode(NamedTuple):
    type_index: int
    params_of: ParamsOf
    strict: bool


class _ChainSpec(NamedTuple):
    name: str
    variety: str
    free_params: tuple[str, ...]
    nodes: tuple[_ChainNode, ...]
    cyclic: bool


def _node(type_index: int, params_of: ParamsOf, strict: bool = True) -> _ChainNode:
    return _ChainNode(type_index, params_of, strict)


def _const(*values: int) -> ParamsOf:
    return lambda assignment: values


_CHAINS: dict[str, tuple[_ChainSpec, ...]] = {
    "point": (
        _ChainSpec(
            name="sporadic-rotation-cycle",
            variety="point",
            free_params=(),
            nodes=tuple(
                _node(idx, _const()) for idx in (4, 5, 6, 7, 8, 9, 4)
            ),
            cyclic=True,
        ),
        _ChainSpec(
            name="parameterized-rotation-cycle",
            variety="point",
            free_params=("a",),
            nodes=(
                _node(1, lambda v: (v["a"],)),
                _node(2, lambda v: (v["a"],), strict=False),
                _node(3, lambda v: (v["a"],), strict=False),
                _node(1, lambda v: (4 - v["a"],)),
                _node(2, lambda v: (4 - v["a"],), strict=False),
                _node(3, lambda v: (4 - v["a"],), strict=False),
                _node(1, lambda v: (v["a"],)),
            ),
            cyclic=True,
        ),
    ),
    "line": (
        _ChainSpec(
            name="two-step-descent",
            variety="line",
            free_params=("a", "b"),
            nodes=(
                _node(1, lambda v: (v["a"], v["b"])),
                _node(2, lambda v: (v["b"] - v["a"], 3 - v["a"])),
                _node(1, lambda v: (v["b"] - v["a"] - 1, 2 - v["a"])),
            ),
            cyclic=False,
        ),
    ),
    "cubic": (
        _ChainSpec(
            name="sporadic-rotation-cycle-one",
            variety="cubic",
            free_params=(),
            nodes=tuple(
                _node(idx, _const()) for idx in (1, 2, 3, 4, 5, 6, 1)
            ),
            cyclic=True,
        ),
        _ChainSpec(
            name="sporadic-rotation-cycle-two",
            variety="cubic",
            free_params=(),
            nodes=tuple(
                _node(idx, _const()) for idx in (7, 8, 9, 10, 11, 12, 7)
            ),
            cyclic=True,
        ),
        _ChainSpec(
            name="parameterized-rotation-cycle",
            variety="cubic",
            free_params=("b",),
            nodes=(
                _node(13, lambda v: (v["b"],)),
                _node(14, lambda v: (v["b"] - 1,)),
                _node(15, lambda v: (v["b"] - 2,)),
                _node(13, lambda v: (5 - v["b"],)),
                _node(14, lambda v: (4 - v["b"],)),
                _node(15, lambda v: (3 - v["b"],)),
                _node(13, lambda v: (v["b"],)),
            ),
            cyclic=True,
        ),
    ),
}


def _neighbors(model: VarietyModel, seq: Collection) -> Iterator[tuple[str, Collection]]:
    yield "rotate_right", helix_rotate_right(model, seq)
    yield "rotate_left", helix_rotate_left(model, seq)
    for i in range(len(seq.entries) - 1):
        try:
            yield f"transpose:{i + 1}", transpose_orthogonal(model, seq, i)
        except ValueError:
            continue


def find_move_path(
    model: VarietyModel,
    start: Collection,
    accept: Callable[[Collection], bool],
    max_depth: int = MAX_SEARCH_DEPTH,
) -> Optional[tuple[tuple[str, ...], Collection]]:
    """Shortest move word (at least one move) reaching an accepted collection.

    Breadth-first search over rotations and legal transpositions, bounded
    by ``max_depth`` moves; returns ``None`` when nothing acceptable is in
    range.
    """
    visited = {start}
    queue: deque[tuple[Collection, tuple[str, ...]]] = deque([(start, ())])
    while queue:
        seq, moves = queue.popleft()
        if len(moves) >= max_depth:
            continue
        for token, nxt in _neighbors(model, seq):
            if nxt in visited:
                continue
            word = moves + (token,)
            if accept(nxt):
                return word, nxt
            visited.add(nxt)
            queue.append((nxt, word))
    return None


class StepResult(NamedTuple):
    """One realized (or failed) step of a chain walk."""

    declared: TypeLabel
    discovered: Optional[TypeLabel]
    moves: Optional[tuple[str, ...]]
    strict: bool

    @property
    def found(self) -> bool:
        return self.moves is not None

    @property
    def params_match(self) -> bool:
        return self.discovered is not None and self.discovered == self.declared


class ChainWalk(NamedTuple):
    """Outcome of walking one chain at one parameter assignment."""

    chain: str
    assignment: tuple[tuple[str, int], ...]
    start: TypeLabel
    steps: tuple[StepResult, ...]
    cycle_closed: Optional[bool]

    @property
    def ok(self) -> bool:
        if any(not step.found for step in self.steps):
            return False
        if any(step.strict and not step.params_match for step in self.steps):
            return False
        return self.cycle_closed is not False


class RelationReport(NamedTuple):
    """All chain walks for one variety over a parameter range."""

    variety: str
    param_range: int
    walks: tuple[ChainWalk, ...]

    @property
    def ok(self) -> bool:
        return all(walk.ok for walk in self.walks)

    def failures(self) -> list[str]:
        out = []
        for walk in self.walks:
            if walk.ok:
                continue
            assign = ", ".join(f"{k}={v}" for k, v in walk.assignment) or "-"
            for step in walk.steps:
                if not step.found:
                    out.append(
                        f"{walk.chain} [{assign}]: no move word reaches "
                        f"{step.declared.render()}"
                    )
                elif step.strict and not step.params_match:
                    out.append(
                        f"{walk.chain} [{assign}]: declared {step.declared.render()} "
                        f"but discovered {step.discovered.render()}"
                    )
            if walk.cycle_closed is False:
                out.append(f"{walk.chain} [{assign}]: cycle does not close")
        return out


def _walk_chain(
    model: VarietyModel, spec: _ChainSpec, assignment: Assignment
) -> ChainWalk:
    start_node = spec.nodes[0]
    start_label = TypeLabel(
        spec.variety, start_node.type_index, start_node.params_of(assignment)
    )
    start = type_instance(spec.variety, start_label.index, start_label.params)
    current = start
    steps: list[StepResult] = []
    for node in spec.nodes[1:]:
        declared = TypeLabel(spec.variety, node.type_index, node.params_of(assignment))
        if node.strict:
            target = type_instance(spec.variety, declared.index, declared.params)
            hit = find_move_path(model, current, lambda seq: seq == target)
            if hit is None:
                steps.append(StepResult(declared, None, None, True))
                break
            moves, current = hit
            steps.append(StepResult(declared, declared, moves, True))
        else:
            def is_instance(seq: Collection, want: int = node.type_index) -> bool:
                return any(
                    label.index == want for label in matching_type_labels(model, seq)
                )

            hit = find_move_path(model, current, is_instance)
            if hit is None:
                steps.append(StepResult(declared, None, None, False))
                break
            moves, current = hit
            discovered = next(
                label
                for label in matching_type_labels(model, current)
                if label.index == node.type_index
            )
            steps.append(StepResult(declared, discovered, moves, False))
    finished = len(steps) == len(spec.nodes) - 1
    cycle_closed: Optional[bool] = None
    if spec.cyclic:
        cycle_closed = finished and current == start
    return ChainWalk(
        chain=spec.name,
        assignment=tuple(sorted(assignment.items())),
        start=start_label,
        steps=tuple(steps),
        cycle_closed=cycle_closed,
    )


def verify_mutation_relations(
    model: VarietyModel, param_range: int = 5
) -> RelationReport:
    """Walk every declared chain of the variety over a parameter grid.

    INPUT:

    - ``model`` -- the variety model;
    - ``param_range`` -- half-width of the grid for each free chain
      parameter, at least 3.

    Every declared step must be realized by some move word; strict steps
    must land on the exact declared instance; cyclic chains must return to
    their starting collection.
    """
    if param_range < 3:
        raise ValueError("relation verification needs a parameter range of at least 3")
    walks: list[ChainWalk] = []
    for spec in _CHAINS[model.tag]:
        if not spec.free_params:
            walks.append(_walk_chain(model, spec, {}))
            continue
        grid: list[Assignment] = [{}]
        for name in spec.free_params:
            grid = [
                {**partial, name: value}
                for partial in grid
                for value in range(-param_range, param_range + 1)
            ]
        for assignment in grid:
            walks.append(_walk_chain(model, spec, assignment))
    return RelationReport(
        variety=model.tag, param_range=param_range, walks=tuple(walks)
    )
