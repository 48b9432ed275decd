"""Verification of the declared mutation relations between collection types.

The length-6 collection types of each variety are connected by helix
rotations.  A declared relation chain asserts that one right rotation of
an instance of one type is the declared instance of the next type.  This
module walks each declared chain by rotating, and checks every step
against its declared instance.  A rotation takes only a collection: it
reads its variety from the collection it moves.

Declared chains:

* point model -- the six parameter-free types form a single rotation cycle
  ``(4) -> (5) -> (6) -> (7) -> (8) -> (9) -> (4)``, and the parameterized
  types cycle
  ``(1)_a -> (2)_{a-1} -> (3)_{a-2} -> (1)_{4-a} -> (2)_{3-a} -> (3)_{2-a}
  -> (1)_a``;
* line model -- the two-step descent
  ``(1)_{a,b} -> (2)_{b-a, 3-a} -> (1)_{b-a-1, 2-a}``;
* cubic model -- two sporadic rotation 6-cycles ``(1) -> ... -> (6) -> (1)``
  and ``(7) -> ... -> (12) -> (7)``, and the parameterized cycle
  ``(13)_b -> (14)_{b-1} -> (15)_{b-2} -> (13)_{5-b} -> ... -> (13)_b``
  obtained by composing the declared three-step relation with itself.

Every step must land on exactly its declared instance.  A cycle lists its
start again as its last node, so it closes exactly when its last step is
realized.

EXAMPLES::

    >>> helix_rotate_right(type_instance("point", 4)) == type_instance("point", 5)
    True
    >>> report = verify_mutation_relations(variety_model("line"), 3)
    >>> report.ok
    True
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .geometry import VarietyModel
from .sequences import helix_rotate_right
from .families import TypeLabel, type_instance

__all__ = [
    "StepResult",
    "ChainWalk",
    "RelationReport",
    "verify_mutation_relations",
]


def _sporadic(*indices: int):
    return lambda: tuple((index, ()) for index in indices)


# Per variety: (chain name, parameter names, nodes), where ``nodes(*values)``
# gives the ``(type index, params)`` of every node in walking order.
_CHAINS = {
    "point": (
        ("sporadic-rotation-cycle", (), _sporadic(4, 5, 6, 7, 8, 9, 4)),
        ("parameterized-rotation-cycle", ("a",), lambda a: (
            (1, (a,)), (2, (a - 1,)), (3, (a - 2,)),
            (1, (4 - a,)), (2, (3 - a,)), (3, (2 - a,)), (1, (a,)),
        )),
    ),
    "line": (
        ("two-step-descent", ("a", "b"), lambda a, b: (
            (1, (a, b)), (2, (b - a, 3 - a)), (1, (b - a - 1, 2 - a)),
        )),
    ),
    "cubic": (
        ("sporadic-rotation-cycle-one", (), _sporadic(1, 2, 3, 4, 5, 6, 1)),
        ("sporadic-rotation-cycle-two", (), _sporadic(7, 8, 9, 10, 11, 12, 7)),
        ("parameterized-rotation-cycle", ("b",), lambda b: (
            (13, (b,)), (14, (b - 1,)), (15, (b - 2,)),
            (13, (5 - b,)), (14, (4 - b,)), (15, (3 - b,)), (13, (b,)),
        )),
    ),
}


class StepResult(NamedTuple):
    """One step of a chain walk: whether one right rotation reaches it."""

    declared: TypeLabel
    found: bool


class ChainWalk(NamedTuple):
    """Outcome of walking one chain at one parameter assignment.

    The steps stop at the first one that is not found.
    """

    chain: str
    assignment: tuple[tuple[str, int], ...]
    start: TypeLabel
    steps: tuple[StepResult, ...]

    @property
    def ok(self) -> bool:
        return all(step.found for step in self.steps)


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
            assign = ", ".join(f"{k}={v}" for k, v in walk.assignment) or "-"
            out.extend(
                f"{walk.chain} [{assign}]: one right rotation does not reach "
                f"{step.declared.render()}"
                for step in walk.steps
                if not step.found
            )
        return out


def _walk_chain(
    model: VarietyModel,
    name: str,
    assignment: tuple[tuple[str, int], ...],
    nodes: tuple[tuple[int, tuple[int, ...]], ...],
) -> ChainWalk:
    start, *rest = (TypeLabel(model.tag, index, params) for index, params in nodes)
    current = type_instance(model.tag, start.index, start.params)
    steps: list[StepResult] = []
    for declared in rest:
        current = helix_rotate_right(current)
        found = current == type_instance(model.tag, declared.index, declared.params)
        steps.append(StepResult(declared, found))
        if not found:
            break
    return ChainWalk(name, assignment, start, tuple(steps))


def verify_mutation_relations(
    model: VarietyModel, param_range: int = 5
) -> RelationReport:
    """Walk every declared chain of the variety over a parameter grid.

    INPUT:

    - ``model`` -- the variety model;
    - ``param_range`` -- half-width of the grid for each free chain
      parameter, at least 3.

    Every declared step must be one right rotation that lands on the exact
    declared instance.
    """
    if param_range < 3:
        raise ValueError("relation verification needs a parameter range of at least 3")
    values = range(-param_range, param_range + 1)
    walks = [
        _walk_chain(model, name, tuple(zip(param_names, point)), nodes(*point))
        for name, param_names, nodes in _CHAINS[model.tag]
        for point in product(values, repeat=len(param_names))
    ]
    return RelationReport(model.tag, param_range, tuple(walks))
