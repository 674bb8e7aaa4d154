"""Shared fixtures: a hand-built 8-node demo family plus table generators."""

from __future__ import annotations

import numpy as np
import pytest

from qbnsl.bucket_cover import BlockPartition, CoverMember
from qbnsl.instance import Dag, NodeSet
from qbnsl.tables import random_table
from reference import LinearOrder

__all__ = ["random_table"]


@pytest.fixture
def demo_dag() -> Dag:
    """8 nodes, 10 arcs, acyclic; used across reconstruction tests."""
    masks = [
        NodeSet.of(1, 2),
        NodeSet.of(2, 3),
        NodeSet.of(3, 6),
        NodeSet.of(),
        NodeSet.of(2, 5, 6),
        NodeSet.of(7),
        NodeSet.of(),
        NodeSet.of(),
    ]
    return Dag(8, tuple(masks))


@pytest.fixture
def demo_order() -> LinearOrder:
    """A topological order of demo_dag."""
    return LinearOrder((3, 6, 7, 5, 2, 1, 0, 4))


@pytest.fixture
def demo_partition() -> BlockPartition:
    return BlockPartition.contiguous(8, 4)


@pytest.fixture
def demo_member(demo_partition: BlockPartition) -> CoverMember:
    """First halves {2,3} and {6,7}; demo_order extends it."""
    return CoverMember(
        demo_partition, (NodeSet.of(2, 3), NodeSet.of(6, 7))
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)
