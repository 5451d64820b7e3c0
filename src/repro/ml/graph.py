"""Static NN inference graphs.

A :class:`Graph` is a topologically ordered list of named nodes.  Static
graphs — no data-dependent control flow between jobs — are the property
input independence rests on (§2.3): a single record run exercises every
GPU job the workload will ever issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.ml.layers import Layer, Shape

INPUT = "input"


class GraphError(ValueError):
    """Malformed graph (unknown input, cycle, shape mismatch, ...)."""


@dataclass
class Node:
    """One layer instance in a graph."""

    name: str
    layer: Layer
    inputs: List[str]
    out_shape: Shape = ()
    # Multiplier applied to this node's FLOPs by the GPU duration model;
    # compensates for spatially downscaled model definitions (DESIGN.md).
    flops_scale: float = 1.0


@dataclass
class Graph:
    """A named workload: input shape plus an ordered node list."""

    name: str
    input_shape: Shape
    nodes: List[Node] = field(default_factory=list)

    def add(self, name: str, layer: Layer, inputs: Sequence[str],
            flops_scale: float = 1.0) -> Node:
        if any(n.name == name for n in self.nodes):
            raise GraphError(f"duplicate node name {name!r}")
        node = Node(name=name, layer=layer, inputs=list(inputs),
                    flops_scale=flops_scale)
        node.out_shape = layer.infer_shape(
            [self.shape_of(i) for i in node.inputs])
        self.nodes.append(node)
        return node

    def shape_of(self, name: str) -> Shape:
        if name == INPUT:
            return self.input_shape
        for node in self.nodes:
            if node.name == name:
                return node.out_shape
        raise GraphError(f"node {name!r} referenced before definition")

    @property
    def output(self) -> Node:
        if not self.nodes:
            raise GraphError("empty graph")
        return self.nodes[-1]

    @property
    def output_shape(self) -> Shape:
        return self.output.out_shape

    def validate(self) -> None:
        """Re-check referential integrity and shapes (cheap invariants)."""
        seen = {INPUT}
        for node in self.nodes:
            for inp in node.inputs:
                if inp not in seen:
                    raise GraphError(
                        f"node {node.name!r} uses undefined input {inp!r}")
            expected = node.layer.infer_shape(
                [self.shape_of(i) for i in node.inputs])
            if node.out_shape != expected:
                raise GraphError(
                    f"node {node.name!r} shape drifted: {node.out_shape} "
                    f"!= {expected}")
            seen.add(node.name)

    # ------------------------------------------------------------------
    # Static summaries used by DESIGN/benchmarks
    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        return sum(
            node.layer.flops([self.shape_of(i) for i in node.inputs])
            * node.flops_scale
            for node in self.nodes
        )

    def total_params(self) -> int:
        return sum(
            node.layer.param_count([self.shape_of(i) for i in node.inputs])
            for node in self.nodes
        )
