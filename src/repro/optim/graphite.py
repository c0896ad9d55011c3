"""Graphite: polyhedral loop-nest analysis and transformation.

GCC's Graphite pass (enabled with ``-floop-interchange
-ftree-loop-distribution -floop-block``) analyzes loop nests in the
polyhedral model and applies tiling, fusion, and interchange where the
dependence polyhedra allow. Our kernels carry :class:`LoopNest` metadata
(depth, legality of reordering, stride) from :mod:`repro.trace.kernels`;
this module performs the legality check and maps each legal nest onto the
concrete access-stream transformation the encoder implements:

- transform/quant/entropy producer-consumer nests → ``tile_transform``
  (macroblock-sized scratch reuse instead of a frame-sized stream),
- the two deblocking passes → ``fuse_deblock`` (one fused plane walk),
- the column-major interpolation nest → ``interchange_interp``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec.encoder import LoopOptimizations
from repro.trace.program import Kernel

__all__ = ["GraphiteReport", "analyze_kernels", "GRAPHITE_FLAGS"]

GRAPHITE_FLAGS = ("-floop-interchange", "-ftree-loop-distribution", "-floop-block")

#: Which encoder-level transformation each tileable kernel unlocks.
_KERNEL_TO_TRANSFORM = {
    "dct4": "tile_transform",
    "idct4": "tile_transform",
    "quant": "tile_transform",
    "mc_copy": "tile_transform",
    "deblock": "fuse_deblock",
    "me_interp": "interchange_interp",
}


@dataclass(frozen=True)
class GraphiteReport:
    """What the polyhedral analysis decided, kernel by kernel."""

    transformed: tuple[str, ...]  # kernels whose nests were transformed
    rejected: tuple[str, ...]  # nests where reordering is illegal
    loop_opts: LoopOptimizations

    def describe(self) -> str:
        return (
            f"graphite: transformed {len(self.transformed)} nests "
            f"({', '.join(self.transformed)}); "
            f"rejected {len(self.rejected)} (dependence-bound)"
        )


def analyze_kernels(kernels: dict[str, Kernel]) -> GraphiteReport:
    """Run the legality analysis over a kernel catalog.

    A nest is transformable when it is at least 2-deep (tiling a single
    loop is pointless) and its metadata marks the traversal order as free
    of loop-carried dependences.
    """
    transformed: list[str] = []
    rejected: list[str] = []
    enabled = {"tile_transform": False, "fuse_deblock": False, "interchange_interp": False}
    for name in sorted(kernels):
        nest = kernels[name].loop_nest
        if nest.depth < 2:
            continue  # nothing to transform
        if not nest.tileable:
            rejected.append(name)
            continue
        transform = _KERNEL_TO_TRANSFORM.get(name)
        if transform is None:
            rejected.append(name)
            continue
        transformed.append(name)
        enabled[transform] = True
    return GraphiteReport(
        transformed=tuple(transformed),
        rejected=tuple(rejected),
        loop_opts=LoopOptimizations(**enabled),
    )
