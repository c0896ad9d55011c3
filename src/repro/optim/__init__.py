"""Compiler-optimization models: AutoFDO and Graphite (paper §III-D).

AutoFDO [Chen et al., CGO'16] uses a sampled execution profile to re-lay
out the binary: hot basic blocks are packed contiguously (shrinking the
i-cache fetch footprint) and branch probabilities seed better static
decisions. Graphite [Pop et al., GCC Summit'06] applies polyhedral loop
transformations — tiling, fusion, interchange — improving data-cache
locality. Both are modeled against the same mechanisms in our simulator:
AutoFDO rewrites the :class:`~repro.trace.program.CodeLayout`, Graphite
rewrites the encoder's loop traversal / scratch-buffer access streams.

Import each name from the submodule that owns it; the package
re-exports nothing.
"""

__all__: list[str] = []
