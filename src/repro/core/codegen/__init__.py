"""The CoCoNet code generator (Section 5).

"For each operation, CoCoNet either generates (i) a call to a collective
communication operation, (ii) a CUDA kernel for fused computations,
(iii) a CUDA kernel for fused-collective communications, or (iv) CUDA
kernels for overlapping of communication and computation operations."

The reproduction generates *Python* kernels against a per-rank
communicator instead of CUDA against real GPUs. Like CoCoNet's output,
the generated module is one program that every rank runs: each kernel
takes this rank's values plus its
:class:`repro.runtime.spmd.SpmdCommunicator`, and

* plain collectives become one rendezvous call on the communicator
  (the analogue of calling NCCL);
* fused computation becomes a generated kernel computing this rank's
  shard with the whole expression chain inlined;
* fused collectives evaluate their communication and computation in
  program order on this rank's slice;
* overlapped groups become a generated chunk orchestrator: the
  producer GEMM releases its output chunk by chunk on a stream thread
  while the consuming collective ingests each chunk.

Every generated module is executable, and its results are required (by
the differential tests) to match the lowered interpreter bit for bit.
Generated line counts of this per-rank module feed Table 3.

:class:`GeneratedProgram` runs the module either in this process with
one thread per rank (``run``) or as one spawned OS process per rank
(``launch``, what ``Executor.run_spmd`` calls).

``CodeGenerator(target="native")`` emits the same per-rank module with
the compute segments rendered to C — elementwise chains fused into one
compiled loop each, GEMMs dispatched to BLAS — built with ``cc`` and
memoized in :mod:`repro.core.codegen.native`'s on-disk
content-addressed kernel cache. Communication still runs over the
``SpmdCommunicator``, so overlap chunk loops release real compute
early.
"""

from repro.core.codegen.generator import CodeGenerator, GeneratedProgram
from repro.core.codegen.loc import count_loc

__all__ = [
    "CodeGenerator",
    "GeneratedProgram",
    "count_loc",
]
