"""Leaderless multi-valued BFT consensus and its synchronization chain.

Simulated networks drive deterministic per-node state machines through a
graded-consensus phase, a binary agreement loop and certificate assembly;
a chain layer stacks the certified outcomes into time-slots and epochs,
and a benchmark layer accounts the broadcast bytes against a per-component
baseline.
"""

# The numpy kernels in ``cobsim._kernels``, the only backend.
kernel_backend = "python"
__version__ = "0.1.0"
__all__ = ["kernel_backend", "__version__"]
