"""The batch engine under its former module name, which ``perfbench/workloads.py``
still traces; the engine itself is :mod:`edgeteleport.protocol`'s."""

from .protocol import coldatom_batch, electronic_batch  # noqa: F401
