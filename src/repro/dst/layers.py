"""Failure layers: the composable environment a DST run or scenario arms.

A layer set is written ``a+b`` (``none`` for the empty set) over six
names, each a block of :class:`~repro.dst.explorer.DstConfig`
overrides:

* ``faulty`` -- crash cycles, fault-storm windows, message loss and
  transient io errors, timeouts and slow replicas;
* ``corruption`` -- silent corruption (scheduled bit-rot, per-read rot
  inside storm windows, torn writes on crash) over a moderated
  transient-fault diet, with scrub passes woven in so healing races the
  damage (V6);
* ``traffic`` -- every traffic-reduction mechanism (negative cache,
  group commit, gossip digests, PUT elision), plus ``flush_groups``
  steps that close open group-commit windows at adversarial moments;
* ``membership`` -- node joins, graceful drains and crash-style
  removals open epoch transitions mid-run, and bounded ``rebalance``
  batches drain the migration plan between everything else (V7);
* ``partitions`` -- link-level cuts sever one middleware from a
  minority of storage nodes (sometimes from its gossip peers), heal a
  bounded number of steps later, and sloppy-quorum hinted handoff is
  armed (V8);
* ``sharded`` -- sharded NameRings at DST-sized thresholds: split at 8
  children, collapse at 3, about 5 per shard, so ordinary schedules
  cross every layout transition.

A layer set applies its layers in the order above, so ``corruption``,
which sets every transient-fault rate of ``faulty``, wins over it.
Scenarios weave thousands of gaps, so their per-gap rates sit an order
of magnitude below DST's; ``sharded`` has no scenario form.
"""

from __future__ import annotations

import argparse
import itertools
from dataclasses import dataclass, replace

from .explorer import DstConfig

#: Each layer's ``DstConfig`` overrides: (for a DST run, for a scenario).
LAYER_TABLE: dict[str, tuple[dict, dict | None]] = {
    "faulty": (
        dict(message_loss=0.05, io_error_rate=0.08, timeout_rate=0.03,
             slow_rate=0.08, crash_rate=0.03, storm_rate=0.04),
        dict(message_loss=0.01, io_error_rate=0.01, timeout_rate=0.005,
             slow_rate=0.01, crash_rate=0.0015, storm_rate=0.002),
    ),
    "corruption": (
        dict(message_loss=0.02, io_error_rate=0.04, timeout_rate=0.02,
             slow_rate=0.04, crash_rate=0.03, storm_rate=0.04,
             bitrot_rate=0.002, torn_write_rate=0.3, corrupt_rate=0.06,
             scrub_rate=0.04),
        dict(message_loss=0.01, io_error_rate=0.01, timeout_rate=0.005,
             slow_rate=0.01, crash_rate=0.0015, storm_rate=0.002,
             bitrot_rate=0.0005, torn_write_rate=0.2, corrupt_rate=0.002,
             scrub_rate=0.0005),
    ),
    "traffic": (
        dict(negative_cache=True, group_commit=True, gossip_digests=True,
             memoize_serialization=True, flush_rate=0.10),
        dict(negative_cache=True, group_commit=True, gossip_digests=True,
             memoize_serialization=True, flush_rate=0.10),
    ),
    "membership": (
        dict(membership_rate=0.02, rebalance_rate=0.20),
        dict(membership_rate=0.0008, rebalance_rate=0.05, max_membership=6),
    ),
    "partitions": (
        dict(partition_rate=0.04, hinted_handoff=True),
        dict(partition_rate=0.0012, hinted_handoff=True),
    ),
    "sharded": (
        dict(sharded_rings=True, shard_split_threshold=8,
             shard_merge_threshold=3, shard_target_entries=5),
        None,
    ),
}


@dataclass(frozen=True)
class Layers:
    """A set of failure layers, held in :data:`LAYER_TABLE` order."""

    names: tuple[str, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "Layers":
        """``a+b`` or ``none``; an unknown or repeated name is an error."""
        if text == "none":
            return cls()
        names = text.split("+")
        for name in names:
            if name not in LAYER_TABLE:
                raise ValueError(
                    f"unknown layer {name!r}; choose from none, "
                    + ", ".join(LAYER_TABLE)
                )
        if len(set(names)) != len(names):
            raise ValueError(f"repeated layer in {text!r}")
        return cls(tuple(name for name in LAYER_TABLE if name in names))

    def __str__(self) -> str:
        return "+".join(self.names) or "none"

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def plus(self, name: str) -> "Layers":
        return Layers(
            tuple(n for n in LAYER_TABLE if n in self.names or n == name)
        )

    def config(self, **fields) -> DstConfig:
        """These layers over a clean ``DstConfig``, then ``fields``."""
        return replace(self.over(DstConfig()), **fields)

    def over(self, base: DstConfig, scenario: bool = False) -> DstConfig:
        """``base`` with every layer's overrides (scenario rates if asked)."""
        for name in self.names:
            dst, scenario_form = LAYER_TABLE[name]
            overrides = scenario_form if scenario else dst
            if overrides is None:
                raise ValueError(f"layer {name!r} has no scenario form")
            base = replace(base, **overrides)
        return base


def layers_arg(text: str) -> Layers:
    """argparse ``type=``: a bad layer set is a usage error (exit 2)."""
    try:
        return Layers.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: The nightly DST matrix and the digest table's sets: no layer, each
#: layer but ``faulty`` (sweeps already alternate fault-free and faulty
#: seeds), and each pair of those.
NIGHTLY_LAYERS: tuple[Layers, ...] = tuple(
    Layers(names)
    for size in range(3)
    for names in itertools.combinations(
        [name for name in LAYER_TABLE if name != "faulty"], size
    )
)
