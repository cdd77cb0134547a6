"""The scale-out KDC service layer.

"The Kerberos server must be available in real time" — the paper treats
KDC availability as an operational given and moves on; this package asks
what providing it actually costs.  It wraps the unmodified protocol
engine (:mod:`repro.kerberos.kdc`) in a sharded request pipeline:

* :mod:`repro.serve.sharding` — deterministic routing: AS requests by
  client principal (partitioned user keys), TGS requests by
  authenticator fingerprint (replay-cache affinity), and the one
  failover rule (:func:`attempt_order`).
* :mod:`repro.serve.pool` — virtual-time worker pools that turn the
  synchronous simulation's instantaneous handlers into measurable
  queueing delay, with burst batching over the DES fast path.
* :mod:`repro.serve.cluster` — :class:`KdcCluster`: N complete shard
  KDCs behind one frontend, each with its own database slice and
  bounded :class:`repro.kerberos.validation.LruReplayCache`, with TGS
  failover and honest degradation (``ERR_UNAVAILABLE``) when
  :meth:`repro.sim.network.Network.fail_host` takes a shard down.
* :mod:`repro.serve.scale` — the calibrated event model that drives the
  same :class:`Shard` type, through the same
  :meth:`repro.serve.cluster.Frontend.dispatch` loop, at 10^5–10^6
  principals.

The load harness that drives this layer lives in :mod:`repro.load`
(``python -m repro load``).
"""

from repro.serve.cluster import ClusterDatabase, KdcCluster, Shard, ShardServer
from repro.serve.pool import WorkerPool
from repro.serve.sharding import attempt_order, shard_of

__all__ = [
    "ClusterDatabase", "KdcCluster", "Shard", "ShardServer", "WorkerPool",
    "attempt_order", "shard_of",
]
