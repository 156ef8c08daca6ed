"""On-prem queue waits.

Cloud clusters in the study were dedicated; on-prem jobs waited in the
center's shared queue (§2.9).  :class:`OnPremQueueModel` samples those
waits for the on-prem cells of a study.
"""

from repro.scheduler.queueing import OnPremQueueModel

__all__ = ["OnPremQueueModel"]
