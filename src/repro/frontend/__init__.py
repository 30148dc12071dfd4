"""The production serving front-end (queueing, batching, caching, SLOs).

Sits between workload generators and the Aceso core: per-CN request
queues with adaptive batching, a CN-local value cache with invalidation
on writes and failures, and per-tenant admission control and SLO
accounting.  Writes are acknowledged at Aceso's commit CAS.
``python -m repro.frontend`` replays a multi-tenant Twitter mix and
emits ``BENCH_frontend.json`` with per-tenant SLO verdicts.
"""

from .bench import default_tenants, run_frontend
from .cache import ValueCache
from .chaos import run_frontend_chaos
from .request import FrontEndConfig, Request, TenantSpec
from .serving import FrontEnd, Lane
from .slo import SLOBook

__all__ = [
    "FrontEnd",
    "FrontEndConfig",
    "Lane",
    "Request",
    "SLOBook",
    "TenantSpec",
    "ValueCache",
    "default_tenants",
    "run_frontend",
    "run_frontend_chaos",
]
