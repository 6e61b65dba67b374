"""Value-chain data-exchange harness: roles, stores, and wire transport."""

from .services import (
    AttributeAuthority,
    AdminService,
    Consumer,
    DataOwner,
    Deployment,
    ExternalCtEngine,
    InternalCtEngine,
)
from .storage import (
    CtRecord,
    CtStore,
    LogicalClock,
    ManualClock,
    PolicyRecord,
    PolicyStore,
    SecurityEventLog,
    SystemClock,
)
from .transport import LocalClient, ServiceClient, ServiceServer, TransportTap

__all__ = [
    "AttributeAuthority", "AdminService", "Consumer", "DataOwner",
    "Deployment", "ExternalCtEngine", "InternalCtEngine",
    "CtRecord", "CtStore", "LogicalClock", "ManualClock", "PolicyRecord",
    "PolicyStore", "SecurityEventLog", "SystemClock",
    "LocalClient", "ServiceClient", "ServiceServer", "TransportTap",
]
