"""The geographically distributed layer (paper section 2.2)."""

from .channel import (
    Channel,
    ChannelComponent,
    ChannelEndpoint,
    ChannelMode,
    StragglerError,
)
from .conservative import (
    UNBOUNDED,
    SafeTimeClient,
    SafeTimeService,
    compute_grant,
    local_floor,
)
from .executor import FAILURE_POLICIES, CoSimulation
from .migration import (
    MigrationRecord,
    NodeArchive,
    PortableImage,
    archive_node,
    restore_node,
)
from .multiprocess import (
    MP_FAILURE_POLICIES,
    ChannelSpec,
    MultiprocessCoSimulation,
    SubsystemSpec,
    WorkerPool,
    register_factory,
    resolve_factory,
)
from .node import PiaNode, Socket
from .optimistic import RecoveryManager
from .partition import Deployment, Design, NetSpec, deploy, suggest_partition
from .snapshot import (
    GlobalSnapshot,
    SnapshotManager,
    SnapshotRegistry,
    SubsystemCut,
    new_snapshot_id,
)
from .threaded import ThreadedCoSimulation
from .topology import communication_digraph, offending_cycles, validate

__all__ = [
    "Channel", "ChannelComponent", "ChannelEndpoint", "ChannelMode",
    "ChannelSpec", "CoSimulation", "Deployment", "Design",
    "FAILURE_POLICIES", "GlobalSnapshot",
    "MP_FAILURE_POLICIES", "MigrationRecord",
    "MultiprocessCoSimulation", "NetSpec", "NodeArchive",
    "PiaNode", "PortableImage", "RecoveryManager", "SafeTimeClient",
    "SafeTimeService",
    "SnapshotManager", "SnapshotRegistry", "Socket", "StragglerError",
    "SubsystemCut", "SubsystemSpec", "ThreadedCoSimulation", "UNBOUNDED",
    "WorkerPool", "archive_node",
    "communication_digraph", "compute_grant", "deploy", "local_floor",
    "new_snapshot_id", "offending_cycles", "register_factory",
    "resolve_factory", "restore_node", "suggest_partition", "validate",
]
