"""Live application programs with online detection attached."""

from repro.apps.base import (
    APP_MSG_KIND,
    AppMessage,
    ApplicationProcess,
    app_names,
    wiring,
)
from repro.apps.leader import BullyNode, build_election_system, split_brain_wcp
from repro.apps.live import run_live_direct_dep, run_live_token_vc
from repro.apps.mutex import (
    CoordinatorApp,
    MutexClientApp,
    build_mutex_system,
    mutex_wcp,
)
from repro.apps.tokenring import RingWorkerApp, build_ring_system, quiescence_wcp
from repro.apps.twophase import (
    LockManagerApp,
    TransactionApp,
    build_locking_system,
    read_write_conflict_wcp,
)

__all__ = [
    "ApplicationProcess",
    "AppMessage",
    "APP_MSG_KIND",
    "app_names",
    "wiring",
    "run_live_token_vc",
    "run_live_direct_dep",
    "CoordinatorApp",
    "MutexClientApp",
    "build_mutex_system",
    "mutex_wcp",
    "LockManagerApp",
    "TransactionApp",
    "build_locking_system",
    "read_write_conflict_wcp",
    "RingWorkerApp",
    "build_ring_system",
    "quiescence_wcp",
    "BullyNode",
    "build_election_system",
    "split_brain_wcp",
]
