//! Cluster layer for the Scuba fast-restart reproduction: machines running
//! leaf servers, the aggregator query path, the 2%-at-a-time rollover
//! orchestrator, the Figure-8 dashboard, and a calibrated discrete-event
//! simulator for paper-scale numbers.
//!
//! Two levels of fidelity, used by different experiments:
//!
//! * **Real mini-cluster** ([`hosted`], [`host`], [`mod@rollover`]) — a
//!   handful of machines × leaves with *real* leaf servers, each on its own
//!   thread behind an admission queue: real shared memory, real disk
//!   backups, real queries running through the restart. Everything in the
//!   paper's §4 actually executes.
//! * **Paper-scale simulator** ([`sim`]) — hundreds of servers with 120 GB
//!   machines don't fit a laptop, so rollover duration and availability at
//!   that scale are computed by a pipelined discrete-event model whose
//!   per-byte rates are the paper's (disk ~MB/s shared per machine,
//!   translation the dominant cost, memory at GB/s). See the substitution
//!   table in DESIGN.md and the calibration notes in EXPERIMENTS.md.

pub mod admission;
pub mod chaos;
pub mod dashboard;
pub mod host;
pub mod hosted;
pub mod loadgen;
pub mod rollover;
pub mod sim;
pub mod telemetry;

pub use admission::{
    AdmissionConfig, AdmissionQueue, Request, Shed, ShedPolicy, INFLIGHT_GAUGE, QUEUE_DEPTH_GAUGE,
    SHED_COUNTER,
};
pub use chaos::{run_chaos, ChaosConfig, ChaosReport, WaveRecord};
pub use dashboard::{Dashboard, DashboardRow};
pub use host::{HostStatus, LeafHost};
pub use hosted::{ClusterConfig, HostClient, HostedCluster, QueryFanoutStats, WaveOutcome};
pub use loadgen::{LatencySummary, LoadMode, LoadReport, LoadgenConfig};
pub use rollover::{
    rollover, LiveSloFeed, NullSloFeed, PaceEvent, RolloverConfig, RolloverReport, SloFeed,
    SloPolicy, SloSample, WindowedQuantile,
};
pub use sim::{
    leaf_restart_secs, simulate_rollover, simulate_rollover_paths, simulate_single_machine,
    RecoveryPath, SimConfig, SimResult, SimSnapshot,
};
pub use telemetry::{
    metric_by_leaf, restore_ns_by_leaf, QueryDashboardFeed, TelemetryExporter,
    DEFAULT_BUFFER_CAPACITY, TELEMETRY_TABLE,
};
