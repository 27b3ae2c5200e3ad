#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! wile-cluster — sharded multi-gateway ingestion for Wi-LE backhaul.
//!
//! The paper's deployments (§ fleet scale-out) stop at one gateway per
//! scenario; a real building runs many Wi-LE gateways with overlapping
//! coverage, all hearing the same beacons. This crate is the stage that
//! sits behind those gateways and makes the overlap invisible to the
//! application:
//!
//! - **Cross-gateway dedup with best-RSSI election** — every `(device,
//!   seq)` is delivered cluster-wide exactly once, carried by the copy
//!   the strongest gateway heard ([`ClusterAggregator`]).
//! - **Roaming** — each device has an owning gateway, moved with RSSI
//!   hysteresis and a minimum dwell so cell-edge flapping cannot thrash
//!   ownership ([`RoamingConfig`]).
//! - **Backpressure** — per-gateway report queues are bounded; overload
//!   tail-drops with full accounting instead of buffering without limit
//!   ([`ReportQueue`]).
//! - **Deterministic sharding** — aggregation rounds fan device shards
//!   across [`wile_sim::engine::run_cells`]; results are byte-identical
//!   at any `WILE_WORKERS` setting.
//!
//! - **Infrastructure chaos** — a seeded [`ClusterFaultPlan`] schedules
//!   lane crash/restart windows, backhaul partitions with bounded
//!   store-and-forward retry, and aggregator overload admission
//!   control; periodic checkpoints let a restarted lane resume warm,
//!   and orphaned devices re-elect ownership on the next delivery
//!   ([`faults`], [`GatewayCluster::set_faults`]).
//!
//! Every counter rolls up into [`ClusterStats`], which satisfies the
//! extended conservation law `delivered + suppressions + drops + shed +
//! lost_in_crash + buffered == hears` after every poll (all fault terms
//! zero ⇒ the original law).
//!
//! [`GatewayCluster`] is the facade tying it together, and
//! [`PollTrain`] is the one schedule every runner polls it on: the
//! metro scenario in `wile-scenarios` at 8 gateways × 20 000 devices
//! (experiment E11), the chaos-metro scenario through a full fault
//! campaign (experiment E13), and the `wile-gatewayd` daemon fed from
//! the wire.

pub mod aggregator;
pub mod cluster;
pub mod faults;
pub mod queue;
pub mod report;
pub mod train;

pub use aggregator::{ClusterAggregator, ClusterStats, LaneStats, RoamingConfig};
pub use cluster::{ClusterConfig, GatewayCluster, LaneEvent, LaneEventRecord};
pub use faults::{
    split_unified, ClusterDisturbance, ClusterFaultPhase, ClusterFaultPlan, PartitionPolicy,
    UnifiedDisturbance, UnifiedPhase,
};
pub use queue::ReportQueue;
pub use report::{fold_delivery, ClusterDelivery, GatewayReport, FNV_OFFSET};
pub use train::{PollTrain, Polled};
