//! The experiment suite. Each function is self-contained and returns a
//! [`Table`]; the ids map to DESIGN.md's
//! per-experiment index.

mod archival;
mod churn;
mod collaboration;
mod distributed;
mod fanout;
mod faults;
mod hotpath;
mod overload;
mod scalability;
mod scale;
mod telemetry;
mod tracing;

pub use archival::e19_archival_recovery;
pub use churn::e16_churn_recovery;
pub use collaboration::{
    e11_push_vs_poll, e4_collab_traffic, e5_remote_vs_local, e6_discovery_auth,
};
pub use distributed::{
    e10_latecomer_replay, e7_lock_contention, e8_network_scalability, e9_fifo_slow_clients,
};
pub use fanout::e14_broadcast_fanout;
pub use faults::e12_fault_tolerance;
pub use hotpath::e18_hot_path_delivery;
pub use overload::e15_overload;
pub use scalability::{e1_app_scalability, e2_client_scalability, e3_protocol_asymmetry};
pub use scale::e20_million_clients;
pub use telemetry::e17_telemetry_overhead;
pub use tracing::e13_latency_attribution;

use crate::report::Table;

/// Every experiment, in order.
#[allow(clippy::type_complexity)]
pub fn all() -> Vec<(&'static str, fn() -> Table)> {
    vec![
        ("e1", e1_app_scalability as fn() -> Table),
        ("e2", e2_client_scalability),
        ("e3", e3_protocol_asymmetry),
        ("e4", e4_collab_traffic),
        ("e5", e5_remote_vs_local),
        ("e6", e6_discovery_auth),
        ("e7", e7_lock_contention),
        ("e8", e8_network_scalability),
        ("e9", e9_fifo_slow_clients),
        ("e10", e10_latecomer_replay),
        ("e11", e11_push_vs_poll),
        ("e12", e12_fault_tolerance),
        ("e13", e13_latency_attribution),
        ("e14", e14_broadcast_fanout),
        ("e15", e15_overload),
        ("e16", e16_churn_recovery),
        ("e17", e17_telemetry_overhead),
        ("e18", e18_hot_path_delivery),
        ("e19", e19_archival_recovery),
        ("e20", e20_million_clients),
    ]
}
