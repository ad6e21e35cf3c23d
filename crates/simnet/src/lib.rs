//! # simnet — deterministic discrete-event simulation substrate
//!
//! This crate stands in for the physical testbed of the HPDC 2001 DISCOVER
//! paper (campus LANs and the Rutgers ↔ UT Austin ↔ Caltech WAN). It
//! provides:
//!
//! * a virtual clock ([`SimTime`], [`SimDuration`]),
//! * an event-driven [`Engine`] hosting [`Actor`]s on named nodes,
//! * [`LinkSpec`]-described links with latency, bandwidth serialization,
//!   jitter and loss,
//! * an explicit CPU model ([`Ctx::consume`]) that makes busy nodes queue
//!   work, and
//! * a [`MetricsRegistry`] per node (counters, gauges, log-bucketed
//!   histograms) and per-link traffic counters, summed on demand into the
//!   run-wide [`Stats`] every experiment reads its results from
//!   ([`Engine::stats`]).
//!
//! Determinism: a single seeded RNG drives jitter and loss; two runs with
//! the same seed produce identical event traces (see the engine tests).
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Actor, Ctx, Engine, LinkSpec, NodeId, Payload, SimDuration, SimTime};
//!
//! struct Ping;
//! impl Payload for Ping {
//!     fn size_bytes(&self) -> usize { 64 }
//! }
//!
//! struct Responder;
//! impl Actor<Ping> for Responder {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: NodeId, msg: Ping) {
//!         ctx.consume(SimDuration::from_micros(50)); // servlet CPU
//!         ctx.send(from, msg);
//!     }
//! }
//!
//! #[derive(Default)]
//! struct Requester { rtt: Option<SimDuration> }
//! impl Actor<Ping> for Requester {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, _from: NodeId, _msg: Ping) {
//!         self.rtt = Some(ctx.now() - SimTime::ZERO);
//!     }
//! }
//!
//! let mut eng = Engine::new(42);
//! let client = eng.add_node("client", Requester::default());
//! let server = eng.add_node("server", Responder);
//! eng.link(client, server, LinkSpec::lan());
//! eng.inject(client, server, Ping, SimDuration::ZERO);
//! eng.run_to_quiescence();
//! let rtt = eng.actor_ref::<Requester>(client).unwrap().rtt.unwrap();
//! assert!(rtt >= SimDuration::from_micros(650)); // 2x latency + CPU
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod engine;
mod fault;
pub mod flight;
mod hash;
pub mod history;
mod link;
pub mod metrics;
mod stats;
mod tally;
mod time;
pub mod trace;

pub use actor::{Actor, Payload};
pub use engine::{Ctx, Engine, NodeId};
pub use fault::FaultPlan;
pub use flight::{FlightDump, FlightRecorder};
pub use hash::IdHasher;
pub use history::HistoryEvent;
pub use link::LinkSpec;
pub use metrics::{names, CounterDef, GaugeDef, MetricsRegistry, TimerDef};
pub use stats::{Histogram, HistogramSummary, Stats};
pub use tally::EngineTally;
pub use time::{SimDuration, SimTime};
pub use trace::{SpanRecord, TraceContext, Tracer};
