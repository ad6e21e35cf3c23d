//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! module rendered by `wallbench spec`; `tests/spec.rs` keeps the two equal.

use crate::json::Value;
use crate::kernels;
use crate::spans::Layer;

/// The command the driver runs from a checkout's root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Seconds of measured window per run.
pub const RUN_SECONDS: u64 = 12;

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Local steering through one server.
    SteerLocal,
    /// Steady fan-out to 256 slow viewers.
    FanoutSteady,
    /// 512-viewer join storm on a saturated server.
    StormOverload,
    /// Remote steering across a 4-server WAN mesh.
    MeshRemote,
    /// Real bytes through a standalone server.
    WireIngress,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::SteerLocal,
        Workload::FanoutSteady,
        Workload::StormOverload,
        Workload::MeshRemote,
        Workload::WireIngress,
    ];

    /// The name the driver passes as `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteerLocal => "steer_local",
            Workload::FanoutSteady => "fanout_steady",
            Workload::StormOverload => "storm_overload",
            Workload::MeshRemote => "mesh_remote",
            Workload::WireIngress => "wire_ingress",
        }
    }

    /// Parse a `--workload` argument.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the unit of work is a delivery (else an answered op).
    pub fn counts_deliveries(self) -> bool {
        matches!(self, Workload::FanoutSteady | Workload::StormOverload)
    }

    /// What one unit of work is in `work_per_s` and `*_per_work`.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::SteerLocal | Workload::MeshRemote => "client op answered",
            Workload::FanoutSteady | Workload::StormOverload => "message delivered to a portal",
            Workload::WireIngress => "request answered",
        }
    }

    /// What a reference burst between this workload's slices takes on
    /// the box the benchmark was written on, in its usual state
    /// (nanoseconds; it depends on how much cache the workload leaves
    /// cold). Normalised times are times at this burst time; the constants
    /// only scale them.
    pub fn nominal_burst_ns(self) -> f64 {
        match self {
            Workload::SteerLocal => 1_200_000.0,
            Workload::FanoutSteady => 1_300_000.0,
            Workload::StormOverload => 1_200_000.0,
            Workload::MeshRemote => 1_150_000.0,
            Workload::WireIngress => 1_050_000.0,
        }
    }

    /// Why the workload exists (one line, at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SteerLocal => "8 portals steer 8 apps through one server: ServerCore HTTP/TCP dispatch, proxy, session checks; FIFO used drain-side; substrate bypassed. Work = client op answered.",
            Workload::FanoutSteady => "one hot app, 256 slow viewers, coalescing on, join drained: FifoBuffer push/coalesce and the collab broadcast dominate, engine idle. Work = message delivered to a portal.",
            Workload::StormOverload => "512 viewers join at once, server >95% busy: engine busy-node re-push and the O(N^2) join broadcast dominate; same layers as fanout_steady, other regime. Work = message delivered.",
            Workload::MeshRemote => "4 servers on a WAN mesh, 16 portals each steering an app on another server: substrate, broker, GIOP, directory ring, discovery cache, all bypassed by steer_local. Work = client op answered.",
            Workload::WireIngress => "real bytes through StandaloneServer: HTTP head render/parse and DBP encode/decode_borrowed run per request (simnet links carry typed envelopes), reads beside writes. Work = request answered.",
        }
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: measured with tracing off, gated by `bound`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, every one reported on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    // Work completed per second of measured window, at the workload's
    // reference machine speed (see `calibration`); median over repetitions.
    end_to_end("work_per_s", "1/s", Better::Higher, 0.25),
    // Topology build + warm-up of one repetition, normalised likewise.
    end_to_end("setup_s", "s", Better::Lower, 0.25),
    // Heap allocations / bytes requested in the window per unit of work.
    end_to_end("allocs_per_work", "count", Better::Lower, 0.02),
    end_to_end("alloc_bytes_per_work", "B", Better::Lower, 0.02),
    // VmHWM of the benchmark process.
    end_to_end("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// A per-layer metric: from the traced run and the kernels; no bound.
#[derive(Clone, Debug, PartialEq)]
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Layers whose spans report `.self_s`, `.calls` and `.ns_per_call`.
pub const SPAN_LAYERS: [Layer; 13] = [
    Layer::NodeHttp,
    Layer::NodeTcp,
    Layer::NodeGiopRequest,
    Layer::NodeGiopReply,
    Layer::NodeTimers,
    Layer::Directory,
    Layer::Portal,
    Layer::AppDriver,
    Layer::ParseHead,
    Layer::RenderHead,
    Layer::DecodeBorrowed,
    Layer::Encode,
    Layer::StandaloneDispatch,
];

/// The per-layer metrics, every one reported on every workload (0 where
/// the workload never enters the layer).
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better| out.push(PerLayer { name, unit, better });
    add("simnet.engine.self_s".into(), "s", Better::Lower);
    add("simnet.engine.events".into(), "count", Better::Lower);
    add("simnet.engine.ns_per_event".into(), "ns", Better::Lower);
    add(
        "simnet.engine.dispatch_share".into(),
        "ratio",
        Better::Higher,
    );
    for layer in SPAN_LAYERS {
        add(format!("{}.self_s", layer.name()), "s", Better::Lower);
        add(format!("{}.calls", layer.name()), "count", Better::Lower);
        add(format!("{}.ns_per_call", layer.name()), "ns", Better::Lower);
    }
    add("bench.sink.self_s".into(), "s", Better::Lower);
    add("bench.driver.self_s".into(), "s", Better::Lower);
    add("raw.work_per_wall_s".into(), "1/s", Better::Higher);
    add("trace.wall_s".into(), "s", Better::Lower);
    add("trace.overhead_share".into(), "ratio", Better::Lower);
    for kernel in kernels::NAMES {
        add(format!("{kernel}.ns_per_op"), "ns", Better::Lower);
        if kernels::ALLOC_KERNELS.contains(&kernel) {
            add(format!("{kernel}.allocs_per_op"), "count", Better::Lower);
        }
    }
    add("webserv.fifo.enqueued".into(), "count", Better::Lower);
    add("webserv.fifo.coalesced".into(), "count", Better::Higher);
    add("webserv.fifo.dropped".into(), "count", Better::Lower);
    add(
        "webserv.fifo.coalesce_share".into(),
        "ratio",
        Better::Higher,
    );
    add(
        "discover-core.cache.hit_share".into(),
        "ratio",
        Better::Higher,
    );
    add(
        "discover-core.substrate.remote_ops".into(),
        "count",
        Better::Lower,
    );
    add("simnet.node.utilization_max".into(), "ratio", Better::Lower);
    add("process.runqueue_wait_share".into(), "ratio", Better::Lower);
    add("wire.request.p50_us".into(), "us", Better::Lower);
    add("wire.request.p99_us".into(), "us", Better::Lower);
    add("wire.request.samples".into(), "count", Better::Higher);
    out
}

/// `BENCHMARK.json`, rendered.
pub fn benchmark_json() -> String {
    let strings =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let text = |s: &str| Value::Str(s.to_string());
    Value::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Value::obj([("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", text(&m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}
