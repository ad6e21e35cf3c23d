//! Kernels: one public function of one layer, timed from outside.
//!
//! Each kernel runs batches for a fixed wall budget and reports the
//! median batch's nanoseconds per operation plus heap allocations per
//! operation. Inputs have the shapes the workloads produce (the synthetic
//! application's status update, the portals' requests). `calibration.spin`
//! is a fixed integer loop: dividing a kernel by it cancels most of a
//! slower or busier machine.

use std::hint::black_box;
use std::time::{Duration, Instant};

use discover_core::DiscoveryCache;
use discover_server::{ArchiveStore, SteeringLock};
use orb::{HashRing, DEFAULT_VNODES};
use simnet::{
    names, Actor, Ctx, Engine, Histogram, LinkSpec, MetricsRegistry, NodeId, Payload, SimDuration,
    SimTime, Stats,
};
use webserv::FifoBuffer;
use wire::{
    codec, AppId, AppOp, AppPhase, AppStatus, ClientMessage, ClientRequest, LogEntry, ServerAddr,
    UpdateBody, UserId, Value,
};

use crate::alloc::AllocSnapshot;
use crate::stats::median;

/// One kernel's result.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelResult {
    /// `crate.module.function`, the metric prefix.
    pub name: &'static str,
    /// Median over batches of wall nanoseconds per operation.
    pub ns_per_op: f64,
    /// Heap allocations per operation over all batches.
    pub allocs_per_op: f64,
    /// Operations timed in total.
    pub ops: u64,
}

/// Time `run` on fresh state from `setup` until `budget` has elapsed.
/// `run` returns how many operations it performed.
fn bench<S>(
    name: &'static str,
    budget: Duration,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> u64,
) -> KernelResult {
    let mut warm = setup();
    black_box(run(&mut warm));
    drop(warm);
    let (mut per_op, mut ops, mut allocs) = (Vec::new(), 0u64, 0u64);
    let started = Instant::now();
    while started.elapsed() < budget || per_op.len() < 5 {
        let mut state = setup();
        let a0 = AllocSnapshot::now();
        let t0 = Instant::now();
        let n = run(&mut state);
        let ns = t0.elapsed().as_nanos() as f64;
        allocs += AllocSnapshot::now().since(a0).allocs;
        black_box(&state);
        per_op.push(ns / n as f64);
        ops += n;
    }
    KernelResult {
        name,
        ns_per_op: median(&mut per_op),
        allocs_per_op: allocs as f64 / ops as f64,
        ops,
    }
}

/// Repeat `op` `n` times over `state`.
fn repeat<S>(n: u64, mut op: impl FnMut(&mut S, u64)) -> impl FnMut(&mut S) -> u64 {
    move |state| {
        for i in 0..n {
            op(state, i);
        }
        n
    }
}

fn app() -> AppId {
    AppId {
        server: ServerAddr(1),
        seq: 0,
    }
}

fn status(iteration: u64) -> AppStatus {
    AppStatus {
        phase: AppPhase::Computing,
        iteration,
        progress: 0.5,
    }
}

/// The synthetic application's periodic update, as portals receive it.
fn status_update(iteration: u64) -> UpdateBody {
    UpdateBody::AppStatus {
        app: app(),
        status: status(iteration),
        readings: vec![
            (
                "accumulated".to_string(),
                Value::Float(iteration as f64 * 0.125),
            ),
            ("iteration".to_string(), Value::Int(iteration as i64)),
        ],
    }
}

fn chat(n: u64) -> ClientMessage {
    ClientMessage::update(UpdateBody::Chat {
        app: app(),
        from: UserId::new("user0"),
        text: format!("msg-{n}"),
    })
}

/// A payload for engine kernels that carries nothing.
struct Tick;

impl Payload for Tick {
    fn size_bytes(&self) -> usize {
        64
    }
}

/// Re-arms a 1 ms timer forever: one schedule and one pop per event.
struct Ticker;

impl Actor<Tick> for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Tick>) {
        ctx.schedule(SimDuration::from_millis(1), 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Tick>, _from: NodeId, _msg: Tick) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Tick>, _tag: u64) {
        ctx.schedule(SimDuration::from_millis(1), 0);
    }
}

/// Spends 1 ms of virtual CPU per message, so a backlog aimed at it is
/// re-pushed to `busy_until` every time it surfaces.
struct Slow;

impl Actor<Tick> for Slow {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Tick>, _from: NodeId, _msg: Tick) {
        ctx.consume(SimDuration::from_millis(1));
    }
}

struct Idle;

impl Actor<Tick> for Idle {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Tick>, _from: NodeId, _msg: Tick) {}
}

fn busy_repush(name: &'static str, budget: Duration, backlog: u64) -> KernelResult {
    const DELIVERIES: u64 = 512;
    bench(
        name,
        budget,
        || {
            let mut engine = Engine::<Tick>::new(1);
            let slow = engine.add_node("slow", Slow);
            let source = engine.add_node("source", Idle);
            engine.link(slow, source, LinkSpec::loopback());
            engine.run_to_quiescence();
            (engine, source, slow)
        },
        |(engine, source, slow)| {
            for _ in 0..DELIVERIES / backlog {
                for _ in 0..backlog {
                    engine.inject(*source, *slow, Tick, SimDuration::ZERO);
                }
                engine.run_to_quiescence();
            }
            DELIVERIES
        },
    )
}

/// Run every kernel, `budget` of wall time apiece.
pub fn run_all(seed: u64, budget: Duration) -> Vec<KernelResult> {
    let base = seed % 1000;
    let update = status_update(base);
    let update_msg = ClientMessage::update(status_update(base));
    let update_bytes = codec::encode(&update_msg);
    let request = ClientRequest::Op {
        app: app(),
        op: AppOp::SetParam("knob0".to_string(), Value::Float(1.25)),
    };
    let request_bytes = codec::encode(&request);
    let keys: Vec<String> = (0..64)
        .map(|i| format!("DISCOVER/apps/{}", base + i))
        .collect();
    let user = UserId::new("steerer");

    let mut out = vec![bench(
        "calibration.spin",
        budget,
        || base | 1,
        repeat(4096, |x: &mut u64, _| {
            for _ in 0..64 {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
            }
            black_box(*x);
        }),
    )];

    out.push(bench(
        "wire.codec.encode_update",
        budget,
        || (),
        repeat(2048, |_, _| {
            black_box(codec::encode(black_box(&update)));
        }),
    ));
    out.push(bench(
        "wire.codec.encoded_len_update",
        budget,
        || (),
        repeat(2048, |_, _| {
            black_box(codec::encoded_len(black_box(&update)));
        }),
    ));
    out.push(bench(
        "wire.codec.decode_borrowed_update",
        budget,
        || (),
        repeat(2048, |_, _| {
            black_box(
                codec::decode_borrowed::<ClientMessage>(black_box(&update_bytes)).expect("decodes"),
            );
        }),
    ));
    out.push(bench(
        "wire.codec.encode_request",
        budget,
        || (),
        repeat(2048, |_, _| {
            black_box(codec::encode(black_box(&request)));
        }),
    ));
    out.push(bench(
        "wire.codec.decode_borrowed_request",
        budget,
        || (),
        repeat(2048, |_, _| {
            black_box(
                codec::decode_borrowed::<ClientRequest>(black_box(&request_bytes))
                    .expect("decodes"),
            );
        }),
    ));

    // Event-class messages never coalesce: every push appends.
    let event = chat(base);
    out.push(bench(
        "webserv.fifo.push",
        budget,
        || FifoBuffer::new(256),
        repeat(256, |f: &mut FifoBuffer, _| {
            f.push(event.clone());
        }),
    ));
    // Same coalescing slot every time: index probe plus replace in place.
    out.push(bench(
        "webserv.fifo.coalesce_push",
        budget,
        || FifoBuffer::with_coalescing(256, true),
        repeat(256, |f: &mut FifoBuffer, _| f.push(update_msg.clone())),
    ));
    // One operation is one poll's drain of 32 messages.
    out.push(bench(
        "webserv.fifo.drain_into",
        budget,
        || {
            let mut fifo = FifoBuffer::new(256);
            for _ in 0..256 {
                fifo.push(event.clone());
            }
            (fifo, Vec::with_capacity(32))
        },
        repeat(
            8,
            |(fifo, scratch): &mut (FifoBuffer, Vec<ClientMessage>), _| {
                scratch.clear();
                black_box(fifo.drain_into(32, scratch));
            },
        ),
    ));

    out.push(bench(
        "server.locks.acquire_release",
        budget,
        SteeringLock::new,
        repeat(2048, |lock: &mut SteeringLock, i| {
            black_box(lock.try_acquire(&user, SimTime::from_micros(i)));
            black_box(lock.release(&user));
        }),
    ));
    let archive = || {
        let mut store = ArchiveStore::new();
        store.snapshot_every = Some(128);
        store
    };
    out.push(bench(
        "server.archive.append",
        budget,
        archive,
        repeat(1024, |store: &mut ArchiveStore, i| {
            black_box(store.log_app(
                app(),
                SimTime::from_micros(i),
                None,
                LogEntry::Status(status(i)),
            ));
        }),
    ));
    out.push(bench(
        "server.archive.catch_up",
        budget,
        || {
            let mut store = archive();
            for i in 0..1024 {
                store.log_app(
                    app(),
                    SimTime::from_micros(i),
                    None,
                    LogEntry::Status(status(i)),
                );
            }
            store
        },
        repeat(256, |store: &mut ArchiveStore, i| {
            black_box(store.catch_up_app(app(), (i * 37) % 1024));
        }),
    ));

    out.push(bench(
        "orb.ring.owner",
        budget,
        || {
            let mut ring = HashRing::new(seed, DEFAULT_VNODES);
            for i in 0..4 {
                ring.add(format!("directory{i}"));
            }
            ring
        },
        repeat(2048, |ring: &mut HashRing, i| {
            black_box(ring.owner(&keys[i as usize % keys.len()]));
        }),
    ));
    let cache = || {
        let mut cache = DiscoveryCache::new(false);
        for key in &keys {
            cache.insert(
                SimTime::ZERO,
                key,
                ServerAddr(2),
                SimDuration::from_secs(3600),
            );
        }
        cache
    };
    out.push(bench(
        "discover-core.cache.hit",
        budget,
        cache,
        repeat(2048, |c: &mut DiscoveryCache, i| {
            black_box(c.lookup(SimTime::from_secs(1), &keys[i as usize % keys.len()]));
        }),
    ));
    out.push(bench(
        "discover-core.cache.miss",
        budget,
        cache,
        repeat(2048, |c: &mut DiscoveryCache, _| {
            black_box(c.lookup(SimTime::from_secs(1), "DISCOVER/apps/absent"));
        }),
    ));

    out.push(bench(
        "simnet.engine.schedule_pop",
        budget,
        || {
            let mut engine = Engine::<Tick>::new(1);
            engine.add_node("ticker", Ticker);
            engine
        },
        |engine| engine.run_for(SimDuration::from_millis(4096)),
    ));
    out.push(busy_repush("simnet.engine.busy_repush.b1", budget, 1));
    out.push(busy_repush("simnet.engine.busy_repush.b64", budget, 64));
    out.push(busy_repush("simnet.engine.busy_repush.b512", budget, 512));

    // What `Metrics::incr` does inside a handler: the global sink by key
    // and the node registry by definition.
    out.push(bench(
        "simnet.metrics.incr",
        budget,
        || (Stats::new(), MetricsRegistry::new("node")),
        repeat(4096, |(global, node): &mut (Stats, MetricsRegistry), _| {
            global.incr(names::SERVER_HTTP_REQUESTS.key());
            node.incr(names::SERVER_HTTP_REQUESTS);
        }),
    ));
    out.push(bench(
        "simnet.stats.histogram_record",
        budget,
        Histogram::new,
        repeat(4096, |h: &mut Histogram, i| {
            h.record(SimDuration::from_micros(i * 37 % 100_000));
        }),
    ));
    out
}

/// Kernels that also report `.allocs_per_op`.
pub const ALLOC_KERNELS: [&str; 8] = [
    "wire.codec.encode_update",
    "wire.codec.decode_borrowed_update",
    "wire.codec.encode_request",
    "wire.codec.decode_borrowed_request",
    "webserv.fifo.push",
    "server.archive.append",
    "server.archive.catch_up",
    "simnet.engine.schedule_pop",
];

/// Every kernel name, in the order [`run_all`] returns them.
pub const NAMES: [&str; 21] = [
    "calibration.spin",
    "wire.codec.encode_update",
    "wire.codec.encoded_len_update",
    "wire.codec.decode_borrowed_update",
    "wire.codec.encode_request",
    "wire.codec.decode_borrowed_request",
    "webserv.fifo.push",
    "webserv.fifo.coalesce_push",
    "webserv.fifo.drain_into",
    "server.locks.acquire_release",
    "server.archive.append",
    "server.archive.catch_up",
    "orb.ring.owner",
    "discover-core.cache.hit",
    "discover-core.cache.miss",
    "simnet.engine.schedule_pop",
    "simnet.engine.busy_repush.b1",
    "simnet.engine.busy_repush.b64",
    "simnet.engine.busy_repush.b512",
    "simnet.metrics.incr",
    "simnet.stats.histogram_record",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_list_the_kernels_in_order() {
        let results = run_all(1, Duration::from_micros(100));
        let names: Vec<&str> = results.iter().map(|k| k.name).collect();
        assert_eq!(names, NAMES);
        assert!(ALLOC_KERNELS.iter().all(|k| NAMES.contains(k)));
        assert!(results.iter().all(|k| k.ns_per_op > 0.0 && k.ops > 0));
    }
}
