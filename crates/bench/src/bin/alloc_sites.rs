//! Sampling allocation profiler: which source lines allocate on the
//! per-message paths, and how often — or, with `--bytes`, how much — per
//! answered client op.
//!
//! A counting `#[global_allocator]` captures a backtrace on every
//! [`SAMPLE_EVERY`]th allocation inside the measured window. Frames of
//! the standard library, of its hash table and of this file are dropped;
//! what is left is keyed by its innermost [`KEY_FRAMES`] frames, and the
//! heaviest keys are printed as
//! `share  allocs/op  avg bytes  site <- caller <- …`.
//!
//! `--bytes` ranks the sites by bytes asked for instead
//! (`share  bytes/op  allocs/op  site <- caller <- …`) and attributes
//! *every* allocation of at least [`EVERY_FROM`] bytes, one in
//! [`SAMPLE_EVERY`] only of the rest: a queue that doubles to 140 KB does
//! so a handful of times in the window, and a one-in-53 sample sees that
//! once or never. Bytes are counted as `benchmark/src/alloc.rs` counts
//! them (a `realloc` asks for its new size), so the header's bytes per
//! op is `alloc_bytes_per_work` of the matching workload at seed 1.
//!
//! It profiles three shapes of the wall-clock benchmark's workloads
//! (constants copied from `benchmark/src/sim.rs`; that workspace is the
//! judge and this crate does not depend on it):
//! - `mesh_remote` (the default): 4 servers on a WAN mesh, push-mode
//!   collaboration, 2 directory shards, a 15 s discovery cache, one hot
//!   app per server, 16 portals each steering the next server's app. An
//!   op is a client op answered.
//! - `steer_local` (`--local`): 8 portals steering 8 interactive apps
//!   through one server. An op is a client op answered.
//! - `fanout_steady` (`--fanout`): one hot app on a coalescing server, a
//!   steering writer and 256 viewers polling every 4 s, measured after
//!   their join has drained. An op is a message delivered to a portal.
//!
//! File and line come from `debug = "line-tables-only"`, which
//! `[profile.release]` sets.
//!
//! Usage:
//!   cargo run --release -p discover-bench --bin alloc_sites -- [--local | --fanout] [--bytes] [--top N]

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use appsim::synthetic_app;
use discover_bench::fixtures::{
    hot_app_config, interactive_app_config, total_ops, workload_portal,
};
use discover_client::{OpMix, Portal, PortalConfig, Workload};
use discover_core::{
    CollabMode, Collaboratory, CollaboratoryBuilder, DiscoveryCacheConfig, ServerHandle,
};
use simnet::{LinkSpec, NodeId, SimDuration, SimTime};
use wire::{AppId, Privilege};

/// One allocation in this many is attributed (a prime, so the sample
/// does not lock onto a periodic allocation pattern).
const SAMPLE_EVERY: u64 = 53;
/// With `--bytes`, the size from which every allocation is attributed.
const EVERY_FROM: usize = 1024;
/// Frames that make up a site's key.
const KEY_FRAMES: usize = 6;
const SEED: u64 = 1;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Allocations seen below [`ATTRIBUTE_FROM`]: the sampled ones.
    static SMALL: Cell<u64> = const { Cell::new(0) };
    /// The size from which every allocation is attributed: none is,
    /// unless `--bytes` lowers it to [`EVERY_FROM`].
    static ATTRIBUTE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Set while the measured window runs.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Set while a sample is being taken: capturing and storing a
    /// backtrace allocates, and those allocations are the profiler's.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    /// Per sample: bytes asked for, allocations it stands for, where.
    static SAMPLES: RefCell<Vec<(usize, u64, Backtrace)>> = const { RefCell::new(Vec::new()) };
}

fn note(size: usize) {
    if !ARMED.with(Cell::get) || SAMPLING.with(Cell::get) {
        return;
    }
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
    let weight = if size >= ATTRIBUTE_FROM.with(Cell::get) {
        1
    } else if SMALL.with(|c| c.replace(c.get() + 1)).is_multiple_of(SAMPLE_EVERY) {
        SAMPLE_EVERY
    } else {
        return;
    };
    SAMPLING.with(|s| s.set(true));
    let trace = Backtrace::force_capture();
    SAMPLES.with(|s| s.borrow_mut().push((size, weight, trace)));
    SAMPLING.with(|s| s.set(false));
}

/// The system allocator, counting and sampling what the armed thread
/// asks of it.
struct Sampling;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. `note` runs before the
// forwarded call and touches only thread-locals with constant
// initialisers (no lazy initialisation, no destructor registered from
// inside the allocator); the allocations it makes itself re-enter these
// methods with `SAMPLING` set and are forwarded without being noted.
unsafe impl GlobalAlloc for Sampling {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`,
        // i.e. by `System` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from
        // `System`; `new_size` is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Sampling = Sampling;

/// A built shape: the network, its portals, the warm-up and measured
/// window in virtual seconds, and what it counts as one op.
struct Shape {
    collab: Collaboratory,
    portals: Vec<NodeId>,
    warmup: u64,
    window: u64,
    /// The op, as the header names it.
    unit: &'static str,
    /// Ops done so far.
    done: fn(&Collaboratory, &[NodeId]) -> u64,
}

/// What the steering shapes count.
const OPS: &str = "client ops answered";

/// Attach a closed-loop portal for `user`, homed on `home` and steering
/// `app`, logging in after `login_delay_ms`.
fn attach_portal(
    b: &mut CollaboratoryBuilder,
    home: ServerHandle,
    user: &str,
    app: AppId,
    mix: &OpMix,
    login_delay_ms: u64,
) -> NodeId {
    let mut cfg = workload_portal(user, app, mix.clone(), 200);
    cfg.login_delay = SimDuration::from_millis(login_delay_ms);
    b.portal(home, &format!("portal-{user}"), cfg)
}

fn steer_local() -> Shape {
    let mut b = CollaboratoryBuilder::new(SEED);
    let server = b.server("server0");
    let mix = OpMix { get_status: 2, get_sensors: 5, get_param: 2, set_param: 0, chat: 1 };
    let mut portals = Vec::new();
    for i in 0..8 {
        let user = format!("user{i}");
        let cfg = interactive_app_config(&format!("sim{i}"), &[(&user, Privilege::ReadWrite)]);
        let (_, app) = b.application(server, synthetic_app(2, u64::MAX), cfg);
        portals.push(attach_portal(&mut b, server, &user, app, &mix, 50));
    }
    Shape { collab: b.build(), portals, warmup: 3, window: 480, unit: OPS, done: total_ops }
}

fn mesh_remote() -> Shape {
    const SERVERS: usize = 4;
    const PORTALS: usize = 16;
    let mut b = CollaboratoryBuilder::new(SEED);
    b.directory_shards(2);
    b.substrate_config.collab_mode = CollabMode::Push;
    b.substrate_config.discovery_cache =
        Some(DiscoveryCacheConfig { ttl: SimDuration::from_secs(15), ..Default::default() });
    b.substrate_config.discovery_interval = SimDuration::from_secs(5);
    let servers: Vec<ServerHandle> =
        (0..SERVERS).map(|i| b.server(&format!("server{i}"))).collect();
    b.mesh_servers(LinkSpec::wan());
    let users: Vec<String> = (0..PORTALS).map(|i| format!("user{i}")).collect();
    let acl: Vec<(&str, Privilege)> =
        users.iter().map(|u| (u.as_str(), Privilege::ReadWrite)).collect();
    let apps: Vec<AppId> = servers
        .iter()
        .enumerate()
        .map(|(i, &server)| {
            let cfg = hot_app_config(&format!("app{i}"), &acl);
            b.application(server, synthetic_app(2, u64::MAX), cfg).1
        })
        .collect();
    let mix = OpMix { set_param: 0, ..OpMix::default() };
    let mut portals = Vec::new();
    for (j, user) in users.iter().enumerate() {
        let home = j % SERVERS;
        let target = apps[(home + 1) % SERVERS];
        let login_delay_ms = 100 + (j as u64 * 131) % 1900;
        portals.push(attach_portal(&mut b, servers[home], user, target, &mix, login_delay_ms));
    }
    Shape { collab: b.build(), portals, warmup: 6, window: 240, unit: OPS, done: total_ops }
}

fn fanout_steady() -> Shape {
    const VIEWERS: usize = 256;
    let ms = SimDuration::from_millis;
    let mut b = CollaboratoryBuilder::new(SEED);
    b.tweak_servers(|cfg| cfg.coalesce_fifo = true);
    let server = b.server("server0");
    let users: Vec<String> = (0..VIEWERS).map(|i| format!("user{i}")).collect();
    let mut acl: Vec<(&str, Privilege)> =
        users.iter().map(|u| (u.as_str(), Privilege::ReadOnly)).collect();
    acl.push(("steerer", Privilege::Steer));
    let (_, app) =
        b.application(server, synthetic_app(2, u64::MAX), hot_app_config("storm0", &acl));
    let steerer = PortalConfig::new("steerer")
        .select_app(app)
        .poll_every(ms(500))
        .workload(Workload::new(app, OpMix::steering_only(), ms(200)));
    let mut portals = vec![b.portal(server, "steerer", steerer)];
    for (i, user) in users.iter().enumerate() {
        let mut viewer =
            PortalConfig::new(user).select_app(app).poll_every(SimDuration::from_secs(4));
        // Logins spread over the first 8 s; the 60 s warm-up drains the
        // join broadcast.
        viewer.login_delay = ms(200 + (i as u64 * 15) % 7800);
        portals.push(b.portal(server, &format!("viewer{i}"), viewer));
    }
    let unit = "messages delivered";
    Shape { collab: b.build(), portals, warmup: 60, window: 480, unit, done: total_deliveries }
}

/// Messages delivered to the portals so far.
fn total_deliveries(c: &Collaboratory, nodes: &[NodeId]) -> u64 {
    nodes
        .iter()
        .filter_map(|&n| c.engine.actor_ref::<Portal>(n))
        .map(|p| p.received.len() as u64)
        .sum()
}

/// One frame of a rendered backtrace as `file:line function`; `None` for
/// a frame that is not the program's own.
fn own_frame(function: &str, location: Option<&str>) -> Option<String> {
    let location = location?;
    let foreign = ["/rustc/", "library/", "hashbrown", file!()];
    if foreign.iter().any(|dir| location.contains(dir)) {
        return None;
    }
    // `./crates/x/src/y.rs:12:34` -> `crates/x/src/y.rs:12`.
    let location = location.strip_prefix("./").unwrap_or(location);
    let line = location.rsplit_once(':').map_or(location, |(line, _column)| line);
    // `dispatch<wire::envelope::Envelope, …>` -> `dispatch`; a trait
    // method, `<T as Trait>::f`, stays as it is.
    let generics = function.find('<').filter(|&at| at > 0).unwrap_or(function.len());
    Some(format!("{line} {}", &function[..generics]))
}

/// The key of a sample: its innermost [`KEY_FRAMES`] own frames. A
/// rendered backtrace is `N: function` lines, each followed by an
/// `at file:line:column` line when line tables cover the frame.
fn site_key(trace: &Backtrace) -> String {
    let text = trace.to_string();
    let mut lines = text.lines().map(str::trim).peekable();
    let mut frames = Vec::new();
    while let Some(line) = lines.next() {
        let Some((index, function)) = line.split_once(": ") else { continue };
        if index.parse::<u32>().is_err() {
            continue;
        }
        let location = lines.next_if(|next| next.starts_with("at ")).map(|at| &at[3..]);
        frames.extend(own_frame(function, location));
        if frames.len() == KEY_FRAMES {
            break;
        }
    }
    frames.join(" <- ")
}

fn main() {
    let mut build: fn() -> Shape = mesh_remote;
    let mut name = "mesh_remote";
    let mut by_bytes = false;
    let mut top = 15usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--local" => (build, name) = (steer_local, "steer_local"),
            "--fanout" => (build, name) = (fanout_steady, "fanout_steady"),
            "--bytes" => by_bytes = true,
            "--top" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => top = n,
                None => {
                    eprintln!("error: --top requires a count");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "error: unknown argument '{other}' \
                     (usage: alloc_sites [--local | --fanout] [--bytes] [--top N])"
                );
                std::process::exit(2);
            }
        }
    }
    let mut shape = build();
    let start = SimTime::from_secs(shape.warmup);
    shape.collab.engine.run_until(start);
    let ops_before = (shape.done)(&shape.collab, &shape.portals);

    if by_bytes {
        ATTRIBUTE_FROM.with(|from| from.set(EVERY_FROM));
    }
    ARMED.with(|a| a.set(true));
    shape.collab.engine.run_until(start + SimDuration::from_secs(shape.window));
    ARMED.with(|a| a.set(false));

    let ops = (shape.done)(&shape.collab, &shape.portals) - ops_before;
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let samples = SAMPLES.with(RefCell::take);
    // Per site, estimated from its samples: allocations made, bytes
    // asked for.
    let mut sites: HashMap<String, (u64, u64)> = HashMap::new();
    for (size, weight, trace) in &samples {
        let site = sites.entry(site_key(trace)).or_default();
        site.0 += weight;
        site.1 += weight * *size as u64;
    }
    let rank = |&(allocs, bytes): &(u64, u64)| if by_bytes { bytes } else { allocs };
    let mut sites: Vec<(String, (u64, u64))> = sites.into_iter().collect();
    sites.sort_by(|a, b| rank(&b.1).cmp(&rank(&a.1)).then_with(|| a.0.cmp(&b.0)));
    let ranked: u64 = sites.iter().map(|(_, site)| rank(site)).sum();

    let per_op = |n: u64| n as f64 / ops as f64;
    print!("{name}-shaped, seed {SEED}: {ops} {} in {} virtual s, ", shape.unit, shape.window);
    if by_bytes {
        println!(
            "{bytes} bytes in {allocs} allocations = {:.0} B per op; every allocation of \
             {EVERY_FROM} B or more and one in {SAMPLE_EVERY} of the rest attributed \
             ({} samples, {} sites)",
            per_op(bytes),
            samples.len(),
            sites.len(),
        );
        println!("{:>6}  {:>9}  {:>9}  site <- caller <- ...", "share", "bytes/op", "allocs/op");
    } else {
        println!(
            "{allocs} allocations = {:.2} per op; one in {SAMPLE_EVERY} attributed \
             ({} samples, {} sites)",
            per_op(allocs),
            samples.len(),
            sites.len(),
        );
        println!("{:>6}  {:>9}  {:>9}  site <- caller <- ...", "share", "allocs/op", "avg bytes");
    }
    for (site, counts) in sites.iter().take(top) {
        let share = 100.0 * rank(counts) as f64 / ranked as f64;
        let (site_allocs, site_bytes) = *counts;
        if by_bytes {
            println!(
                "{share:>5.1}%  {:>9.0}  {:>9.2}  {site}",
                per_op(site_bytes),
                per_op(site_allocs)
            );
        } else {
            println!(
                "{share:>5.1}%  {:>9.2}  {:>9.0}  {site}",
                per_op(site_allocs),
                site_bytes as f64 / site_allocs as f64
            );
        }
    }
}
