//! Sampling allocation profiler: which source lines allocate on the
//! per-message paths, and how often per answered client op.
//!
//! A counting `#[global_allocator]` captures a backtrace on every
//! [`SAMPLE_EVERY`]th allocation inside the measured window. Frames of
//! the standard library, of its hash table and of this file are dropped;
//! what is left is keyed by its innermost [`KEY_FRAMES`] frames, and the
//! heaviest keys are printed as
//! `share  allocs/op  avg bytes  site <- caller <- …`.
//!
//! It profiles the two shapes of the wall-clock benchmark's steering
//! workloads (constants copied from `benchmark/src/sim.rs`; that
//! workspace is the judge and this crate does not depend on it):
//! `mesh_remote` — 4 servers on a WAN mesh, push-mode collaboration, 2
//! directory shards, a 15 s discovery cache, one hot app per server, 16
//! portals each steering the next server's app — and, with `--local`,
//! `steer_local` — 8 portals steering 8 interactive apps through one
//! server. File and line come from `debug = "line-tables-only"`, which
//! `[profile.release]` sets.
//!
//! Usage:
//!   cargo run --release -p discover-bench --bin alloc_sites -- [--local] [--top N]

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use appsim::synthetic_app;
use discover_bench::fixtures::{
    hot_app_config, interactive_app_config, total_ops, workload_portal,
};
use discover_client::OpMix;
use discover_core::{
    CollabMode, Collaboratory, CollaboratoryBuilder, DiscoveryCacheConfig, ServerHandle,
};
use simnet::{LinkSpec, NodeId, SimDuration, SimTime};
use wire::{AppId, Privilege};

/// One allocation in this many is attributed (a prime, so the sample
/// does not lock onto a periodic allocation pattern).
const SAMPLE_EVERY: u64 = 53;
/// Frames that make up a site's key.
const KEY_FRAMES: usize = 6;
const SEED: u64 = 1;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Set while the measured window runs.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Set while a sample is being taken: capturing and storing a
    /// backtrace allocates, and those allocations are the profiler's.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    static SAMPLES: RefCell<Vec<(usize, Backtrace)>> = const { RefCell::new(Vec::new()) };
}

fn note(size: usize) {
    if !ARMED.with(Cell::get) || SAMPLING.with(Cell::get) {
        return;
    }
    let n = ALLOCS.with(|c| c.replace(c.get() + 1));
    if n.is_multiple_of(SAMPLE_EVERY) {
        SAMPLING.with(|s| s.set(true));
        let trace = Backtrace::force_capture();
        SAMPLES.with(|s| s.borrow_mut().push((size, trace)));
        SAMPLING.with(|s| s.set(false));
    }
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

/// A built shape: the network, its portals, and the warm-up and measured
/// window in virtual seconds.
struct Shape {
    collab: Collaboratory,
    portals: Vec<NodeId>,
    warmup: u64,
    window: u64,
}

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
    let mut portal = workload_portal(user, app, mix.clone(), 200);
    portal.server = Some(home.node);
    portal.config.login_delay = SimDuration::from_millis(login_delay_ms);
    b.attach(home, &format!("portal-{user}"), portal)
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
    Shape { collab: b.build(), portals, warmup: 3, window: 480 }
}

fn mesh_remote() -> Shape {
    const SERVERS: usize = 4;
    const PORTALS: usize = 16;
    let mut b = CollaboratoryBuilder::new(SEED);
    b.directory_shards(2);
    b.collab_mode(CollabMode::Push);
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
    Shape { collab: b.build(), portals, warmup: 6, window: 240 }
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
    let mut local = false;
    let mut top = 15usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--local" => local = true,
            "--top" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => top = n,
                None => {
                    eprintln!("error: --top requires a count");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument '{other}' (usage: alloc_sites [--local] [--top N])");
                std::process::exit(2);
            }
        }
    }
    let (name, mut shape) =
        if local { ("steer_local", steer_local()) } else { ("mesh_remote", mesh_remote()) };
    let start = SimTime::from_secs(shape.warmup);
    shape.collab.engine.run_until(start);
    let ops_before = total_ops(&shape.collab, &shape.portals);

    ARMED.with(|a| a.set(true));
    shape.collab.engine.run_until(start + SimDuration::from_secs(shape.window));
    ARMED.with(|a| a.set(false));

    let ops = total_ops(&shape.collab, &shape.portals) - ops_before;
    let allocs = ALLOCS.with(Cell::get);
    let samples = SAMPLES.with(RefCell::take);
    // Per site: samples taken, bytes they asked for.
    let mut sites: HashMap<String, (u64, u64)> = HashMap::new();
    for (size, trace) in &samples {
        let site = sites.entry(site_key(trace)).or_default();
        site.0 += 1;
        site.1 += *size as u64;
    }
    let mut sites: Vec<(String, (u64, u64))> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));

    println!(
        "{name}-shaped, seed {SEED}: {ops} client ops answered in {} virtual s, {allocs} \
         allocations = {:.2} per op; one in {SAMPLE_EVERY} attributed ({} samples, {} sites)",
        shape.window,
        allocs as f64 / ops as f64,
        samples.len(),
        sites.len(),
    );
    println!("{:>6}  {:>9}  {:>9}  site <- caller <- ...", "share", "allocs/op", "avg bytes");
    for (site, (hits, bytes)) in sites.iter().take(top) {
        println!(
            "{:>5.1}%  {:>9.2}  {:>9.0}  {site}",
            100.0 * *hits as f64 / samples.len() as f64,
            (hits * SAMPLE_EVERY) as f64 / ops as f64,
            *bytes as f64 / *hits as f64,
        );
    }
}
