//! The CORBA Commodity Grid (CoG) kit companion.
//!
//! The paper's §7 closing scenario: "a client can use Globus services
//! provided by the CORBA CoG Kit to discover, allocate and stage a
//! scientific simulation, and then use the DISCOVER web-portal to
//! collaboratively monitor, interact with, and steer the application."
//! (This is the paper's companion effort, reference \[43\].) The kit is a
//! client of the middleware, not part of it.
//!
//! This module provides that slice of grid middleware over the same ORB
//! substrate:
//!
//! * [`GridSite`] — a GRAM-analogue gateway actor in front of a compute
//!   site: it queues submitted jobs, models input staging (bytes over the
//!   site's ingest bandwidth) and slot contention, and *launches* the
//!   application by opening its [`LaunchGate`] — after which the
//!   application registers with its DISCOVER server exactly like any
//!   other back-end code.
//! * MDS-analogue discovery: sites export `"GridSite"` offers to the
//!   same trader the DISCOVER servers use.
//! * [`GridLauncher`] — a client-side actor that discovers sites via the
//!   trader, picks the least-loaded one (GRAM status query), and submits
//!   a job.
//!
//! `main.rs` runs the end-to-end §7 scenario.

use std::collections::VecDeque;

use appsim::LaunchGate;
use orb::directory::calls;
use orb::Broker;
use simnet::{names, Actor, Ctx, NodeId, SimDuration, SimTime};
use wire::giop::{GiopBody, GiopFrame, GiopKind};
use wire::{
    Content, Envelope, ErrorCode, JobSpec, ObjectKey, ObjectRef, PeerMsg, PeerReply, ServerAddr,
    ServiceOffer, Value, WireError,
};

/// Service type grid sites export to the trader.
pub const GRID_SERVICE: &str = "GridSite";
/// Object key of a site's GRAM servant.
pub const GRAM_KEY: &str = "GramGateway";

/// One pre-provisioned execution slot at a site: opening the gate starts
/// the associated (dormant) application driver.
pub struct Slot {
    gate: LaunchGate,
    busy_until: Option<SimTime>,
}

/// Configuration of a grid site.
#[derive(Clone, Debug)]
pub struct GridSiteConfig {
    /// Site's pseudo network address (distinct from DISCOVER servers).
    pub addr: ServerAddr,
    /// Human name.
    pub name: String,
    /// Ingest bandwidth for staging, bytes/second.
    pub stage_bandwidth_bps: u64,
    /// Fixed GRAM handling overhead per request.
    pub gram_overhead: SimDuration,
    /// Relative CPU speed (exported as an MDS attribute).
    pub speed: f64,
}

/// A GRAM-analogue gateway actor in front of a compute site.
pub struct GridSite {
    /// Configuration.
    pub config: GridSiteConfig,
    directory: NodeId,
    broker: Broker<()>,
    slots: Vec<Slot>,
    queue: VecDeque<(u64, JobSpec, SimTime)>,
    next_job: u64,
    /// Jobs launched so far (job id, spec name, launch time).
    pub launched: Vec<(u64, String, SimTime)>,
}

const TAG_SCAN: u64 = 1;

impl GridSite {
    /// Create a site with the given execution slots (one gate per
    /// pre-provisioned application driver).
    pub fn new(config: GridSiteConfig, directory: NodeId, gates: Vec<LaunchGate>) -> Self {
        GridSite {
            config,
            directory,
            broker: Broker::new(),
            slots: gates.into_iter().map(|gate| Slot { gate, busy_until: None }).collect(),
            queue: VecDeque::new(),
            next_job: 0,
            launched: Vec::new(),
        }
    }

    fn free_slots(&self, now: SimTime) -> u32 {
        self.slots
            .iter()
            .filter(|s| match s.busy_until {
                None => true,
                Some(t) => t <= now,
            })
            .count() as u32
    }

    /// Estimate the delay until a newly submitted job launches.
    fn eta(&self, job: &JobSpec, now: SimTime) -> SimDuration {
        let staging = SimDuration::from_micros(
            job.stage_bytes.saturating_mul(1_000_000) / self.config.stage_bandwidth_bps.max(1),
        );
        if self.free_slots(now) > self.queue.len() as u32 {
            staging
        } else {
            // Crude: wait for the soonest slot.
            let soonest = self
                .slots
                .iter()
                .filter_map(|s| s.busy_until)
                .min()
                .map(|t| t.since(now))
                .unwrap_or(SimDuration::ZERO);
            staging + soonest
        }
    }

    /// Try to start queued jobs on free slots.
    fn scan(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        while let Some((job_id, spec, ready_at)) = self.queue.front().cloned() {
            if ready_at > now {
                break; // still staging
            }
            let slot = self.slots.iter_mut().find(|s| match s.busy_until {
                None => true,
                Some(t) => t <= now,
            });
            let Some(slot) = slot else { break };
            slot.busy_until = Some(now + SimDuration::from_micros(spec.est_duration_us));
            slot.gate.open();
            ctx.metrics().incr(names::COG_JOBS_LAUNCHED);
            self.launched.push((job_id, spec.name.clone(), now));
            self.queue.pop_front();
        }
        if !self.queue.is_empty() {
            ctx.schedule(SimDuration::from_millis(200), TAG_SCAN);
        }
    }
}

impl Actor<Envelope> for GridSite {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        // MDS: export the site to the trader.
        let offer = ServiceOffer {
            service_type: GRID_SERVICE.to_string(),
            object: ObjectRef { server: self.config.addr, key: ObjectKey::new(GRAM_KEY) },
            properties: vec![
                ("name".to_string(), Value::Text(self.config.name.clone())),
                ("slots".to_string(), Value::Int(self.slots.len() as i64)),
                ("speed".to_string(), Value::Float(self.config.speed)),
            ],
        };
        let _ = self.broker.call(ctx, self.directory, calls::export(offer), (), None, None);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
        let Content::Giop(frame) = msg.content else { return };
        let GiopFrame { kind, request_id, target, operation, body } = frame;
        if matches!(kind, GiopKind::Reply | GiopKind::SystemException) {
            self.broker.complete(request_id);
            return;
        }
        let GiopBody::Call(call) = body else { return };
        ctx.consume(self.config.gram_overhead);
        let reply = match call {
            PeerMsg::GramQuery => PeerReply::GramStatus {
                free_slots: self.free_slots(ctx.now()),
                queued: self.queue.len() as u32,
                speed: self.config.speed,
            },
            PeerMsg::GramSubmit { job } => {
                let id = self.next_job;
                self.next_job += 1;
                let eta = self.eta(&job, ctx.now());
                let staging = SimDuration::from_micros(
                    job.stage_bytes.saturating_mul(1_000_000)
                        / self.config.stage_bandwidth_bps.max(1),
                );
                ctx.metrics().incr(names::COG_JOBS_SUBMITTED);
                let ready_at = ctx.now() + staging;
                self.queue.push_back((id, job, ready_at));
                ctx.schedule(staging, TAG_SCAN);
                PeerReply::GramAccepted { job: id, eta_us: eta.as_micros() }
            }
            other => PeerReply::Exception(WireError::new(
                ErrorCode::BadRequest,
                format!("GRAM cannot serve {other:?}"),
            )),
        };
        if matches!(kind, GiopKind::Request { response_expected: true }) {
            ctx.send(from, Envelope::giop(GiopFrame::reply(request_id, target, operation, reply)));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
        if tag == TAG_SCAN {
            self.scan(ctx);
        }
    }
}

/// Phases of a [`GridLauncher`]'s life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchPhase {
    /// Querying the trader for sites.
    Discovering,
    /// Querying candidate sites' GRAM status.
    Probing,
    /// Job submitted; waiting for the accept.
    Submitting,
    /// Done: job accepted at a site.
    Accepted,
    /// No site could take the job.
    Failed,
}

/// Client-side launcher: trader discovery → GRAM probe → submit.
pub struct GridLauncher {
    directory: NodeId,
    /// Maps site addresses to their gateway nodes (the IOR resolution the
    /// AddressBook performs for DISCOVER servers).
    book: orb::AddressBook,
    job: JobSpec,
    broker: Broker<LaunchStep>,
    candidates: Vec<(ServerAddr, NodeId)>,
    statuses: Vec<(NodeId, u32, f64)>,
    awaiting: usize,
    /// Current phase.
    pub phase: LaunchPhase,
    /// The accepted job id and predicted ETA, once accepted.
    pub accepted: Option<(u64, SimDuration)>,
    /// Site the job went to.
    pub chosen_site: Option<NodeId>,
    discovery_attempts: u32,
}

enum LaunchStep {
    Discover,
    Probe(NodeId),
    Submit,
}

const TAG_RETRY_DISCOVERY: u64 = 10;
const MAX_DISCOVERY_ATTEMPTS: u32 = 10;

impl GridLauncher {
    /// Prepare a launcher for `job`.
    pub fn new(directory: NodeId, book: orb::AddressBook, job: JobSpec) -> Self {
        GridLauncher {
            directory,
            book,
            job,
            broker: Broker::new(),
            candidates: Vec::new(),
            statuses: Vec::new(),
            awaiting: 0,
            phase: LaunchPhase::Discovering,
            accepted: None,
            chosen_site: None,
            discovery_attempts: 0,
        }
    }

    fn discover(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.discovery_attempts += 1;
        let query = calls::query(GRID_SERVICE, vec![]);
        let _ = self.broker.call(ctx, self.directory, query, LaunchStep::Discover, None, None);
    }
}

impl Actor<Envelope> for GridLauncher {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.discover(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
        if tag == TAG_RETRY_DISCOVERY && self.phase == LaunchPhase::Discovering {
            self.discover(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, _from: NodeId, msg: Envelope) {
        let Content::Giop(frame) = msg.content else { return };
        let GiopBody::Return(reply) = frame.body else { return };
        let Some(pending) = self.broker.complete(frame.request_id) else { return };
        match (pending.user, reply) {
            (LaunchStep::Discover, PeerReply::TraderOffers { offers }) => {
                self.candidates = offers
                    .iter()
                    .filter_map(|o| {
                        self.book.resolve(o.object.server).map(|n| (o.object.server, n))
                    })
                    .collect();
                if self.candidates.is_empty() {
                    // Sites may still be exporting their offers; retry a
                    // few times before giving up (MDS is eventually
                    // consistent).
                    if self.discovery_attempts < MAX_DISCOVERY_ATTEMPTS {
                        ctx.schedule(SimDuration::from_millis(500), TAG_RETRY_DISCOVERY);
                    } else {
                        self.phase = LaunchPhase::Failed;
                    }
                    return;
                }
                self.phase = LaunchPhase::Probing;
                self.awaiting = self.candidates.len();
                for (_, node) in self.candidates.clone() {
                    let query = (ObjectKey::new(GRAM_KEY), "gramQuery", PeerMsg::GramQuery);
                    let _ = self.broker.call(ctx, node, query, LaunchStep::Probe(node), None, None);
                }
            }
            (LaunchStep::Probe(node), PeerReply::GramStatus { free_slots, speed, .. }) => {
                self.statuses.push((node, free_slots, speed));
                self.awaiting -= 1;
                if self.awaiting == 0 {
                    // Pick the fastest site among those with free slots,
                    // falling back to the least-loaded.
                    let best = self
                        .statuses
                        .iter()
                        .filter(|(_, slots, _)| *slots > 0)
                        .max_by(|a, b| a.2.total_cmp(&b.2))
                        .or_else(|| self.statuses.iter().max_by_key(|(_, slots, _)| *slots))
                        .map(|(n, ..)| *n);
                    match best {
                        Some(node) => {
                            self.phase = LaunchPhase::Submitting;
                            self.chosen_site = Some(node);
                            let submit = PeerMsg::GramSubmit { job: self.job.clone() };
                            let submit = (ObjectKey::new(GRAM_KEY), "gramSubmit", submit);
                            let _ =
                                self.broker.call(ctx, node, submit, LaunchStep::Submit, None, None);
                        }
                        None => self.phase = LaunchPhase::Failed,
                    }
                }
            }
            (LaunchStep::Submit, PeerReply::GramAccepted { job, eta_us }) => {
                self.phase = LaunchPhase::Accepted;
                self.accepted = Some((job, SimDuration::from_micros(eta_us)));
                ctx.metrics().incr(names::COG_LAUNCHES_ACCEPTED);
            }
            (_, PeerReply::Exception(_)) => self.phase = LaunchPhase::Failed,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::{AddressBook, Directory, DirectoryCosts};
    use simnet::{Engine, LinkSpec};

    fn site_config(addr: u32, name: &str, speed: f64) -> GridSiteConfig {
        GridSiteConfig {
            addr: ServerAddr(addr),
            name: name.to_string(),
            stage_bandwidth_bps: 1_000_000,
            gram_overhead: SimDuration::from_millis(2),
            speed,
        }
    }

    fn job(stage_bytes: u64) -> JobSpec {
        JobSpec {
            name: "ipars".into(),
            kind: "oilres".into(),
            stage_bytes,
            est_duration_us: 30_000_000,
        }
    }

    #[test]
    fn discover_probe_submit_launches_the_gate() {
        let mut eng = Engine::new(5);
        let dir = eng.add_node("directory", Directory::new(DirectoryCosts::default()));
        let book = AddressBook::new();
        let gate = LaunchGate::closed();
        let site = eng.add_node(
            "site",
            GridSite::new(site_config(100, "sdsc", 1.0), dir, vec![gate.clone()]),
        );
        book.register(ServerAddr(100), site);
        eng.link(site, dir, LinkSpec::campus());
        let launcher =
            eng.add_node("launcher", GridLauncher::new(dir, book.clone(), job(2_000_000)));
        eng.link(launcher, dir, LinkSpec::campus());
        eng.link(launcher, site, LinkSpec::wan());
        eng.run_until(SimTime::from_secs(10));

        let l = eng.actor_ref::<GridLauncher>(launcher).unwrap();
        assert_eq!(l.phase, LaunchPhase::Accepted);
        assert!(l.accepted.is_some());
        // Staging 2 MB at 1 MB/s = 2 s before the gate opens.
        assert!(gate.is_open(), "the job's launch gate must be open");
        let s = eng.actor_ref::<GridSite>(site).unwrap();
        assert_eq!(s.launched.len(), 1);
        assert!(
            s.launched[0].2 >= SimTime::from_secs(2),
            "staging delay must elapse before launch, got {:?}",
            s.launched[0].2
        );
    }

    #[test]
    fn launcher_prefers_faster_site_with_free_slots() {
        let mut eng = Engine::new(6);
        let dir = eng.add_node("directory", Directory::new(DirectoryCosts::default()));
        let book = AddressBook::new();
        let slow_gate = LaunchGate::closed();
        let fast_gate = LaunchGate::closed();
        let slow = eng.add_node(
            "slow",
            GridSite::new(site_config(100, "slow", 0.5), dir, vec![slow_gate.clone()]),
        );
        let fast = eng.add_node(
            "fast",
            GridSite::new(site_config(101, "fast", 2.0), dir, vec![fast_gate.clone()]),
        );
        book.register(ServerAddr(100), slow);
        book.register(ServerAddr(101), fast);
        for n in [slow, fast] {
            eng.link(n, dir, LinkSpec::campus());
        }
        let launcher = eng.add_node("launcher", GridLauncher::new(dir, book.clone(), job(0)));
        eng.link(launcher, dir, LinkSpec::campus());
        eng.link(launcher, slow, LinkSpec::wan());
        eng.link(launcher, fast, LinkSpec::wan());
        eng.run_until(SimTime::from_secs(10));

        let l = eng.actor_ref::<GridLauncher>(launcher).unwrap();
        assert_eq!(l.phase, LaunchPhase::Accepted);
        assert_eq!(l.chosen_site, Some(fast), "the 2.0x site should win");
        assert!(fast_gate.is_open());
        assert!(!slow_gate.is_open());
    }

    #[test]
    fn queue_waits_for_busy_slots() {
        // One slot, two jobs: the second launches only after the first's
        // estimated duration elapses.
        let mut eng = Engine::new(7);
        let dir = eng.add_node("directory", Directory::new(DirectoryCosts::default()));
        let book = AddressBook::new();
        let g1 = LaunchGate::closed();
        let site =
            eng.add_node("site", GridSite::new(site_config(100, "s", 1.0), dir, vec![g1.clone()]));
        book.register(ServerAddr(100), site);
        eng.link(site, dir, LinkSpec::campus());
        // Two 5-second jobs for one slot: whichever wins, the other must
        // wait a full tenure.
        let mut short = job(0);
        short.est_duration_us = 5_000_000;
        let l1 = eng.add_node("l1", GridLauncher::new(dir, book.clone(), short.clone()));
        let l2 = eng.add_node("l2", GridLauncher::new(dir, book.clone(), short));
        for l in [l1, l2] {
            eng.link(l, dir, LinkSpec::campus());
            eng.link(l, site, LinkSpec::wan());
        }
        eng.run_until(SimTime::from_secs(30));
        let s = eng.actor_ref::<GridSite>(site).unwrap();
        assert_eq!(s.launched.len(), 2, "both jobs eventually launch");
        let t2 = s.launched[1].2;
        assert!(t2 >= SimTime::from_secs(5), "second job waits for the slot: launched at {t2:?}");
    }

    #[test]
    fn no_sites_means_failed() {
        let mut eng = Engine::new(8);
        let dir = eng.add_node("directory", Directory::new(DirectoryCosts::default()));
        let launcher = eng.add_node("launcher", GridLauncher::new(dir, AddressBook::new(), job(0)));
        eng.link(launcher, dir, LinkSpec::campus());
        eng.run_until(SimTime::from_secs(5));
        assert_eq!(eng.actor_ref::<GridLauncher>(launcher).unwrap().phase, LaunchPhase::Failed);
    }
}
