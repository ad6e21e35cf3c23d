//! The client portal actor: a scripted stand-in for the paper's thin
//! web-browser portals.
//!
//! A portal logs in over HTTP, selects an application (local or remote —
//! it cannot tell the difference, which is the point of the middleware),
//! polls its server for buffered messages (poll-and-pull), runs an
//! optional scripted request sequence, and can drive a closed-loop
//! steering workload that measures per-operation completion latency
//! (issue → OpDone observed), including the polling delay HTTP imposes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use simnet::{names, Actor, Ctx, NodeId, SimDuration, SimTime, TraceContext};
use wire::http::HttpRequest;
use wire::{
    AppDescriptor, AppId, AppOp, ArchiveSnapshot, ClientMessage, ClientRequest, Content,
    DeadlineStamp, Envelope, ErrorCode, LogRecord, MessageKind, Priority, ResponseBody,
    StatusReport, UpdateBody, UserId, Value,
};

const TAG_LOGIN: u64 = 1;
const TAG_POLL: u64 = 2;
const TAG_THINK: u64 = 3;
const TAG_RESUME: u64 = 4;
const TAG_STATUS: u64 = 5;
const TAG_SCRIPT_BASE: u64 = 1000;

/// Extra pause before reissuing after an `Overloaded` rejection (the
/// server's retry-after hint, honoured client-side), and the resume
/// watchdog's period. The actual pause adds deterministic per-client
/// jitter in `[0, OVERLOAD_BACKOFF)` so a shed burst never re-arrives
/// synchronized; the jitter is a pure function of the user name and the
/// retry ordinal, keeping same-seed runs byte-identical.
const OVERLOAD_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// The per-operation deadline a deployed portal stamps: E15's loose
/// deadline (`experiments/overload.rs`).
pub const PRODUCTION_DEADLINE: SimDuration = SimDuration::from_millis(2500);

/// Relative frequencies of closed-loop operations.
#[derive(Clone, Debug)]
pub struct OpMix {
    /// Weight of `GetStatus` (served from the server's proxy cache; the
    /// cheapest probe of server responsiveness).
    pub get_status: u32,
    /// Weight of `GetSensors` (view refresh; forwarded to the app).
    pub get_sensors: u32,
    /// Weight of `GetParam` reads.
    pub get_param: u32,
    /// Weight of `SetParam` steering writes (requires the lock).
    pub set_param: u32,
    /// Weight of chat messages.
    pub chat: u32,
}

impl Default for OpMix {
    fn default() -> Self {
        // A monitoring-heavy mix, as interactive steering sessions are.
        OpMix { get_status: 0, get_sensors: 6, get_param: 2, set_param: 1, chat: 1 }
    }
}

impl OpMix {
    /// Only cache-served status probes (pure middleware load, no app).
    pub fn status_only() -> Self {
        OpMix { get_status: 1, get_sensors: 0, get_param: 0, set_param: 0, chat: 0 }
    }

    /// Only sensor reads (exercises the app command/response path).
    pub fn sensors_only() -> Self {
        OpMix { get_status: 0, get_sensors: 1, get_param: 0, set_param: 0, chat: 0 }
    }

    /// Only steering writes (requires the lock).
    pub fn steering_only() -> Self {
        OpMix { get_status: 0, get_sensors: 0, get_param: 0, set_param: 1, chat: 0 }
    }

    fn total(&self) -> u32 {
        self.get_status + self.get_sensors + self.get_param + self.set_param + self.chat
    }

    /// Draw one request for `app` given a steerable parameter name.
    fn sample(
        &self,
        rng: &mut impl rand::Rng,
        app: AppId,
        param: &str,
        counter: u64,
    ) -> ClientRequest {
        let total = self.total().max(1);
        let mut x = rng.gen_range(0..total);
        if x < self.get_status {
            return ClientRequest::Op { app, op: AppOp::GetStatus };
        }
        x -= self.get_status;
        if x < self.get_sensors {
            return ClientRequest::Op { app, op: AppOp::GetSensors };
        }
        x -= self.get_sensors;
        if x < self.get_param {
            return ClientRequest::Op { app, op: AppOp::GetParam(param.to_string()) };
        }
        x -= self.get_param;
        if x < self.set_param {
            let value = Value::Float(1.0 + (counter % 7) as f64 * 0.25);
            return ClientRequest::Op { app, op: AppOp::SetParam(param.to_string(), value) };
        }
        ClientRequest::Chat { app, text: format!("msg-{counter}") }
    }
}

/// Closed-loop workload configuration.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The application to drive.
    pub app: AppId,
    /// Think time between an operation's completion and the next issue.
    pub think: SimDuration,
    /// Operation mix.
    pub mix: OpMix,
    /// Whether to acquire the steering lock after selecting (needed for
    /// any `set_param` weight > 0).
    pub take_lock: bool,
    /// Release and re-acquire the lock after this many operations
    /// (0 = hold it for the whole session). Drives contention experiments.
    pub ops_per_lock: u64,
}

impl Workload {
    /// A closed-loop workload over `app` with the given mix and think time.
    pub fn new(app: AppId, mix: OpMix, think: SimDuration) -> Self {
        let take_lock = mix.set_param > 0;
        Workload { app, think, mix, take_lock, ops_per_lock: 0 }
    }
}

/// Portal configuration.
#[derive(Clone, Debug)]
pub struct PortalConfig {
    /// The user identity.
    pub user: UserId,
    /// Password (defaults to the shared-secret convention).
    pub password: String,
    /// Delay before the login request (lets applications register).
    pub login_delay: SimDuration,
    /// Poll period.
    pub poll_every: SimDuration,
    /// Application to select right after login, if any.
    pub select: Option<AppId>,
    /// Scripted requests at absolute times.
    pub script: Vec<(SimDuration, ClientRequest)>,
    /// Optional closed-loop workload (starts once selected / locked).
    pub workload: Option<Workload>,
    /// Per-operation deadline budget. When set, every posted operation
    /// (and lock request) carries a [`DeadlineStamp`] of `now + budget`
    /// classified by [`Priority::of_request`]; downstream hops drop the
    /// work once the stamp expires. `None` (the default) leaves the wire
    /// byte-identical to an undeadlined run.
    pub deadline: Option<SimDuration>,
    /// Probe the server's live status page at this interval (the
    /// read-only [`ClientRequest::Status`] introspection request). `None`
    /// (the default) sends nothing, so untraced runs stay byte-identical;
    /// one-shot probes can also be scripted via [`PortalConfig::at`].
    pub status_every: Option<SimDuration>,
    /// Attempt reconnect-with-resume when the session goes stale (a 401
    /// on an established cookie): present the old token plus archive
    /// cursors, have the server replay only the missed suffix, and fall
    /// back to a full re-login if the server reclaimed the session; the
    /// fresh session then carries every scripted request the old one
    /// left unanswered (see [`Portal::script_answered`]). Off by default
    /// — portals predating the churn plane treat a 401 as terminal, and
    /// several experiments depend on that.
    pub resume: bool,
}

impl PortalConfig {
    /// A portal for `user` with the standard password convention.
    pub fn new(user: &str) -> Self {
        PortalConfig {
            user: UserId::new(user),
            password: format!("secret-{user}"),
            login_delay: SimDuration::from_millis(50),
            poll_every: SimDuration::from_millis(250),
            select: None,
            script: Vec::new(),
            workload: None,
            deadline: None,
            status_every: None,
            resume: false,
        }
    }

    /// Probe the server's live status page every `d`.
    pub fn status_every(mut self, d: SimDuration) -> Self {
        self.status_every = Some(d);
        self
    }

    /// Enable reconnect-with-resume on session loss.
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Stamp every posted operation with a `now + budget` deadline.
    pub fn deadline(mut self, budget: SimDuration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Select `app` right after login.
    pub fn select_app(mut self, app: AppId) -> Self {
        self.select = Some(app);
        self
    }

    /// Add a scripted request.
    pub fn at(mut self, t: SimDuration, req: ClientRequest) -> Self {
        self.script.push((t, req));
        self
    }

    /// Attach a closed-loop workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = Some(w);
        self
    }

    /// Override the poll period.
    pub fn poll_every(mut self, d: SimDuration) -> Self {
        self.poll_every = d;
        self
    }
}

/// The portal actor.
pub struct Portal {
    /// Configuration.
    pub config: PortalConfig,
    /// The local server this portal talks to (`CollaboratoryBuilder::portal`
    /// sets it when it places the portal).
    pub server: Option<NodeId>,
    /// Session cookie once logged in.
    pub cookie: Option<u64>,
    /// HTTP status of the login response.
    pub login_status: Option<u16>,
    /// Everything received, flattened (batches unpacked), with arrival
    /// times: the one store of replies. Status reports, catch-up tails and
    /// history batches are read off it.
    pub received: Vec<(SimTime, ClientMessage)>,
    /// Every tracked completion: (completion time, latency µs, success).
    /// `success` is false for error replies (shed, rejected, expired, …),
    /// letting experiments compute goodput — successes within a latency
    /// bound — without re-deriving pairing from `received`.
    pub op_completions: Vec<(SimTime, u64, bool)>,
    /// Number of workload operations issued.
    pub ops_issued: u64,
    ops_since_lock: u64,
    /// True once the steering lock has been granted to this portal.
    pub lock_held: bool,
    /// Lock acquisition latencies (first request → grant), microseconds.
    pub lock_latencies_us: Vec<u64>,
    lock_requested_at: Option<SimTime>,
    /// Issue time and root span of each in-flight tracked operation
    /// (completions arrive in FIFO order over the session channel).
    outstanding: VecDeque<(SimTime, Option<TraceContext>)>,
    selected: bool,
    select_sent: bool,
    workload_started: bool,
    op_counter: u64,
    /// Archive read cursor per application: the first sequence number
    /// this portal has NOT yet seen (updated from `History` replies).
    /// Presented on `Resume` so the server replays only the missed
    /// suffix.
    cursors: BTreeMap<AppId, u64>,
    /// True between sending a `Resume` and its definitive outcome.
    resuming: bool,
    /// Monotone retry ordinal feeding the deterministic jitter.
    backoff_attempt: u64,
    /// Completion time of each successful resume (a `Resumed` reply that
    /// arrived while resuming). Resumes sent and fallbacks to a full
    /// re-login are the node's `client.resumes` and
    /// `client.resume_fallbacks` counters.
    pub resumed_at: Vec<SimTime>,
    /// Issue times of in-flight status probes (replies arrive in FIFO
    /// order on the synchronous command channel).
    status_outstanding: VecDeque<SimTime>,
    /// When each scripted request was answered and whether the answer
    /// was a success, by script index; `None` while it is owed one. An
    /// error is an answer; a 401, which refuses the request before
    /// anything runs, is not.
    pub script_answered: Vec<Option<(SimTime, bool)>>,
    /// Script indices still owed an answer, oldest first.
    owed: Vec<usize>,
    /// Script indices a resuming portal holds back until its session
    /// lists their application: due while it had no session or before the
    /// session listed an application it saw before, or owed when a
    /// fallback login dropped the old session (which took their answers,
    /// or refused them unrun).
    held: Vec<usize>,
    /// The applications the current session has listed.
    listed: BTreeSet<AppId>,
    /// Every application any session has listed.
    seen: BTreeSet<AppId>,
}

/// The answer that settles a scripted request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Answer {
    Op,
    Acquire,
    Release,
    Archive,
}

impl Answer {
    /// The application and answer `req` waits for, if it waits for one.
    fn awaited(req: &ClientRequest) -> Option<(AppId, Answer)> {
        match req {
            ClientRequest::Op { app, .. } => Some((*app, Answer::Op)),
            ClientRequest::RequestLock { app } => Some((*app, Answer::Acquire)),
            ClientRequest::ReleaseLock { app } => Some((*app, Answer::Release)),
            ClientRequest::CatchUp { app, .. } | ClientRequest::GetHistory { app, .. } => {
                Some((*app, Answer::Archive))
            }
            _ => None,
        }
    }

    /// Which owed request `msg` answers, if any. A reply names its
    /// application and answer and settles the oldest request owed one. An
    /// error a poll delivers ends a relayed operation (a failed lock relay
    /// or history fetch is answered in kind), so it settles the oldest
    /// owed operation; an error a post's own reply carries refuses the
    /// request just posted, the newest owed.
    fn carried(msg: &ClientMessage, polled: bool) -> Option<Settles> {
        let oldest = |app: &AppId, answer| Some(Settles::Oldest(Some(*app), answer));
        match msg {
            ClientMessage::Response(r) => match r {
                ResponseBody::OpDone { app, .. } => oldest(app, Answer::Op),
                ResponseBody::LockGranted { app } | ResponseBody::LockDenied { app, .. } => {
                    oldest(app, Answer::Acquire)
                }
                ResponseBody::LockReleased { app } => oldest(app, Answer::Release),
                ResponseBody::CatchUp { app, .. } | ResponseBody::History { app, .. } => {
                    oldest(app, Answer::Archive)
                }
                _ => None,
            },
            ClientMessage::Error(e)
                if matches!(e.code, ErrorCode::AuthFailed | ErrorCode::SessionExpired)
                    || e.detail.starts_with("resume deferred") =>
            {
                None
            }
            ClientMessage::Error(e) if e.detail == "not the lock holder" => {
                Some(Settles::Oldest(None, Answer::Release))
            }
            ClientMessage::Error(_) if polled => Some(Settles::Oldest(None, Answer::Op)),
            ClientMessage::Error(_) => Some(Settles::Newest),
            _ => None,
        }
    }
}

/// The owed request an answer settles.
enum Settles {
    /// The oldest owed one of this answer, for this application if named.
    Oldest(Option<AppId>, Answer),
    /// The one posted last.
    Newest,
}

impl Portal {
    /// Create a portal from its configuration.
    pub fn new(config: PortalConfig) -> Self {
        let scripted = config.script.len();
        Portal {
            config,
            server: None,
            cookie: None,
            login_status: None,
            received: Vec::new(),
            op_completions: Vec::new(),
            ops_issued: 0,
            ops_since_lock: 0,
            lock_held: false,
            lock_latencies_us: Vec::new(),
            lock_requested_at: None,
            outstanding: VecDeque::new(),
            selected: false,
            select_sent: false,
            workload_started: false,
            op_counter: 0,
            cursors: BTreeMap::new(),
            resuming: false,
            backoff_attempt: 0,
            resumed_at: Vec::new(),
            status_outstanding: VecDeque::new(),
            script_answered: vec![None; scripted],
            owed: Vec::new(),
            held: Vec::new(),
            listed: BTreeSet::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Every status report received, with its arrival time, oldest
    /// first.
    pub fn status_reports(&self) -> impl DoubleEndedIterator<Item = (SimTime, &StatusReport)> {
        self.received.iter().filter_map(|(at, m)| match m {
            ClientMessage::Response(ResponseBody::Status(report)) => Some((*at, &**report)),
            _ => None,
        })
    }

    /// Every snapshot-aware catch-up reply received for `app`, oldest
    /// first: arrival time, the snapshot ridden (if any), the delta tail,
    /// and the next sequence to read from.
    pub fn catch_ups(
        &self,
        app: AppId,
    ) -> impl Iterator<Item = (SimTime, &Option<Arc<ArchiveSnapshot>>, &Vec<LogRecord>, u64)> {
        self.received.iter().filter_map(move |(at, m)| match m {
            ClientMessage::Response(ResponseBody::CatchUp {
                app: a,
                snapshot,
                records,
                next_seq,
            }) if *a == app => Some((*at, snapshot, records, *next_seq)),
            _ => None,
        })
    }

    /// Every `History` batch received for `app`, oldest first: arrival
    /// time, the records, and the next sequence to read from.
    pub fn histories(&self, app: AppId) -> impl Iterator<Item = (SimTime, &Vec<LogRecord>, u64)> {
        self.received.iter().filter_map(move |(at, m)| match m {
            ClientMessage::Response(ResponseBody::History { app: a, records, next_seq })
                if *a == app =>
            {
                Some((*at, records, *next_seq))
            }
            _ => None,
        })
    }

    /// Render the most recent status report as a text status page, the
    /// way the paper's portals render server-side views for the browser.
    pub fn status_page(&self) -> Option<String> {
        self.status_reports().next_back().map(|(_, r)| r.render())
    }

    /// All updates received, in order.
    pub fn updates(&self) -> Vec<&UpdateBody> {
        self.received
            .iter()
            .filter_map(|(_, m)| match m {
                ClientMessage::Update(u) => Some(u.body()),
                _ => None,
            })
            .collect()
    }

    /// Messages of one kind.
    pub fn of_kind(&self, kind: MessageKind) -> Vec<&ClientMessage> {
        self.received.iter().map(|(_, m)| m).filter(|m| m.kind() == kind).collect()
    }

    /// Send `req` to the home server `delay` from now, carrying `trace`
    /// and `deadline`: every request a portal makes leaves through here.
    fn send(
        &self,
        ctx: &mut Ctx<'_, Envelope>,
        req: HttpRequest,
        delay: SimDuration,
        trace: Option<TraceContext>,
        deadline: Option<DeadlineStamp>,
    ) {
        let server = self.server.expect("portal not wired to a server");
        let msg = Envelope::http_request(req).with_trace(trace).with_deadline(deadline);
        ctx.send_after(server, msg, delay);
    }

    fn post(&mut self, ctx: &mut Ctx<'_, Envelope>, req: ClientRequest) {
        self.post_traced(ctx, req, None);
    }

    fn post_traced(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        req: ClientRequest,
        trace: Option<TraceContext>,
    ) {
        if matches!(req, ClientRequest::RequestLock { .. }) && self.lock_requested_at.is_none() {
            self.lock_requested_at = Some(ctx.now());
        }
        if matches!(req, ClientRequest::Status) {
            self.status_outstanding.push_back(ctx.now());
            ctx.metrics().incr(names::CLIENT_STATUS_PROBES);
        }
        // Deadline stamping at portal ingress: operations and lock
        // traffic get `now + budget` with their priority class; control
        // plumbing (select, logout, …) travels unstamped.
        let stamp = self
            .config
            .deadline
            .filter(|_| {
                matches!(
                    req,
                    ClientRequest::Op { .. }
                        | ClientRequest::RequestLock { .. }
                        | ClientRequest::ReleaseLock { .. }
                )
            })
            .map(|budget| DeadlineStamp::after(ctx.now(), budget, Priority::of_request(&req)));
        let req = HttpRequest::post(webserv::paths::COMMAND, self.cookie, req);
        self.send(ctx, req, SimDuration::ZERO, trace, stamp);
    }

    /// Send (or re-send) a `Resume` carrying the stale token and the
    /// archive cursors accumulated from `History` replies.
    fn send_resume(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let Some(cookie) = self.cookie else { return };
        self.resuming = true;
        ctx.metrics().incr(names::CLIENT_RESUMES);
        let cursors: Vec<(AppId, u64)> = self.cursors.iter().map(|(a, s)| (*a, *s)).collect();
        let resume = ClientRequest::Resume { cookie, cursors };
        let req = HttpRequest::post(webserv::paths::COMMAND, Some(cookie), resume);
        self.send(ctx, req, SimDuration::ZERO, None, None);
        // Paced watchdog: if no definitive reply lands (the request was
        // lost in a partition, or the server deferred it under its resume
        // rate limit), re-send after the backoff plus per-client jitter —
        // a reconnect storm de-synchronizes on its first retry.
        self.backoff_attempt += 1;
        let jit = wire::jitter::retry_jitter_us(
            self.config.user.as_str(),
            self.backoff_attempt,
            OVERLOAD_BACKOFF.as_micros(),
        );
        ctx.schedule(OVERLOAD_BACKOFF + SimDuration::from_micros(jit), TAG_RESUME);
    }

    /// Drop every in-flight tracked operation (their completions are
    /// gone with the old session), finishing the spans.
    fn abandon_outstanding(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let abandoned = self.outstanding.len() as u64;
        if abandoned > 0 {
            ctx.metrics().add(names::CLIENT_OPS_ABANDONED, abandoned);
        }
        for (_, trace) in std::mem::take(&mut self.outstanding) {
            ctx.trace_finish(trace);
        }
    }

    /// Post scripted request `i`, owed an answer until one arrives if it
    /// waits for one. A resuming portal holds it while it has no session,
    /// or while its session has not yet listed an application an earlier
    /// one did (the peers' answers to the login are still on their way, and
    /// the server would refuse a request for an application it does not
    /// know yet).
    fn post_script(&mut self, ctx: &mut Ctx<'_, Envelope>, i: usize) {
        let Some((_, req)) = self.config.script.get(i) else { return };
        let req = req.clone();
        let app = Answer::awaited(&req).map(|(app, _)| app);
        if app.is_some() {
            self.owed.retain(|&o| o != i);
            self.owed.push(i);
        }
        let unlisted = app.is_some_and(|a| self.seen.contains(&a) && !self.listed.contains(&a));
        if self.config.resume && (self.cookie.is_none() || unlisted) {
            if !self.held.contains(&i) {
                self.held.push(i);
            }
        } else {
            self.post(ctx, req);
        }
    }

    /// Settle the owed scripted request that `msg`, arriving at `at`,
    /// answers (`polled`: a poll delivered it). A resume's own replay and
    /// a held request's answer, gone with its session, settle nothing.
    fn settle_script(&mut self, at: SimTime, msg: &ClientMessage, polled: bool) {
        if self.owed.is_empty() {
            return;
        }
        let Some(settles) = Answer::carried(msg, polled) else { return };
        let replay = self.resumed_at.last() == Some(&at);
        let (script, held) = (&self.config.script, &self.held);
        let mut open =
            self.owed.iter().map(|&i| (i, &script[i].1)).filter(|(i, _)| !held.contains(i));
        let owed = match settles {
            Settles::Oldest(_, Answer::Archive) if replay => None,
            Settles::Oldest(app, answer) => open.find(|(_, req)| {
                Answer::awaited(req)
                    .is_some_and(|(a, kind)| app.is_none_or(|app| app == a) && kind == answer)
            }),
            Settles::Newest => open.next_back(),
        };
        if let Some((i, _)) = owed {
            self.owed.retain(|&o| o != i);
            self.script_answered[i] = Some((at, matches!(msg, ClientMessage::Response(_))));
        }
    }

    /// The session of a resuming portal lists `apps`: post the held
    /// scripted requests that no longer wait.
    fn post_held(&mut self, ctx: &mut Ctx<'_, Envelope>, apps: &[AppDescriptor]) {
        self.listed.extend(apps.iter().map(|d| d.app));
        for i in std::mem::take(&mut self.held) {
            self.post_script(ctx, i);
        }
        self.seen.extend(apps.iter().map(|d| d.app));
    }

    /// The server reclaimed the parked session: forget it entirely and
    /// start over with a fresh login (select and lock flows re-run, and
    /// every scripted request still owed an answer is posted again).
    fn fallback_login(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        for &i in &self.owed {
            if !self.held.contains(&i) {
                self.held.push(i);
            }
        }
        self.listed.clear();
        self.resuming = false;
        self.cookie = None;
        self.selected = false;
        self.select_sent = false;
        self.lock_held = false;
        self.lock_requested_at = None;
        self.workload_started = false;
        self.cursors.clear();
        ctx.metrics().incr(names::CLIENT_RESUME_FALLBACKS);
        self.abandon_outstanding(ctx);
        ctx.schedule(SimDuration::ZERO, TAG_LOGIN);
    }

    fn issue_workload_op(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if self.resuming {
            return; // the Resumed reply restarts the loop
        }
        let Some(w) = self.config.workload.clone() else { return };
        // Lock cycling: release after the configured burst, then
        // immediately contend again (drives the E7 experiment).
        if w.take_lock
            && w.ops_per_lock > 0
            && self.lock_held
            && self.ops_since_lock >= w.ops_per_lock
        {
            self.lock_held = false;
            self.ops_since_lock = 0;
            let app = w.app;
            self.post(ctx, ClientRequest::ReleaseLock { app });
            self.lock_requested_at = None;
            self.post(ctx, ClientRequest::RequestLock { app });
            return; // the grant restarts the loop via maybe_start_workload
        }
        let param = "knob0";
        let req = w.mix.sample(ctx.rng(), w.app, param, self.op_counter);
        self.op_counter += 1;
        self.ops_issued += 1;
        self.ops_since_lock += 1;
        // Chat is fire-and-forget (synchronous ack); ops complete via poll.
        let tracked = matches!(req, ClientRequest::Op { .. });
        let mut trace = None;
        if tracked {
            // Root span of the end-to-end request: covers everything from
            // issue to the completion observed through polling.
            trace = ctx.trace_root("client.request");
            self.outstanding.push_back((ctx.now(), trace));
        }
        self.post_traced(ctx, req, trace);
        if !tracked {
            // Treat as immediately complete; think then continue.
            ctx.schedule(w.think, TAG_THINK);
        }
        ctx.metrics().incr(names::CLIENT_OPS_ISSUED);
    }

    fn maybe_start_workload(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if !self.selected {
            return;
        }
        let Some(w) = &self.config.workload else { return };
        if w.take_lock && !self.lock_held {
            return;
        }
        if self.workload_started {
            // A lock re-grant during cycling resumes the loop.
            if self.outstanding.is_empty() {
                self.issue_workload_op(ctx);
            }
            return;
        }
        self.workload_started = true;
        self.issue_workload_op(ctx);
    }

    /// Take in one message arriving at `at`; `polled`: a poll's batch
    /// carried it, rather than a post's own reply.
    fn handle_message(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        at: SimTime,
        msg: ClientMessage,
        polled: bool,
    ) {
        self.settle_script(at, &msg, polled);
        match &msg {
            ClientMessage::Response(ResponseBody::Batch(_)) => {
                if let ClientMessage::Response(ResponseBody::Batch(msgs)) = msg {
                    for m in msgs {
                        self.handle_message(ctx, at, m, true);
                    }
                }
                return;
            }
            // Select the target application as soon as it shows up in the
            // repository-of-services view. A remote application appears
            // only after the level-1 peer authentication fan-out
            // completes, so selection naturally waits for it.
            ClientMessage::Response(ResponseBody::LoginOk { apps, .. })
            | ClientMessage::Response(ResponseBody::Apps(apps)) => {
                if self.config.resume {
                    self.post_held(ctx, apps);
                }
                if let Some(app) = self.config.select {
                    if !self.select_sent && apps.iter().any(|d| d.app == app) {
                        self.select_sent = true;
                        self.post(ctx, ClientRequest::SelectApp { app });
                    }
                }
            }
            ClientMessage::Response(ResponseBody::AppSelected { .. }) => {
                self.selected = true;
                if let Some(w) = &self.config.workload {
                    if w.take_lock {
                        let app = w.app;
                        self.post(ctx, ClientRequest::RequestLock { app });
                    }
                }
                self.maybe_start_workload(ctx);
            }
            ClientMessage::Response(ResponseBody::LockGranted { .. }) => {
                self.lock_held = true;
                if let Some(requested) = self.lock_requested_at.take() {
                    let latency = at.since(requested);
                    self.lock_latencies_us.push(latency.as_micros());
                    ctx.metrics().record(names::CLIENT_LOCK_LATENCY, latency);
                }
                self.maybe_start_workload(ctx);
            }
            ClientMessage::Response(ResponseBody::LockDenied { .. }) => {
                // Retry after a beat (the paper's deny-and-retry protocol).
                if let Some(w) = &self.config.workload {
                    if w.take_lock && !self.lock_held {
                        let app = w.app;
                        ctx.metrics().incr(names::CLIENT_LOCK_RETRIES);
                        let req = HttpRequest::post(
                            webserv::paths::COMMAND,
                            self.cookie,
                            ClientRequest::RequestLock { app },
                        );
                        self.send(ctx, req, SimDuration::from_millis(500), None, None);
                    }
                }
            }
            ClientMessage::Response(ResponseBody::Status(_)) => {
                if let Some(issued) = self.status_outstanding.pop_front() {
                    ctx.metrics().record(names::CLIENT_STATUS_LATENCY, at.since(issued));
                }
            }
            // Archive read cursor: the next suffix replay starts here. A
            // snapshot-aware catch-up advances it exactly as a History
            // reply does.
            ClientMessage::Response(
                ResponseBody::History { app, next_seq, .. }
                | ResponseBody::CatchUp { app, next_seq, .. },
            ) => {
                self.cursors.insert(*app, *next_seq);
            }
            ClientMessage::Response(ResponseBody::Resumed { apps, .. }) if self.resuming => {
                self.resuming = false;
                self.resumed_at.push(at);
                ctx.metrics().incr(names::CLIENT_RESUMES_OK);
                // Completions of pre-park operations are gone with the
                // parked FIFO's drop policy; stop waiting for them.
                self.abandon_outstanding(ctx);
                // Selection survives the park; if it somehow did not,
                // the normal select flow re-runs on the next Apps view.
                if let Some(app) = self.config.select {
                    if !apps.contains(&app) {
                        self.selected = false;
                        self.select_sent = false;
                    }
                }
                // Restart the closed-loop workload after the outage.
                if self.workload_started {
                    if let Some(w) = &self.config.workload {
                        ctx.schedule(w.think, TAG_THINK);
                    }
                }
            }
            // A deferred resume ("resume deferred; retry-after: …"): the
            // paced watchdog scheduled at send time re-sends it. Nothing
            // to pop — Resume is not a tracked operation.
            ClientMessage::Error(e) if self.resuming && matches!(e.code, ErrorCode::Overloaded) => {
            }
            ClientMessage::Error(e)
                if self.config.resume
                    && self.cookie.is_some()
                    && matches!(e.code, ErrorCode::AuthFailed | ErrorCode::SessionExpired) =>
            {
                if matches!(e.code, ErrorCode::SessionExpired) {
                    // Definitive: the parked session was reclaimed after
                    // its TTL. Start over with a fresh login.
                    self.fallback_login(ctx);
                } else if !self.resuming {
                    // First stale-session 401 on an established cookie —
                    // the reconnect path. Later 401s from requests that
                    // were already in flight are ignored; the Resume's
                    // own reply settles the state machine.
                    self.send_resume(ctx);
                }
            }
            ClientMessage::Response(ResponseBody::OpDone { .. }) | ClientMessage::Error(_) => {
                let mut backoff = SimDuration::ZERO;
                if let ClientMessage::Error(e) = &msg {
                    match e.code {
                        ErrorCode::Overloaded => {
                            ctx.metrics().incr(names::CLIENT_OPS_REJECTED);
                            // Retry-after plus deterministic per-client
                            // jitter: a synchronized shed burst spreads
                            // out instead of re-arriving as one spike.
                            self.backoff_attempt += 1;
                            let jit = wire::jitter::retry_jitter_us(
                                self.config.user.as_str(),
                                self.backoff_attempt,
                                OVERLOAD_BACKOFF.as_micros(),
                            );
                            backoff = OVERLOAD_BACKOFF + SimDuration::from_micros(jit);
                        }
                        ErrorCode::DeadlineExceeded => {
                            ctx.metrics().incr(names::CLIENT_OPS_EXPIRED)
                        }
                        _ => {}
                    }
                }
                if let Some((issued, trace)) = self.outstanding.pop_front() {
                    ctx.trace_finish(trace);
                    let latency = at.since(issued);
                    let ok = matches!(&msg, ClientMessage::Response(_));
                    self.op_completions.push((at, latency.as_micros(), ok));
                    ctx.metrics().record(names::CLIENT_OP_LATENCY, latency);
                    if self.workload_started {
                        let think = self.config.workload.as_ref().map(|w| w.think);
                        if let Some(think) = think {
                            ctx.schedule(think + backoff, TAG_THINK);
                        }
                    }
                }
            }
            _ => {}
        }
        self.received.push((at, msg));
    }
}

impl Actor<Envelope> for Portal {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.schedule(self.config.login_delay, TAG_LOGIN);
        ctx.schedule(self.config.login_delay + self.config.poll_every, TAG_POLL);
        for (i, (delay, _)) in self.config.script.iter().enumerate() {
            ctx.schedule(*delay, TAG_SCRIPT_BASE + i as u64);
        }
        if let Some(every) = self.config.status_every {
            ctx.schedule(self.config.login_delay + every, TAG_STATUS);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, _from: NodeId, msg: Envelope) {
        let Content::HttpResponse(resp) = msg.content else { return };
        if self.login_status.is_none() {
            self.login_status = Some(resp.status);
        }
        if let Some(cookie) = resp.set_session {
            self.cookie = Some(cookie);
        }
        let at = ctx.now();
        for m in resp.body {
            self.handle_message(ctx, at, m, false);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
        match tag {
            TAG_LOGIN => {
                let login = ClientRequest::Login {
                    user: self.config.user.clone(),
                    password: self.config.password.clone(),
                };
                let req = HttpRequest::post(webserv::paths::MASTER, None, login);
                self.send(ctx, req, SimDuration::ZERO, None, None);
            }
            TAG_POLL => {
                if let Some(cookie) = self.cookie {
                    let req = HttpRequest::get(webserv::paths::POLL, Some(cookie));
                    self.send(ctx, req, SimDuration::ZERO, None, None);
                    // Held requests wait for their application to be
                    // listed: ask again, which also re-runs the peers'
                    // authentication a partition may have cut short.
                    if !self.held.is_empty() {
                        self.post(ctx, ClientRequest::ListApplications);
                    }
                }
                ctx.schedule(self.config.poll_every, TAG_POLL);
            }
            TAG_THINK => {
                self.issue_workload_op(ctx);
            }
            TAG_RESUME if self.resuming => {
                self.send_resume(ctx);
            }
            TAG_STATUS => {
                // Probes ride the session cookie once logged in; before
                // then the probe still goes out (Status needs no session —
                // it is a read-only page, like the paper's server list).
                self.post(ctx, ClientRequest::Status);
                if let Some(every) = self.config.status_every {
                    ctx.schedule(every, TAG_STATUS);
                }
            }
            t if t >= TAG_SCRIPT_BASE => {
                self.post_script(ctx, (t - TAG_SCRIPT_BASE) as usize);
            }
            _ => {}
        }
    }
}
