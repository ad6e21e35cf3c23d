//! Span recorder and the delegating actor wrapper that feeds it.
//!
//! Spans are recorded only here, in the benchmark's own code, around
//! calls into the repository's public functions: every actor of every
//! topology sits inside a [`Spanned`] wrapper, and the wire workload
//! brackets its codec and HTTP-head calls with [`scope`]. A layer's self
//! time is its spans' duration minus what their child spans cover, so the
//! self times of one run add up to the duration of its root spans.
//!
//! `Spanned<A, false>` compiles to plain delegation: the untraced runs
//! that produce the end-to-end metrics execute the same assembly with no
//! clock reads.

use std::cell::RefCell;
use std::time::Instant;

use simnet::{Actor, Ctx, NodeId};
use wire::giop::GiopKind;
use wire::{Content, Envelope};

/// Raw spans kept per run for the trace dump; later ones are aggregated only.
pub const RAW_SPAN_CAP: usize = 100_000;

/// A layer boundary of the stack (`crate.module`, as the README lists them).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `Engine::run_until` / `inject` + `run_to_quiescence`: event heap,
    /// link model and busy-node re-push once actor spans are subtracted.
    Engine,
    /// `DiscoverNode::on_message` with `Content::HttpRequest`.
    NodeHttp,
    /// `DiscoverNode::on_message` with `Content::Tcp`.
    NodeTcp,
    /// `DiscoverNode::on_message` with a GIOP request (skeleton side).
    NodeGiopRequest,
    /// `DiscoverNode::on_message` with a GIOP reply or exception.
    NodeGiopReply,
    /// `DiscoverNode::on_start` / `on_timer` (discovery, sweep, poll ticks).
    NodeTimers,
    /// `orb::Directory` (naming + trader).
    Directory,
    /// `discover_client::Portal`, the in-simulation load generator.
    Portal,
    /// `appsim::AppDriver`, the in-simulation application.
    AppDriver,
    /// `HttpRequest::parse_head` / `HttpResponse::parse_head`.
    ParseHead,
    /// `HttpRequest::render_head` / `HttpResponse::render_head`.
    RenderHead,
    /// `codec::decode_borrowed`.
    DecodeBorrowed,
    /// `codec::encode`.
    Encode,
    /// `StandaloneServer::on_message` (→ `ServerCore::handle_http`/`handle_tcp`).
    StandaloneDispatch,
    /// Benchmark-owned sink actors of the wire workload.
    Sink,
    /// The wire workload's own per-request driver code (script, framing).
    Driver,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 16] = [
        Layer::Engine,
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
        Layer::Sink,
        Layer::Driver,
    ];

    /// The metric prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "simnet.engine",
            Layer::NodeHttp => "discover-core.node.http",
            Layer::NodeTcp => "discover-core.node.tcp",
            Layer::NodeGiopRequest => "discover-core.node.giop_request",
            Layer::NodeGiopReply => "discover-core.node.giop_reply",
            Layer::NodeTimers => "discover-core.node.timers",
            Layer::Directory => "orb.directory",
            Layer::Portal => "client.portal",
            Layer::AppDriver => "appsim.driver",
            Layer::ParseHead => "wire.http.parse_head",
            Layer::RenderHead => "wire.http.render_head",
            Layer::DecodeBorrowed => "wire.codec.decode_borrowed",
            Layer::Encode => "wire.codec.encode",
            Layer::StandaloneDispatch => "server.standalone.dispatch",
            Layer::Sink => "bench.sink",
            Layer::Driver => "bench.driver",
        }
    }
}

/// One recorded span. `unit` is the ordinal of the actor-handler
/// invocation (dispatched engine event) it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    /// Span id, from 1 in start order.
    pub id: u32,
    /// Enclosing span's id, 0 for a root.
    pub parent: u32,
    /// The layer.
    pub layer: Layer,
    /// Start, nanoseconds since the recorder was reset.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was reset.
    pub end_ns: u64,
    /// Handler-invocation ordinal.
    pub unit: u64,
}

/// Aggregate of one layer's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans closed.
    pub calls: u64,
    /// Duration minus child spans, summed.
    pub self_ns: u64,
}

struct Open {
    id: u32,
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    unit: u64,
}

struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    totals: [LayerTotal; Layer::ALL.len()],
    raw: Vec<RawSpan>,
    next_id: u32,
    unit: u64,
    root_ns: u64,
    active: bool,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            totals: [LayerTotal::default(); Layer::ALL.len()],
            raw: Vec::new(),
            next_id: 1,
            unit: 0,
            root_ns: 0,
            active: false,
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// What one traced run recorded.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-layer aggregates, indexed like [`Layer::ALL`].
    pub totals: Vec<(Layer, LayerTotal)>,
    /// The first [`RAW_SPAN_CAP`] spans.
    pub raw: Vec<RawSpan>,
    /// Summed duration of root spans; equals the sum of all self times.
    pub root_ns: u64,
    /// Actor-handler invocations seen.
    pub handler_calls: u64,
}

impl Report {
    /// One layer's aggregate.
    pub fn layer(&self, layer: Layer) -> LayerTotal {
        self.totals
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Sum of every layer's self time.
    pub fn self_ns_sum(&self) -> u64 {
        self.totals.iter().map(|(_, t)| t.self_ns).sum()
    }
}

/// Forget everything recorded so far and restart the clock. Recording
/// stays off until [`set_active`].
pub fn reset() {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::new());
}

/// Switch recording on or off. Only measured windows record, so set-up
/// and warm-up handler calls stay out of the layer totals. Must be
/// called with no span open.
pub fn set_active(active: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "spans::set_active inside an open span");
        r.active = active;
    });
}

/// Open a span if recording is on; returns whether it did. A handler
/// span starts a new unit.
fn enter(layer: Layer, is_handler: bool) -> bool {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.active {
            return false;
        }
        if is_handler {
            r.unit += 1;
        }
        let id = r.next_id;
        r.next_id += 1;
        let unit = r.unit;
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.stack.push(Open {
            id,
            layer,
            start_ns,
            child_ns: 0,
            unit,
        });
        true
    })
}

fn exit() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        let open = r.stack.pop().expect("spans::exit without a matching enter");
        let dur = end_ns - open.start_ns;
        let total = &mut r.totals[open.layer as usize];
        total.calls += 1;
        total.self_ns += dur.saturating_sub(open.child_ns);
        let parent = match r.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => {
                r.root_ns += dur;
                0
            }
        };
        if r.raw.len() < RAW_SPAN_CAP {
            r.raw.push(RawSpan {
                id: open.id,
                parent,
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns,
                unit: open.unit,
            });
        }
    });
}

/// Run `f` inside a span of `layer` (plain `f()` while recording is off).
pub fn scope<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let opened = enter(layer, false);
    let out = f();
    if opened {
        exit();
    }
    out
}

/// Like [`scope`] when `TRACED`, plain `f()` otherwise.
pub fn scope_if<const TRACED: bool, R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if TRACED {
        scope(layer, f)
    } else {
        f()
    }
}

/// Take the report of everything recorded since the last [`reset`].
pub fn take() -> Report {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(
            r.stack.is_empty(),
            "spans::take with {} spans still open",
            r.stack.len()
        );
        let done = std::mem::replace(&mut *r, Recorder::new());
        Report {
            totals: Layer::ALL
                .iter()
                .map(|&l| (l, done.totals[l as usize]))
                .collect(),
            raw: done.raw,
            root_ns: done.root_ns,
            handler_calls: done.unit,
        }
    })
}

/// Which actor a [`Spanned`] wraps; decides the layer of each handler call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `discover_core::DiscoverNode`, split by content kind.
    Node,
    /// `orb::Directory`.
    Directory,
    /// `discover_client::Portal`.
    Portal,
    /// `appsim::AppDriver`.
    App,
    /// `discover_server::StandaloneServer`.
    Standalone,
    /// A benchmark-owned sink.
    Sink,
}

impl Kind {
    fn on_message(self, msg: &Envelope) -> Layer {
        match self {
            Kind::Node => match &msg.content {
                Content::HttpRequest(_) | Content::HttpResponse(_) => Layer::NodeHttp,
                Content::Tcp(_) => Layer::NodeTcp,
                Content::Giop(frame) => match frame.kind {
                    GiopKind::Request { .. } => Layer::NodeGiopRequest,
                    GiopKind::Reply | GiopKind::SystemException => Layer::NodeGiopReply,
                },
            },
            other => other.on_timer(),
        }
    }

    fn on_timer(self) -> Layer {
        match self {
            Kind::Node => Layer::NodeTimers,
            Kind::Directory => Layer::Directory,
            Kind::Portal => Layer::Portal,
            Kind::App => Layer::AppDriver,
            Kind::Standalone => Layer::StandaloneDispatch,
            Kind::Sink => Layer::Sink,
        }
    }
}

/// Delegating actor: records one span per handler call when `TRACED`,
/// and is a pass-through when not.
pub struct Spanned<A, const TRACED: bool> {
    /// The wrapped actor; topologies read their results from it.
    pub inner: A,
    kind: Kind,
}

impl<A, const TRACED: bool> Spanned<A, TRACED> {
    /// Wrap `inner`, attributing its handler time by `kind`.
    pub fn new(kind: Kind, inner: A) -> Self {
        Spanned { inner, kind }
    }
}

impl<A: Actor<Envelope>, const TRACED: bool> Actor<Envelope> for Spanned<A, TRACED> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let opened = TRACED && enter(self.kind.on_timer(), true);
        self.inner.on_start(ctx);
        if opened {
            exit();
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
        let opened = TRACED && enter(self.kind.on_message(&msg), true);
        self.inner.on_message(ctx, from, msg);
        if opened {
            exit();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
        let opened = TRACED && enter(self.kind.on_timer(), true);
        self.inner.on_timer(ctx, tag);
        if opened {
            exit();
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let opened = TRACED && enter(self.kind.on_timer(), true);
        self.inner.on_restart(ctx);
        if opened {
            exit();
        }
    }
}
