//! Micro-benchmarks of what the wall-clock benchmark's own kernel set
//! (`benchmark/src/kernels.rs`: calibrated, JSON, compared) does not
//! time: the archive fold's record digest, HTTP head rendering/parsing
//! and wire sizes, metric writes into a populated sink, one application
//! update fanned out to a 256-member group, and one event's trip through
//! an event heap of realistic depth. The codec, FIFO, steering-lock and
//! histogram kernels live there only.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use discover_server::{ServerConfig, ServerCore};
use simnet::{names, Actor, Ctx, Engine, MetricsRegistry, NodeId, SimDuration};
use wire::http::{HttpRequest, HttpResponse};
use wire::tcp::TcpFrame;
use wire::{
    codec, AppId, AppMsg, AppOp, AppToken, Channel, ClientMessage, ClientRequest, Content,
    Envelope, FrozenUpdate, InteractionSpec, LogEntry, LogRecord, Privilege, ServerAddr,
    UpdateBody, UserId, Value,
};

fn sample_request() -> ClientRequest {
    ClientRequest::Op {
        app: AppId { server: ServerAddr(3), seq: 17 },
        op: AppOp::SetParam("injection_rate".to_string(), Value::Float(2.5)),
    }
}

fn sample_update() -> UpdateBody {
    UpdateBody::AppStatus {
        app: AppId { server: ServerAddr(3), seq: 17 },
        status: wire::AppStatus {
            phase: wire::AppPhase::Computing,
            iteration: 123_456,
            progress: 0.42,
        },
        readings: vec![
            ("water_cut".to_string(), Value::Float(0.31)),
            ("recovery".to_string(), Value::Float(0.18)),
            ("trace".to_string(), Value::Vector(vec![0.0; 16])),
        ],
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    // What `archive::Log::append` pays per event-class record: the fold
    // digests its encoding (one splice, then the frame around it).
    let chat = LogRecord {
        seq: 41,
        at_us: 1_250_000,
        user: Some(UserId::new("alice")),
        entry: LogEntry::Update(FrozenUpdate::new(UpdateBody::Chat {
            app: AppId { server: ServerAddr(3), seq: 17 },
            from: UserId::new("alice"),
            text: "raise the injection rate before the next checkpoint".to_string(),
        })),
    };
    g.throughput(Throughput::Bytes(codec::encoded_len(&chat) as u64));
    g.bench_function("digest_chat_record", |b| b.iter(|| codec::digest_fnv1a(black_box(&chat))));
    g.finish();
}

fn bench_http(c: &mut Criterion) {
    let mut g = c.benchmark_group("http");
    let req = HttpRequest::post("/discover/command", Some(0xdeadbeef), sample_request());
    let body_len = codec::encoded_len(req.body.as_ref().unwrap());
    let head = req.render_head(body_len);
    g.bench_function("render_head", |b| b.iter(|| black_box(&req).render_head(body_len)));
    g.bench_function("parse_head", |b| {
        b.iter(|| HttpRequest::parse_head(black_box(&head)).unwrap())
    });
    g.bench_function("wire_size", |b| b.iter(|| black_box(&req).wire_size()));
    g.finish();

    // What every poll and every reply pays before it reaches a link:
    // building the envelope, wire size included.
    let mut g = c.benchmark_group("wire");
    let sid = black_box(0xdead_beef_u64);
    g.bench_function("http_wire_size_poll", |b| {
        b.iter(|| Envelope::http_request(HttpRequest::get(webserv::paths::POLL, Some(sid))))
    });
    let resp = HttpResponse::ok(vec![ClientMessage::update(sample_update())]);
    g.bench_function("http_wire_size_response", |b| b.iter(|| black_box(&resp).wire_size()));
    g.finish();
}

/// What `ctx.metrics().incr(..)` costs inside a handler late in a run:
/// the node's registry, the one store a write lands in, already holds
/// every `names::*` key. (Against a sink holding one key, a name-keyed
/// tree and a slot table read alike.)
fn bench_metrics(c: &mut Criterion) {
    let mut node = MetricsRegistry::new("server0");
    for key in names::ALL {
        node.incr_dynamic(key);
    }
    const HOT: [simnet::CounterDef; 4] = [
        names::WEBSERV_FIFO_ENQUEUED,
        names::WEBSERV_FIFO_COALESCED,
        names::SERVER_HTTP_REQUESTS,
        names::SUBSTRATE_CACHE_HITS,
    ];
    let mut g = c.benchmark_group("metrics");
    g.throughput(Throughput::Elements(HOT.len() as u64));
    g.bench_function("metrics_incr_populated", |b| {
        b.iter(|| {
            for counter in HOT {
                node.incr(black_box(counter));
            }
        })
    });
    g.finish();
}

const GROUP: usize = 256;

/// A server core alone on its node, playing its application and its
/// `GROUP` viewers to itself: every reply is a self-send, so no link,
/// portal or driver runs behind it.
struct FanoutHost {
    core: ServerCore,
    app: AppId,
}

impl Actor<Envelope> for FanoutHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let me = ctx.me();
        let viewer = UserId::new("viewer");
        let register = AppMsg::Register {
            token: AppToken("bench".into()),
            name: "hot".into(),
            kind: "synthetic".into(),
            acl: vec![(viewer.clone(), Privilege::ReadOnly)],
            interface: InteractionSpec::default(),
            slot: Some(self.app.seq),
        };
        self.core.handle_tcp(ctx, me, TcpFrame::new(Channel::Main, register), 0);
        for _ in 0..GROUP {
            let login =
                ClientRequest::Login { user: viewer.clone(), password: "secret-viewer".into() };
            self.core.handle_http(ctx, me, HttpRequest::post("/discover/login", None, login), 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
        match msg.content {
            // A login reply carries the new session's cookie: join the group.
            Content::HttpResponse(HttpResponse { set_session: Some(cookie), .. }) => {
                let select = ClientRequest::SelectApp { app: self.app };
                let req = HttpRequest::post("/discover/select", Some(cookie), select);
                self.core.handle_http(ctx, from, req, 0);
            }
            Content::Tcp(frame) => {
                black_box(self.core.handle_tcp(ctx, from, frame, 0));
            }
            _ => {}
        }
    }
}

/// `ServerCore::handle_tcp` taking one `AppMsg::Update` to `GROUP`
/// selected sessions nobody polls, coalescing on: after the first update
/// every push replaces the queued status in its slot, the steady state
/// of the wall-clock benchmark's `fanout_steady`.
fn bench_route_update(c: &mut Criterion) {
    let app = AppId { server: ServerAddr(1), seq: 0 };
    let mut config = ServerConfig::new(app.server, "server0");
    config.coalesce_fifo = true;
    let mut engine = Engine::new(1);
    let host = engine.add_node("server0", FanoutHost { core: ServerCore::new(config), app });
    engine.run_to_quiescence();
    let members = engine.actor_ref::<FanoutHost>(host).unwrap().core.collab().members(app).len();
    assert_eq!(members, GROUP, "every viewer selected the app");

    let mut iteration = 0;
    let mut g = c.benchmark_group("server_core");
    g.throughput(Throughput::Elements(GROUP as u64));
    g.bench_function("route_update_g256", |b| {
        b.iter(|| {
            iteration += 1;
            let status =
                wire::AppStatus { phase: wire::AppPhase::Computing, iteration, progress: 0.5 };
            let update = AppMsg::Update { app, status, readings: Vec::new() };
            let frame = Envelope::tcp(TcpFrame::new(Channel::Main, update));
            engine.inject(host, host, frame, SimDuration::ZERO);
            engine.run_to_quiescence()
        })
    });
    g.finish();
}

const DEPTH: u64 = 512;

/// Sends every message it receives back to itself, to arrive `DEPTH` µs
/// later (a self-send adds one).
struct Carousel;

impl Actor<Envelope> for Carousel {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, _from: NodeId, msg: Envelope) {
        let me = ctx.me();
        ctx.send_after(me, msg, SimDuration::from_micros(DEPTH - 1));
    }
}

/// One event through the global heap while `DEPTH` envelope-carrying
/// deliveries are pending, one due every microsecond: pop the head,
/// dispatch it, push its successor. (The wall-clock benchmark's
/// `simnet.engine.schedule_pop` kernel keeps a heap of one, where the
/// size of a heap element cannot show.)
fn bench_engine(c: &mut Criterion) {
    let mut engine = Engine::new(1);
    let node = engine.add_node("carousel", Carousel);
    for due in 0..DEPTH {
        let poll = HttpRequest::get(webserv::paths::POLL, Some(due));
        engine.inject(node, node, Envelope::http_request(poll), SimDuration::from_micros(due));
    }
    engine.run_for(SimDuration::from_micros(4 * DEPTH));
    const BATCH: u64 = 64;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(BATCH));
    g.bench_function("schedule_pop_depth512", |b| {
        b.iter(|| {
            let events = engine.run_for(SimDuration::from_micros(BATCH));
            assert_eq!(events, BATCH);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_codec, bench_http, bench_metrics, bench_route_update, bench_engine);
criterion_main!(benches);
