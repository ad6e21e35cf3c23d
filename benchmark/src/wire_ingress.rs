//! `wire_ingress`: real bytes through a `StandaloneServer`.
//!
//! Simulated links carry typed `Envelope`s, so this is the only workload
//! in which the DBP codec and the HTTP head code run once per request.
//! The driver plays both ends of every exchange: it renders a request to
//! bytes, parses and decodes those bytes as a server ingress would, hands
//! the typed envelope to a one-server engine (`Engine::inject` +
//! `run_to_quiescence`, i.e. `ServerCore::handle_http`/`handle_tcp`),
//! renders the captured response to bytes and parses it back as the
//! client would. Applications and clients are benchmark-owned sinks that
//! only capture what the server sends them.

use std::time::Instant;

use appsim::synthetic_app;
use bytes::Bytes;
use discover_server::{ServerConfig, StandaloneServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Actor, Ctx, Engine, LinkSpec, NodeId, SimDuration};
use wire::http::{HttpMethod, HttpRequest, HttpResponse};
use wire::tcp::{TcpFrame, FRAME_HEADER_BYTES};
use wire::{
    codec, AppId, AppMsg, AppOp, AppPhase, AppStatus, AppToken, Channel, ClientMessage,
    ClientRequest, Content, Envelope, Privilege, ResponseBody, ServerAddr, UserId, Value,
};

use crate::alloc::AllocSnapshot;
use crate::calibration::Pacer;
use crate::rep::Rep;
use crate::spans::{self, Kind, Layer, Spanned};

const APPS: usize = 4;
const CLIENTS: usize = 64;
/// Requests in one repetition's measured window.
pub const REQUESTS_PER_REP: usize = 12_000;
/// Requests between two calibration bursts.
const REQUESTS_PER_SLICE: usize = 1_000;
/// Requests replayed through both paths by the differential check.
pub const REQUESTS_PER_CHECK: usize = 3_000;
const FRAME_MAGIC: [u8; 2] = *b"DP";

/// Captures everything the server sends to one application or client.
#[derive(Default)]
struct Sink {
    inbox: Vec<Envelope>,
}

impl Actor<Envelope> for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Envelope>, _from: NodeId, msg: Envelope) {
        self.inbox.push(msg);
    }
}

/// One scripted exchange.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// An HTTP request from client `client`.
    Http {
        /// Index of the sending client.
        client: usize,
        /// The request (its session cookie is filled in at send time).
        req: HttpRequest,
    },
    /// A custom-TCP frame from application `app`.
    Frame {
        /// Index of the sending application.
        app: usize,
        /// The frame.
        frame: TcpFrame,
    },
}

/// What came back for one [`Item`].
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The HTTP response.
    Http(HttpResponse),
    /// The frames the server sent to the application (none for updates).
    Frames(Vec<TcpFrame>),
}

/// A one-server engine with sink applications and clients.
pub struct Rig<const TRACED: bool> {
    engine: Engine<Envelope>,
    server: NodeId,
    apps: Vec<NodeId>,
    clients: Vec<NodeId>,
    /// Session cookie per client, once logged in.
    cookies: Vec<Option<u64>>,
    /// Archive cursor per client, advanced by `CatchUp` replies.
    cursors: Vec<u64>,
}

fn app_id(index: usize) -> AppId {
    AppId {
        server: ServerAddr(1),
        seq: index as u32,
    }
}

fn user(index: usize) -> String {
    format!("user{index}")
}

impl<const TRACED: bool> Rig<TRACED> {
    /// Build the engine; nothing is registered or logged in yet.
    pub fn new(seed: u64) -> Self {
        let mut engine = Engine::new(seed);
        let config = ServerConfig {
            snapshot_every: Some(128),
            ..ServerConfig::new(ServerAddr(1), "wire")
        };
        let server = engine.add_node(
            "server",
            Spanned::<_, TRACED>::new(Kind::Standalone, StandaloneServer::new(config)),
        );
        let sink = |engine: &mut Engine<Envelope>, name: String| {
            let node =
                engine.add_node(name, Spanned::<_, TRACED>::new(Kind::Sink, Sink::default()));
            engine.link(node, server, LinkSpec::lan());
            node
        };
        let apps = (0..APPS)
            .map(|i| sink(&mut engine, format!("app{i}")))
            .collect();
        let clients = (0..CLIENTS)
            .map(|i| sink(&mut engine, format!("client{i}")))
            .collect();
        Rig {
            engine,
            server,
            apps,
            clients,
            cookies: vec![None; CLIENTS],
            cursors: vec![0; CLIENTS],
        }
    }

    fn drain(&mut self, node: NodeId) -> Vec<Envelope> {
        let sink = self
            .engine
            .actor_mut::<Spanned<Sink, TRACED>>(node)
            .expect("a sink node");
        std::mem::take(&mut sink.inner.inbox)
    }

    /// Fill in what only the running exchange knows: the session cookie
    /// and the archive cursor.
    fn stamp(&self, item: &mut Item) {
        if let Item::Http { client, req } = item {
            if !matches!(req.body, Some(ClientRequest::Login { .. })) {
                req.session = self.cookies[*client];
            }
            if let Some(ClientRequest::CatchUp { since, .. }) = &mut req.body {
                *since = self.cursors[*client];
            }
        }
    }

    /// Learn from a reply what later requests need.
    fn absorb(&mut self, item: &Item, reply: &Reply) {
        let (Item::Http { client, .. }, Reply::Http(resp)) = (item, reply) else {
            return;
        };
        if let Some(cookie) = resp.set_session {
            self.cookies[*client] = Some(cookie);
        }
        for msg in &resp.body {
            if let ClientMessage::Response(ResponseBody::CatchUp { next_seq, .. }) = msg {
                self.cursors[*client] = *next_seq;
            }
        }
    }

    /// Hand a typed envelope to the server and collect what the sender
    /// got back.
    fn dispatch(&mut self, from: NodeId, envelope: Envelope) -> Vec<Envelope> {
        spans::scope_if::<TRACED, _>(Layer::Engine, || {
            self.engine
                .inject(from, self.server, envelope, SimDuration::ZERO);
            self.engine.run_to_quiescence();
        });
        self.drain(from)
    }

    /// One exchange as typed envelopes (the reference path).
    pub fn exchange_typed(&mut self, mut item: Item) -> Result<Reply, String> {
        self.stamp(&mut item);
        let reply = match &item {
            Item::Http { client, req } => {
                let out = self.dispatch(self.clients[*client], Envelope::http_request(req.clone()));
                Reply::Http(single_response(out)?)
            }
            Item::Frame { app, frame } => {
                let out = self.dispatch(self.apps[*app], Envelope::tcp(frame.clone()));
                Reply::Frames(frames_of(out)?)
            }
        };
        self.absorb(&item, &reply);
        Ok(reply)
    }

    /// One exchange as bytes in, bytes out.
    pub fn exchange_bytes(&mut self, mut item: Item) -> Result<Reply, String> {
        self.stamp(&mut item);
        let reply = match &item {
            Item::Http { client, req } => {
                let wire = render_request::<TRACED>(req);
                let parsed = parse_request::<TRACED>(&wire)?;
                let out = self.dispatch(self.clients[*client], Envelope::http_request(parsed));
                let wire = render_response::<TRACED>(&single_response(out)?);
                Reply::Http(parse_response::<TRACED>(&wire)?)
            }
            Item::Frame { app, frame } => {
                let wire = render_frame::<TRACED>(frame);
                let parsed = parse_frame::<TRACED>(&wire)?;
                let out = self.dispatch(self.apps[*app], Envelope::tcp(parsed));
                let mut back = Vec::new();
                for frame in frames_of(out)? {
                    back.push(parse_frame::<TRACED>(&render_frame::<TRACED>(&frame))?);
                }
                Reply::Frames(back)
            }
        };
        self.absorb(&item, &reply);
        Ok(reply)
    }

    /// Register the applications, announce their first status, log every
    /// client in and select its application.
    pub fn warm_up(
        &mut self,
        mut exchange: impl FnMut(&mut Self, Item) -> Result<Reply, String>,
    ) -> Result<(), String> {
        let acl: Vec<(UserId, Privilege)> = (0..CLIENTS)
            .map(|c| (UserId::new(user(c)), Privilege::ReadWrite))
            .collect();
        let model = synthetic_app(2, u64::MAX);
        for app in 0..APPS {
            let register = AppMsg::Register {
                token: AppToken::new(format!("wire{app}")),
                name: format!("wire{app}"),
                kind: model.kind().to_string(),
                acl: acl.clone(),
                interface: model.interface(),
                slot: Some(app as u32),
            };
            let reply = exchange(
                self,
                Item::Frame {
                    app,
                    frame: TcpFrame::new(Channel::Main, register),
                },
            )?;
            let acked = matches!(&reply, Reply::Frames(f)
                if matches!(f.as_slice(), [TcpFrame { msg: AppMsg::RegisterAck { app: id }, .. }] if *id == app_id(app)));
            if !acked {
                return Err(format!(
                    "app {app} registration not acknowledged: {reply:?}"
                ));
            }
            exchange(self, status_update(app, 0))?;
        }
        for client in 0..CLIENTS {
            let login = ClientRequest::Login {
                user: UserId::new(user(client)),
                password: format!("secret-{}", user(client)),
            };
            let req = HttpRequest::post(webserv::paths::MASTER, None, login);
            expect_ok(&exchange(self, Item::Http { client, req })?, "login")?;
            if self.cookies[client].is_none() {
                return Err(format!("client {client} got no session cookie"));
            }
            let select = ClientRequest::SelectApp {
                app: app_id(client % APPS),
            };
            let req = HttpRequest::post(webserv::paths::COMMAND, None, select);
            expect_ok(&exchange(self, Item::Http { client, req })?, "select")?;
        }
        Ok(())
    }
}

fn status_update(app: usize, iteration: u64) -> Item {
    let msg = AppMsg::Update {
        app: app_id(app),
        status: AppStatus {
            phase: AppPhase::Computing,
            iteration,
            progress: (iteration % 1000) as f64 / 1000.0,
        },
        readings: vec![
            (
                "accumulated".to_string(),
                Value::Float(iteration as f64 * 0.125),
            ),
            ("iteration".to_string(), Value::Int(iteration as i64)),
        ],
    };
    Item::Frame {
        app,
        frame: TcpFrame::new(Channel::Main, msg),
    }
}

/// The seeded request mix of the measured window: 50 % polls, 20 %
/// cache-served `GetStatus`, 10 % application status updates (writes that
/// fan into group FIFOs), 10 % chat, 5 % snapshot-aware catch-up, 5 %
/// server status page.
pub fn script(seed: u64, len: usize) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut iteration = [0u64; APPS];
    (0..len)
        .map(|n| {
            let client = rng.gen_range(0..CLIENTS);
            let app = app_id(client % APPS);
            let post = |body| Item::Http {
                client,
                req: HttpRequest::post(webserv::paths::COMMAND, None, body),
            };
            match rng.gen_range(0..100u32) {
                0..50 => Item::Http {
                    client,
                    req: HttpRequest::get(webserv::paths::POLL, None),
                },
                50..70 => post(ClientRequest::Op {
                    app,
                    op: AppOp::GetStatus,
                }),
                70..80 => {
                    let a = rng.gen_range(0..APPS);
                    iteration[a] += 1;
                    status_update(a, iteration[a])
                }
                80..90 => post(ClientRequest::Chat {
                    app,
                    text: format!("msg-{n}"),
                }),
                90..95 => post(ClientRequest::CatchUp { app, since: 0 }),
                _ => post(ClientRequest::Status),
            }
        })
        .collect()
}

fn single_response(mut out: Vec<Envelope>) -> Result<HttpResponse, String> {
    match (out.pop(), out.is_empty()) {
        (
            Some(Envelope {
                content: Content::HttpResponse(resp),
                ..
            }),
            true,
        ) => Ok(resp),
        (last, _) => Err(format!(
            "expected exactly one HTTP response, got {last:?} after {} more",
            out.len()
        )),
    }
}

fn frames_of(out: Vec<Envelope>) -> Result<Vec<TcpFrame>, String> {
    out.into_iter()
        .map(|e| match e.content {
            Content::Tcp(frame) => Ok(frame),
            other => Err(format!("expected a TCP frame, got {other:?}")),
        })
        .collect()
}

fn expect_ok(reply: &Reply, what: &str) -> Result<(), String> {
    match reply {
        Reply::Http(resp) if resp.status == 200 && !has_error(resp) => Ok(()),
        other => Err(format!("{what} failed: {other:?}")),
    }
}

fn has_error(resp: &HttpResponse) -> bool {
    resp.body
        .iter()
        .any(|m| matches!(m, ClientMessage::Error(_)))
}

/// `ClientMessage`s in a response, poll batches unpacked.
fn message_count(resp: &HttpResponse) -> u64 {
    resp.body
        .iter()
        .map(|m| match m {
            ClientMessage::Response(ResponseBody::Batch(inner)) => inner.len() as u64,
            _ => 1,
        })
        .sum()
}

fn join(head: &str, body: &[u8]) -> Bytes {
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body);
    Bytes::from(wire)
}

/// The head text of rendered HTTP bytes.
fn head_of(wire: &Bytes) -> Result<&str, String> {
    let end = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no end of HTTP head")?
        + 4;
    std::str::from_utf8(&wire[..end]).map_err(|e| format!("head is not UTF-8: {e}"))
}

/// The body behind `head`, which must be `len` bytes long.
fn body_of(wire: &Bytes, head: &str, len: usize) -> Result<Bytes, String> {
    let body = wire.slice_from(head.len());
    if body.len() != len {
        return Err(format!(
            "Content-Length {len} but {} body bytes",
            body.len()
        ));
    }
    Ok(body)
}

fn render_request<const TRACED: bool>(req: &HttpRequest) -> Bytes {
    let body = req
        .body
        .as_ref()
        .map(|b| spans::scope_if::<TRACED, _>(Layer::Encode, || codec::encode(b)));
    let body_len = body.as_ref().map_or(0, Bytes::len);
    let head = spans::scope_if::<TRACED, _>(Layer::RenderHead, || req.render_head(body_len));
    join(&head, body.as_deref().unwrap_or_default())
}

fn parse_request<const TRACED: bool>(wire: &Bytes) -> Result<HttpRequest, String> {
    let head = head_of(wire)?;
    let (method, path, session, len) =
        spans::scope_if::<TRACED, _>(Layer::ParseHead, || HttpRequest::parse_head(head))?;
    let body = body_of(wire, head, len)?;
    let body = match (method, len) {
        (HttpMethod::Get, 0) => None,
        _ => Some(
            spans::scope_if::<TRACED, _>(Layer::DecodeBorrowed, || codec::decode_borrowed(&body))
                .map_err(|e| format!("request body: {e}"))?,
        ),
    };
    Ok(HttpRequest {
        method,
        path,
        session,
        body,
    })
}

fn render_response<const TRACED: bool>(resp: &HttpResponse) -> Bytes {
    let body = spans::scope_if::<TRACED, _>(Layer::Encode, || codec::encode(&resp.body));
    let head = spans::scope_if::<TRACED, _>(Layer::RenderHead, || resp.render_head(body.len()));
    join(&head, &body)
}

fn parse_response<const TRACED: bool>(wire: &Bytes) -> Result<HttpResponse, String> {
    let head = head_of(wire)?;
    let (status, set_session, len) =
        spans::scope_if::<TRACED, _>(Layer::ParseHead, || HttpResponse::parse_head(head))?;
    let body = body_of(wire, head, len)?;
    let body =
        spans::scope_if::<TRACED, _>(Layer::DecodeBorrowed, || codec::decode_borrowed(&body))
            .map_err(|e| format!("response body: {e}"))?;
    Ok(HttpResponse {
        status,
        set_session,
        body,
    })
}

fn channel_tag(channel: Channel) -> u8 {
    match channel {
        Channel::Main => 0,
        Channel::Command => 1,
        Channel::Response => 2,
        Channel::Control => 3,
    }
}

/// The custom protocol's frame: 2-byte magic, channel, flags, 4-byte
/// little-endian length, DBP-encoded message.
fn render_frame<const TRACED: bool>(frame: &TcpFrame) -> Bytes {
    let body = spans::scope_if::<TRACED, _>(Layer::Encode, || codec::encode(&frame.msg));
    let mut wire = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    wire.extend_from_slice(&FRAME_MAGIC);
    wire.push(channel_tag(frame.channel));
    wire.push(0);
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
    Bytes::from(wire)
}

fn parse_frame<const TRACED: bool>(wire: &Bytes) -> Result<TcpFrame, String> {
    if wire.len() < FRAME_HEADER_BYTES || wire[..2] != FRAME_MAGIC {
        return Err("bad frame header".to_string());
    }
    let channel = match wire[2] {
        0 => Channel::Main,
        1 => Channel::Command,
        2 => Channel::Response,
        3 => Channel::Control,
        other => return Err(format!("bad channel tag {other}")),
    };
    let len = u32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]) as usize;
    if wire.len() != FRAME_HEADER_BYTES + len {
        return Err(format!(
            "frame length {len} but {} body bytes",
            wire.len() - FRAME_HEADER_BYTES
        ));
    }
    let msg = spans::scope_if::<TRACED, _>(Layer::DecodeBorrowed, || {
        codec::decode_borrowed(&wire.slice_from(FRAME_HEADER_BYTES))
    })
    .map_err(|e| format!("frame body: {e}"))?;
    Ok(TcpFrame::new(channel, msg))
}

/// Run one repetition from `seed`.
pub fn run_rep<const TRACED: bool>(seed: u64) -> Result<Rep, String> {
    let mut pacer = Pacer::start();
    let (prepared, setup) = pacer.time(|| -> Result<_, String> {
        let mut rig = Rig::<TRACED>::new(seed);
        rig.warm_up(Rig::exchange_bytes)?;
        let mut items = script(seed, REQUESTS_PER_REP);
        let mut slices = Vec::new();
        while !items.is_empty() {
            let rest = items.split_off(REQUESTS_PER_SLICE.min(items.len()));
            slices.push(std::mem::replace(&mut items, rest));
        }
        Ok((rig, slices, Vec::with_capacity(REQUESTS_PER_REP)))
    });
    let (mut rig, slices, latencies_ns) = prepared?;
    let mut rep = Rep {
        setup,
        latencies_ns,
        ..Rep::default()
    };

    let events0 = rig.engine.events_processed();
    if TRACED {
        spans::set_active(true);
    }
    for slice in slices {
        // One root span per slice, so the layers' self times add up to
        // the window; `bench.driver` is what the loop itself costs.
        let (outcome, timed) = pacer.time(|| {
            let before = AllocSnapshot::now();
            let outcome =
                spans::scope_if::<TRACED, _>(Layer::Driver, || rig.run_slice(slice, &mut rep));
            rep.alloc += AllocSnapshot::now().since(before);
            outcome
        });
        outcome?;
        rep.window += timed;
    }
    if TRACED {
        spans::set_active(false);
    }
    rep.events = rig.engine.events_processed() - events0;
    Ok(rep)
}

impl<const TRACED: bool> Rig<TRACED> {
    fn run_slice(&mut self, items: Vec<Item>, rep: &mut Rep) -> Result<(), String> {
        for item in items {
            let start = Instant::now();
            let reply = self.exchange_bytes(item)?;
            rep.latencies_ns
                .push(start.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            rep.issued += 1;
            match &reply {
                Reply::Http(resp) => {
                    rep.deliveries += message_count(resp);
                    if resp.status == 200 && !has_error(resp) {
                        rep.completed += 1;
                    } else {
                        rep.failed += 1;
                    }
                }
                Reply::Frames(_) => rep.completed += 1,
            }
        }
        Ok(())
    }
}

/// Differential check: the same seeded script through the bytes path
/// and, as typed envelopes, through a second server must yield equal
/// replies; and every message sent must survive `decode_borrowed(encode(x))`.
pub fn differential_check(seed: u64) -> Result<(), String> {
    let mut bytes_rig = Rig::<false>::new(seed);
    let mut typed_rig = Rig::<false>::new(seed);
    bytes_rig.warm_up(Rig::exchange_bytes)?;
    typed_rig.warm_up(Rig::exchange_typed)?;
    for (n, item) in script(seed, REQUESTS_PER_CHECK).into_iter().enumerate() {
        round_trip(&item).map_err(|e| format!("request {n}: {e}"))?;
        let via_bytes = bytes_rig.exchange_bytes(item.clone())?;
        let via_typed = typed_rig.exchange_typed(item.clone())?;
        if via_bytes != via_typed {
            return Err(format!(
                "request {n} ({item:?}): bytes path answered {via_bytes:?}, typed path {via_typed:?}"
            ));
        }
    }
    Ok(())
}

fn round_trip(item: &Item) -> Result<(), String> {
    let same = match item {
        Item::Http { req, .. } => match &req.body {
            Some(body) => {
                codec::decode_borrowed::<ClientRequest>(&codec::encode(body))
                    .ok()
                    .as_ref()
                    == Some(body)
            }
            None => true,
        },
        Item::Frame { frame, .. } => {
            codec::decode_borrowed::<AppMsg>(&codec::encode(&frame.msg))
                .ok()
                .as_ref()
                == Some(&frame.msg)
        }
    };
    if same {
        Ok(())
    } else {
        Err(format!("decode_borrowed(encode(x)) != x for {item:?}"))
    }
}
