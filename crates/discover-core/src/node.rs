//! The peer-enabled DISCOVER server node: server core + middleware
//! substrate in one simulation actor.

use simnet::{names, Actor, Ctx, NodeId, SimDuration};
use wire::giop::GiopKind;
use wire::{Content, Envelope};

use discover_server::{ServerConfig, ServerCore};

use crate::substrate::Substrate;

const TAG_DISCOVERY: u64 = 1;
const TAG_POLL: u64 = 2;
const TAG_SWEEP: u64 = 3;

/// A full DISCOVER server participating in the peer-to-peer network.
pub struct DiscoverNode {
    /// The §4 server core.
    pub core: ServerCore,
    /// The §5 middleware substrate.
    pub substrate: Substrate,
}

impl DiscoverNode {
    /// Assemble a node from a configured core and substrate.
    pub fn new(server_config: ServerConfig, substrate: Substrate) -> Self {
        DiscoverNode { core: ServerCore::new(server_config), substrate }
    }

    /// Arm the periodic timers of a fresh incarnation. The first
    /// discovery runs quickly after (re)start; later refreshes use the
    /// configured interval.
    fn arm_timers(&self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.schedule(SimDuration::from_millis(20), TAG_DISCOVERY);
        ctx.schedule(self.substrate.config.sweep_interval, TAG_SWEEP);
        if let Some(interval) = self.substrate.poll_interval() {
            ctx.schedule(interval, TAG_POLL);
        }
    }
}

impl Actor<Envelope> for DiscoverNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.substrate.publish_self(ctx, &mut self.core);
        self.arm_timers(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
        // Cached content size, read before `content` is moved out; the
        // ingress handlers charge CPU from it instead of re-walking the
        // payload with `encoded_len`.
        let content_size = msg.content_size();
        // A client's request and a peer's call are served under a span of
        // their own (session handling / the callee's skeleton, parented
        // under the context the envelope carries) and under the
        // envelope's deadline. While the handler runs and its effects are
        // resolved the two are the core's ambient request scope: the core
        // checks the deadline at ingress and dispatch, and every ORB call
        // the substrate issues for the request is a child of the span —
        // which it may outlive — and refuses to start past the deadline.
        let scope = match &msg.content {
            Content::HttpRequest(_) => Some("server.http"),
            Content::Giop(frame) if matches!(frame.kind, GiopKind::Request { .. }) => {
                Some("server.giop")
            }
            _ => None,
        };
        let span = scope.and_then(|name| ctx.trace_child(msg.trace, name));
        self.core.incoming_trace = span;
        self.core.incoming_deadline = scope.and(msg.deadline);
        let effects = match msg.content {
            Content::HttpRequest(req) => {
                // Status snapshots include peer health/breaker lines the
                // substrate owns; sync them only when asked for (pure
                // memory copy — no RNG, no wire, no schedule effect).
                if matches!(req.body, Some(wire::ClientRequest::Status)) {
                    (self.core.peer_status, self.core.dir_plane) =
                        self.substrate.status_snapshot(ctx.metrics());
                }
                self.core.handle_http(ctx, from, req, content_size)
            }
            Content::Tcp(frame) => self.core.handle_tcp(ctx, from, frame, content_size),
            Content::Giop(frame) => match frame.kind {
                GiopKind::Reply | GiopKind::SystemException => {
                    self.substrate.handle_reply(ctx, &mut self.core, frame);
                    Vec::new()
                }
                GiopKind::Request { .. } => self.core.handle_giop(ctx, from, frame),
            },
            Content::HttpResponse(_) => {
                ctx.metrics().incr(names::NODE_UNEXPECTED_HTTP_RESPONSE);
                Vec::new()
            }
        };
        self.substrate.perform_all(ctx, &mut self.core, effects);
        self.core.incoming_trace = None;
        self.core.incoming_deadline = None;
        ctx.trace_finish(span);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.metrics().incr(names::NODE_RESTARTS);
        // The crashed incarnation's outstanding calls and subscriptions
        // are gone; re-register like the paper's daemon would on reboot.
        // When restart-from-archive is configured, the core first wipes
        // its volatile session plane and rebuilds proxy state (status,
        // readings, lock holder) from the archive's folded snapshots.
        self.core.recover_from_archive(ctx);
        self.substrate.on_restart();
        self.substrate.publish_self(ctx, &mut self.core);
        self.arm_timers(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
        match tag {
            TAG_DISCOVERY => {
                self.substrate.discover_peers(ctx, &mut self.core);
                ctx.schedule(self.substrate.config.discovery_interval, TAG_DISCOVERY);
            }
            TAG_POLL => {
                self.substrate.poll_tick(ctx, &mut self.core);
                if let Some(interval) = self.substrate.poll_interval() {
                    ctx.schedule(interval, TAG_POLL);
                }
            }
            TAG_SWEEP => {
                self.substrate.sweep_timeouts(ctx, &mut self.core);
                let effects = self.core.reap_idle_sessions(ctx);
                self.substrate.perform_all(ctx, &mut self.core, effects);
                ctx.schedule(self.substrate.config.sweep_interval, TAG_SWEEP);
            }
            _ => {}
        }
    }
}
