//! The peer-enabled DISCOVER server node: server core + middleware
//! substrate in one simulation actor.

use simnet::{names, Actor, Ctx, NodeId, SimDuration};
use wire::giop::GiopKind;
use wire::{Content, Envelope};

use discover_server::{ServerConfig, ServerCore};

use crate::substrate::{Substrate, SubstrateConfig};

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

    /// Substrate configuration shortcut.
    pub fn substrate_config(&self) -> &SubstrateConfig {
        &self.substrate.config
    }
}

impl Actor<Envelope> for DiscoverNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.substrate.publish_self(ctx);
        // First discovery runs quickly after start; later refreshes use
        // the configured interval.
        ctx.schedule(SimDuration::from_millis(20), TAG_DISCOVERY);
        ctx.schedule(self.substrate.config.sweep_interval, TAG_SWEEP);
        if let Some(interval) = self.substrate.poll_interval() {
            ctx.schedule(interval, TAG_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
        let trace = msg.trace;
        let deadline = msg.deadline;
        // Cached content size, read before `content` is moved out; the
        // ingress handlers charge CPU from it instead of re-walking the
        // payload with `encoded_len`.
        let content_size = msg.content_size();
        match msg.content {
            Content::HttpRequest(req) => {
                // Status snapshots include peer health/breaker lines the
                // substrate owns; sync them only when asked for (pure
                // memory copy — no RNG, no wire, no schedule effect).
                if matches!(req.body, Some(wire::ClientRequest::Status)) {
                    self.core.peer_status = self.substrate.peer_status_snapshot();
                    self.core.dir_plane = self.substrate.dir_plane_snapshot();
                }
                // Session-handling span: covers servlet CPU plus effect
                // resolution; downstream broker/app spans are its
                // children and may outlive it.
                let span = ctx.trace_child(trace, "server.http");
                self.core.incoming_trace = span;
                self.core.incoming_deadline = deadline;
                self.substrate.request_trace = span;
                self.substrate.request_deadline = deadline;
                let effects = self.core.handle_http(ctx, from, req, content_size);
                self.substrate.perform_all(ctx, &mut self.core, effects);
                self.core.incoming_trace = None;
                self.core.incoming_deadline = None;
                self.substrate.request_trace = None;
                self.substrate.request_deadline = None;
                ctx.trace_finish(span);
            }
            Content::Tcp(frame) => {
                let effects = self.core.handle_tcp(ctx, from, frame, content_size);
                self.substrate.perform_all(ctx, &mut self.core, effects);
            }
            Content::Giop(frame) => match frame.kind {
                GiopKind::Reply | GiopKind::SystemException => {
                    self.substrate.handle_reply(ctx, &mut self.core, frame);
                }
                GiopKind::Request { .. } => {
                    // Skeleton span on the callee: parented under the
                    // caller's orb.call context carried by the envelope.
                    let span = ctx.trace_child(trace, "server.giop");
                    self.core.incoming_trace = span;
                    self.core.incoming_deadline = deadline;
                    self.substrate.request_trace = span;
                    self.substrate.request_deadline = deadline;
                    let effects = self.core.handle_giop(ctx, from, frame);
                    self.substrate.perform_all(ctx, &mut self.core, effects);
                    self.core.incoming_trace = None;
                    self.core.incoming_deadline = None;
                    self.substrate.request_trace = None;
                    self.substrate.request_deadline = None;
                    ctx.trace_finish(span);
                }
            },
            Content::HttpResponse(_) => {
                ctx.metrics().incr(names::NODE_UNEXPECTED_HTTP_RESPONSE);
            }
        }
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
        self.substrate.publish_self(ctx);
        let local = self.core.local_app_ids();
        self.substrate.rebind_local_apps(ctx, local);
        ctx.schedule(SimDuration::from_millis(20), TAG_DISCOVERY);
        ctx.schedule(self.substrate.config.sweep_interval, TAG_SWEEP);
        if let Some(interval) = self.substrate.poll_interval() {
            ctx.schedule(interval, TAG_POLL);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Envelope>, tag: u64) {
        match tag {
            TAG_DISCOVERY => {
                self.substrate.discover_peers(ctx);
                ctx.schedule(self.substrate.config.discovery_interval, TAG_DISCOVERY);
            }
            TAG_POLL => {
                self.substrate.poll_tick(ctx);
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
