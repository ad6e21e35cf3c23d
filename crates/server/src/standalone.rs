//! A standalone DISCOVER server actor: the paper's §4 system before the
//! peer-to-peer substrate exists. All local functionality works; effects
//! that would require peers are counted and dropped.

use simnet::{names, Actor, Ctx, NodeId};
use wire::{Content, Envelope};

use crate::core::{Effect, ServerConfig, ServerCore};

/// Single-server actor (no peer network).
pub struct StandaloneServer {
    /// The server core (public for test inspection).
    pub core: ServerCore,
}

impl StandaloneServer {
    /// Create a standalone server.
    pub fn new(config: ServerConfig) -> Self {
        StandaloneServer { core: ServerCore::new(config) }
    }
}

impl Actor<Envelope> for StandaloneServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
        let content_size = msg.content_size();
        let mut effects = match msg.content {
            Content::HttpRequest(req) => self.core.handle_http(ctx, from, req, content_size),
            Content::Tcp(frame) => self.core.handle_tcp(ctx, from, frame, content_size),
            Content::Giop(frame) => self.core.handle_giop(ctx, from, frame),
            Content::HttpResponse(_) => Vec::new(), // not a client
        };
        for effect in effects.drain(..) {
            match effect {
                // Without a peer network these are inert; count them so
                // tests can assert they were produced.
                Effect::RemoteAuth { .. } => {
                    ctx.metrics().incr(names::STANDALONE_DROPPED_REMOTE_AUTH)
                }
                Effect::Announce { .. } => ctx.metrics().incr(names::STANDALONE_DROPPED_ANNOUNCE),
                _ => ctx.metrics().incr(names::STANDALONE_DROPPED_OTHER),
            }
        }
        self.core.recycle_effects(effects);
    }
}
