//! The directory node: a CORBA Naming service with a minimalist Trader
//! built on top of it.
//!
//! The paper: "In our prototype we have implemented a minimalist trader
//! service on top of the CORBA naming service. All DISCOVER servers are
//! identified by the service-id 'DISCOVER'." We reproduce that layering
//! literally: trader offers are stored *as naming bindings* under the
//! reserved `__trader/<service-type>/...` namespace, with a side table for
//! the offer property lists; a trader query is a prefix listing plus a
//! property filter.

use std::collections::BTreeMap;

use simnet::{Actor, Ctx, NodeId, SimDuration};
use wire::giop::GiopFrame;
use wire::{
    Content, Envelope, ErrorCode, ObjectKey, ObjectRef, PeerMsg, PeerReply, ServiceOffer, Value,
    WireError,
};

/// Object key of the naming servant.
pub const NAMING_KEY: &str = "NamingService";
/// Object key of the trader servant.
pub const TRADER_KEY: &str = "TraderService";
/// Service type under which all DISCOVER servers export offers.
pub const DISCOVER_SERVICE: &str = "DISCOVER";

/// CPU cost model for directory operations.
#[derive(Clone, Copy, Debug)]
pub struct DirectoryCosts {
    /// Cost of a bind/rebind/unbind.
    pub bind: SimDuration,
    /// Cost of a resolve.
    pub resolve: SimDuration,
    /// Base cost of a query/list.
    pub query_base: SimDuration,
    /// Additional cost per candidate offer examined.
    pub query_per_offer: SimDuration,
}

impl Default for DirectoryCosts {
    fn default() -> Self {
        DirectoryCosts {
            bind: SimDuration::from_micros(60),
            resolve: SimDuration::from_micros(40),
            query_base: SimDuration::from_micros(90),
            query_per_offer: SimDuration::from_micros(4),
        }
    }
}

/// The naming + trader directory actor.
pub struct Directory {
    costs: DirectoryCosts,
    /// All bindings, including the trader's `__trader/...` namespace.
    bindings: BTreeMap<String, ObjectRef>,
    /// Offer properties, keyed by the trader binding name.
    offer_props: BTreeMap<String, Vec<(String, Value)>>,
    /// Per-service-type export counter for unique binding names.
    export_seq: u64,
}

impl Directory {
    /// Create a directory with the given cost model.
    pub fn new(costs: DirectoryCosts) -> Self {
        Directory { costs, bindings: BTreeMap::new(), offer_props: BTreeMap::new(), export_seq: 0 }
    }

    /// Number of live bindings (including trader entries).
    pub fn binding_count(&self) -> usize {
        self.bindings.len()
    }

    fn trader_prefix(service_type: &str) -> String {
        format!("__trader/{service_type}/")
    }

    fn handle(&mut self, ctx: &mut Ctx<'_, Envelope>, msg: PeerMsg) -> PeerReply {
        match msg {
            PeerMsg::NamingBind { name, object } => {
                ctx.consume(self.costs.bind);
                self.bindings.insert(name, object);
                PeerReply::DirectoryOk
            }
            PeerMsg::NamingResolve { name } => {
                ctx.consume(self.costs.resolve);
                PeerReply::NamingResolved { object: self.bindings.get(&name).cloned() }
            }
            PeerMsg::NamingUnbind { name } => {
                ctx.consume(self.costs.bind);
                self.bindings.remove(&name);
                self.offer_props.remove(&name);
                PeerReply::DirectoryOk
            }
            PeerMsg::NamingList { prefix } => {
                ctx.consume(self.costs.query_base);
                let bindings: Vec<(String, ObjectRef)> = self
                    .bindings
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                ctx.consume(self.costs.query_per_offer * bindings.len() as u64);
                PeerReply::NamingNames { bindings }
            }
            PeerMsg::TraderExport { offer } => {
                ctx.consume(self.costs.bind);
                let name =
                    format!("{}{}", Self::trader_prefix(&offer.service_type), self.export_seq);
                self.export_seq += 1;
                self.bindings.insert(name.clone(), offer.object);
                self.offer_props.insert(name, offer.properties);
                PeerReply::DirectoryOk
            }
            PeerMsg::TraderWithdraw { object } => {
                ctx.consume(self.costs.bind);
                let doomed: Vec<String> = self
                    .bindings
                    .range("__trader/".to_string()..)
                    .take_while(|(k, _)| k.starts_with("__trader/"))
                    .filter(|(_, v)| **v == object)
                    .map(|(k, _)| k.clone())
                    .collect();
                for name in doomed {
                    self.bindings.remove(&name);
                    self.offer_props.remove(&name);
                }
                PeerReply::DirectoryOk
            }
            PeerMsg::TraderQuery { service_type, constraints } => {
                let prefix = Self::trader_prefix(&service_type);
                ctx.consume(self.costs.query_base);
                let mut offers = Vec::new();
                let mut examined = 0u64;
                for (name, object) in self
                    .bindings
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                {
                    examined += 1;
                    let props = self.offer_props.get(name).cloned().unwrap_or_default();
                    let matches = constraints
                        .iter()
                        .all(|(ck, cv)| props.iter().any(|(pk, pv)| pk == ck && pv == cv));
                    if matches {
                        offers.push(ServiceOffer {
                            service_type: service_type.clone(),
                            object: object.clone(),
                            properties: props,
                        });
                    }
                }
                ctx.consume(self.costs.query_per_offer * examined);
                PeerReply::TraderOffers { offers }
            }
            other => PeerReply::Exception(WireError::new(
                ErrorCode::BadRequest,
                format!("directory cannot serve {other:?}"),
            )),
        }
    }
}

impl Actor<Envelope> for Directory {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Envelope>, from: NodeId, msg: Envelope) {
        let Content::Giop(frame) = msg.content else {
            return; // non-ORB traffic is not for us
        };
        let GiopFrame { request_id, target, operation, body, kind } = frame;
        let wire::giop::GiopBody::Call(call) = body else {
            return; // stray reply
        };
        if target.0 != NAMING_KEY && target.0 != TRADER_KEY {
            if matches!(kind, wire::giop::GiopKind::Request { response_expected: true }) {
                ctx.send(
                    from,
                    Envelope::giop(GiopFrame::reply(
                        request_id,
                        target.clone(),
                        operation,
                        PeerReply::Exception(WireError::new(
                            ErrorCode::BadRequest,
                            format!("no servant {target:?} at directory"),
                        )),
                    )),
                );
            }
            return;
        }
        ctx.metrics().incr_dynamic(&format!("directory.{operation}"));
        let reply = self.handle(ctx, call);
        if matches!(kind, wire::giop::GiopKind::Request { response_expected: true }) {
            ctx.send(from, Envelope::giop(GiopFrame::reply(request_id, target, operation, reply)));
        }
    }
}

/// One two-way call as [`crate::Broker::call`] takes it: the servant's
/// key, the IDL operation name, and the request.
pub type Call = (ObjectKey, &'static str, PeerMsg);

/// Convenience constructors for directory calls (used with
/// [`crate::Broker`]).
pub mod calls {
    use super::*;

    const NAMING: ObjectKey = ObjectKey::from_static(NAMING_KEY);
    const TRADER: ObjectKey = ObjectKey::from_static(TRADER_KEY);

    /// Bind `name` → `object` at the naming service.
    pub fn bind(name: impl Into<String>, object: ObjectRef) -> Call {
        (NAMING, "bind", PeerMsg::NamingBind { name: name.into(), object })
    }

    /// Resolve `name` at the naming service.
    pub fn resolve(name: impl Into<String>) -> Call {
        (NAMING, "resolve", PeerMsg::NamingResolve { name: name.into() })
    }

    /// Unbind `name` at the naming service.
    pub fn unbind(name: impl Into<String>) -> Call {
        (NAMING, "unbind", PeerMsg::NamingUnbind { name: name.into() })
    }

    /// List bindings under `prefix`.
    pub fn list(prefix: impl Into<String>) -> Call {
        (NAMING, "list", PeerMsg::NamingList { prefix: prefix.into() })
    }

    /// Export a trader offer.
    pub fn export(offer: ServiceOffer) -> Call {
        (TRADER, "export", PeerMsg::TraderExport { offer })
    }

    /// Withdraw all offers of `object`.
    pub fn withdraw(object: ObjectRef) -> Call {
        (TRADER, "withdraw", PeerMsg::TraderWithdraw { object })
    }

    /// Query offers of `service_type` matching `constraints`.
    pub fn query(service_type: impl Into<String>, constraints: Vec<(String, Value)>) -> Call {
        (TRADER, "query", PeerMsg::TraderQuery { service_type: service_type.into(), constraints })
    }
}
