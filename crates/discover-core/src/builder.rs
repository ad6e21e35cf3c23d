//! The top-level assembly API: build a network of DISCOVER
//! collaboratory domains — directory, servers, applications, clients,
//! links — and run it.
//!
//! ```
//! use discover_core::{CollaboratoryBuilder, CollabMode};
//! use appsim::{synthetic_app, DriverConfig};
//! use simnet::{LinkSpec, SimTime};
//!
//! let mut b = CollaboratoryBuilder::new(7);
//! let rutgers = b.server("rutgers");
//! let utexas = b.server("utexas");
//! b.link_servers(rutgers, utexas, LinkSpec::wan());
//! b.application(utexas, synthetic_app(2, 1000), DriverConfig::default());
//! let mut collab = b.build();
//! collab.engine.run_until(SimTime::from_secs(5));
//! assert_eq!(collab.server_core(utexas).unwrap().local_app_count(), 1);
//! ```

use std::collections::HashMap;

use appsim::{AppDriver, DriverConfig, Kernel, SteerableApp};
use discover_client::{Portal, PortalConfig};
use orb::{AddressBook, Directory, DirectoryCosts};
use simnet::{Actor, Engine, LinkSpec, NodeId, SimDuration};
use wire::{AppId, Envelope, ServerAddr};

use discover_server::{ServerConfig, ServerCore};

use crate::node::DiscoverNode;
use crate::shard::DirectoryRing;
use crate::substrate::{Substrate, SubstrateConfig};

/// Handle to a server created by the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ServerHandle {
    /// The server's network address.
    pub addr: ServerAddr,
    /// The server's simulation node.
    pub node: NodeId,
}

/// A built collaboratory network, ready to run.
pub struct Collaboratory {
    /// The simulation engine.
    pub engine: Engine<Envelope>,
    /// The primary directory (naming + trader) shard node.
    pub directory: NodeId,
    /// The full directory shard ring (equals the primary node alone
    /// unless [`CollaboratoryBuilder::directory_shards`] was used).
    pub directory_ring: DirectoryRing,
    /// All servers by address.
    pub servers: HashMap<ServerAddr, ServerHandle>,
    /// Shared address book.
    pub book: AddressBook,
    pub(crate) substrate_config: SubstrateConfig,
    pub(crate) next_addr: u32,
}

impl Collaboratory {
    /// Borrow a server's core state.
    pub fn server_core(&self, server: ServerHandle) -> Option<&ServerCore> {
        self.engine.actor_ref::<DiscoverNode>(server.node).map(|n| &n.core)
    }

    /// Borrow a server node (core + substrate).
    pub fn node(&self, server: ServerHandle) -> Option<&DiscoverNode> {
        self.engine.actor_ref::<DiscoverNode>(server.node)
    }

    /// Add a server to the *running* network: it publishes itself to the
    /// trader and existing peers discover it on their next refresh — the
    /// paper's "availability of these servers is not guaranteed and must
    /// be determined at runtime".
    pub fn add_server(&mut self, name: &str, peer_link: LinkSpec) -> ServerHandle {
        let addr = ServerAddr(self.next_addr);
        self.next_addr += 1;
        let config = ServerConfig::new(addr, name);
        let substrate = Substrate::new(
            self.substrate_config,
            addr,
            name,
            self.directory_ring.clone(),
            self.book.clone(),
        );
        let node = self.engine.add_node(name, DiscoverNode::new(config, substrate));
        for &shard in self.directory_ring.nodes() {
            self.engine.link(node, shard, LinkSpec::campus());
        }
        for handle in self.servers.values() {
            self.engine.link(node, handle.node, peer_link);
        }
        self.book.register(addr, node);
        let handle = ServerHandle { addr, node };
        self.servers.insert(addr, handle);
        handle
    }
}

/// Builder for a collaboratory network. Creates the directory node up
/// front; servers, applications, clients and links are added before
/// [`CollaboratoryBuilder::build`]. Servers reach the directory over a
/// campus link ([`LinkSpec::campus`]), applications and clients their
/// server over a LAN ([`LinkSpec::lan`]).
pub struct CollaboratoryBuilder {
    engine: Engine<Envelope>,
    directory: NodeId,
    directory_ring: DirectoryRing,
    seed: u64,
    book: AddressBook,
    servers: HashMap<ServerAddr, ServerHandle>,
    next_addr: u32,
    /// Substrate configuration applied to servers created afterwards.
    pub substrate_config: SubstrateConfig,
    /// Customize the server config of subsequently created servers.
    #[allow(clippy::type_complexity)]
    server_tweak: Option<Box<dyn FnMut(&mut ServerConfig)>>,
    app_counts: HashMap<ServerAddr, u32>,
}

impl CollaboratoryBuilder {
    /// Start a builder with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        let mut engine = Engine::new(seed);
        let directory = engine.add_node("directory", Directory::new(DirectoryCosts::default()));
        CollaboratoryBuilder {
            engine,
            directory,
            directory_ring: DirectoryRing::single(directory),
            seed,
            book: AddressBook::new(),
            servers: HashMap::new(),
            next_addr: 1,
            substrate_config: SubstrateConfig::default(),
            server_tweak: None,
            app_counts: HashMap::new(),
        }
    }

    /// Turn on end-to-end request tracing for this collaboratory. Off by
    /// default: untraced runs stamp no contexts onto envelopes and their
    /// event schedule is byte-identical to pre-tracing builds.
    pub fn tracing(&mut self) -> &mut Self {
        self.engine.enable_tracing();
        self
    }

    /// Turn on semantic history recording (lock/ACL/daemon decision
    /// points) for this collaboratory. Off by default; recording appends
    /// to a side log and leaves the event schedule byte-identical to an
    /// unrecorded run, so it is safe for correctness checking.
    pub fn history(&mut self) -> &mut Self {
        self.engine.enable_history();
        self
    }

    /// Arm the anomaly flight recorder for this collaboratory. Off by
    /// default: a disarmed recorder observes nothing, so uninstrumented
    /// runs stay byte-identical. Armed, it keeps a bounded ring of recent
    /// history events per node and dumps them deterministically when a
    /// breaker opens, a shed burst crosses the threshold, or
    /// `expiry_spike_threshold` deadline expiries land within a second
    /// on one node (see [`simnet::flight`]).
    pub fn flight_recorder(&mut self, expiry_spike_threshold: usize) -> &mut Self {
        self.engine.enable_flight_recorder(expiry_spike_threshold);
        self
    }

    /// Install a hook that customizes every subsequently created server's
    /// configuration (cost models, FIFO capacity, ...).
    pub fn tweak_servers(&mut self, f: impl FnMut(&mut ServerConfig) + 'static) -> &mut Self {
        self.server_tweak = Some(Box::new(f));
        self
    }

    /// Shard the directory across `n` nodes on a consistent-hash ring
    /// (seed-stable placement derived from the builder seed). Must be
    /// called before any server is created — every substrate captures
    /// the ring at construction. `n <= 1` keeps the single-directory
    /// arrangement untouched.
    pub fn directory_shards(&mut self, n: usize) -> &mut Self {
        assert!(
            self.servers.is_empty(),
            "directory_shards must be called before the first server()"
        );
        assert_eq!(self.directory_ring.len(), 1, "directory_shards called twice");
        if n <= 1 {
            return self;
        }
        // Rebuild the ring under the builder seed so shard placement is
        // seed-stable and actually varies across seeds (the single-node
        // ring uses a fixed seed, where placement is degenerate anyway).
        let mut ring = DirectoryRing::new(self.seed);
        ring.add("directory", self.directory);
        for i in 1..n {
            let name = format!("directory{i}");
            let node = self.engine.add_node(&name, Directory::new(DirectoryCosts::default()));
            ring.add(name, node);
        }
        self.directory_ring = ring;
        self
    }

    /// All directory shard nodes (ring-join order; index 0 is the
    /// primary node from [`CollaboratoryBuilder::directory_node`]).
    pub fn directory_nodes(&self) -> Vec<NodeId> {
        self.directory_ring.nodes().to_vec()
    }

    /// The directory shard ring (for placement diagnostics, e.g. the
    /// per-shard balance a scale experiment reports).
    pub fn directory_ring(&self) -> DirectoryRing {
        self.directory_ring.clone()
    }

    /// Create a DISCOVER server (one collaboratory domain) and link it to
    /// the directory.
    pub fn server(&mut self, name: &str) -> ServerHandle {
        let addr = ServerAddr(self.next_addr);
        self.next_addr += 1;
        let mut config = ServerConfig::new(addr, name);
        if let Some(tweak) = &mut self.server_tweak {
            tweak(&mut config);
        }
        let substrate = Substrate::new(
            self.substrate_config,
            addr,
            name,
            self.directory_ring.clone(),
            self.book.clone(),
        );
        let node = self.engine.add_node(name, DiscoverNode::new(config, substrate));
        for &shard in &self.directory_nodes() {
            self.engine.link(node, shard, LinkSpec::campus());
        }
        self.book.register(addr, node);
        let handle = ServerHandle { addr, node };
        self.servers.insert(addr, handle);
        handle
    }

    /// Link two servers (peer-to-peer path).
    pub fn link_servers(&mut self, a: ServerHandle, b: ServerHandle, spec: LinkSpec) {
        self.engine.link(a.node, b.node, spec);
    }

    /// Fully mesh all servers created so far with `spec` (skipping pairs
    /// already linked).
    pub fn mesh_servers(&mut self, spec: LinkSpec) {
        let handles: Vec<ServerHandle> = self.servers.values().copied().collect();
        for (i, &a) in handles.iter().enumerate() {
            for &b in handles.iter().skip(i + 1) {
                if !self.engine.has_link(a.node, b.node) {
                    self.engine.link(a.node, b.node, spec);
                }
            }
        }
    }

    /// Attach an application (kernel + control network) to a server. The
    /// returned [`AppId`] is predictable: it uses the server's next
    /// registration sequence.
    pub fn application<S: Kernel>(
        &mut self,
        server: ServerHandle,
        app: SteerableApp<S>,
        config: DriverConfig,
    ) -> (NodeId, AppId) {
        let name = config.name.clone();
        let mut driver = AppDriver::new(app, config);
        driver.server = Some(server.node);
        // Pin the slot so the AppId is a function of creation order.
        // (Registration messages race over jittered links, so letting the
        // daemon assign sequences on arrival would bind ids to the wrong
        // applications whenever a server hosts more than one.)
        let seq = self.app_counter(server);
        driver.slot = Some(seq);
        let node = self.engine.add_node(format!("app:{name}"), driver);
        self.engine.link(node, server.node, LinkSpec::lan());
        (node, AppId { server: server.addr, seq })
    }

    fn app_counter(&mut self, server: ServerHandle) -> u32 {
        // Count existing app links to this server by tracking in a map.
        let counter = self.app_counts.entry(server.addr).or_insert(0);
        let seq = *counter;
        *counter += 1;
        seq
    }

    /// The directory (naming + trader) node, e.g. for grid-overlay actors
    /// that share the same directory.
    pub fn directory_node(&self) -> NodeId {
        self.directory
    }

    /// A handle to the shared address book (grid sites register their
    /// addresses here so launchers can resolve trader offers).
    pub fn address_book(&self) -> AddressBook {
        self.book.clone()
    }

    /// Add an arbitrary actor linked to an arbitrary existing node (used
    /// by the CoG grid overlay, monitoring probes, etc.).
    pub fn add_actor(
        &mut self,
        name: &str,
        actor: impl Actor<Envelope>,
        link_to: NodeId,
        spec: LinkSpec,
    ) -> NodeId {
        let node = self.engine.add_node(name, actor);
        self.engine.link(node, link_to, spec);
        node
    }

    /// Put an application driver behind a launch gate (CoG/GRAM staged
    /// launch): it stays dormant until the gate opens. False, and nothing
    /// gated, when `app_node` is not an `AppDriver` of kernel `S`.
    #[must_use]
    pub fn set_launch_gate<S: Kernel>(
        &mut self,
        app_node: NodeId,
        gate: appsim::LaunchGate,
    ) -> bool {
        let driver = self.engine.actor_mut::<AppDriver<S>>(app_node);
        driver.map(|d| d.gate = Some(gate)).is_some()
    }

    /// Link two arbitrary nodes (grid overlays, probe paths, ...).
    pub fn link_nodes(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.engine.link(a, b, spec);
    }

    /// Attach an arbitrary actor to a server over a LAN link. A client
    /// portal wants [`CollaboratoryBuilder::portal`], which also wires it.
    pub fn attach(
        &mut self,
        server: ServerHandle,
        name: &str,
        actor: impl Actor<Envelope>,
    ) -> NodeId {
        let node = self.engine.add_node(name, actor);
        self.engine.link(node, server.node, LinkSpec::lan());
        node
    }

    /// Place a client portal at its local `server`: the portal is built
    /// already talking to that server and linked to it.
    pub fn portal(&mut self, server: ServerHandle, name: &str, config: PortalConfig) -> NodeId {
        let mut portal = Portal::new(config);
        portal.server = Some(server.node);
        self.attach(server, name, portal)
    }

    /// Finalize the network. Runs a brief settling window so servers
    /// publish/discover each other and applications register before the
    /// caller's own workload starts.
    pub fn build(self) -> Collaboratory {
        let CollaboratoryBuilder {
            mut engine,
            directory,
            directory_ring,
            book,
            servers,
            substrate_config,
            next_addr,
            ..
        } = self;
        engine.run_for(SimDuration::from_millis(10));
        Collaboratory {
            engine,
            directory,
            directory_ring,
            servers,
            book,
            substrate_config,
            next_addr,
        }
    }
}
