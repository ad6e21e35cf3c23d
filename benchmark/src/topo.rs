//! Benchmark-owned topology assembly.
//!
//! The same network `discover_core::CollaboratoryBuilder` builds, put
//! together from the public constructors (`Engine::add_node`/`link`,
//! `orb::Directory`, `Substrate::new`, `DiscoverNode::new`,
//! `AppDriver::new`, `Portal::new`) so that every actor can sit inside a
//! [`Spanned`] wrapper. Node creation order, names, links and the settling
//! run match the builder's, which `tests/assembly.rs` checks by comparing
//! event counts and per-portal op counts for equal seeds.

use appsim::{AppDriver, DriverConfig, SteerableApp, Synthetic};
use discover_client::{Portal, PortalConfig};
use discover_core::{DirectoryRing, DiscoverNode, Substrate, SubstrateConfig};
use discover_server::{ServerConfig, ServerCore};
use orb::{AddressBook, Directory, DirectoryCosts};
use simnet::{Engine, LinkSpec, NodeId, SimDuration};
use wire::{AppId, Envelope, ServerAddr};

use crate::spans::{Kind, Spanned};

/// A server of the assembled network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerHandle {
    /// Network address.
    pub addr: ServerAddr,
    /// Simulation node.
    pub node: NodeId,
}

/// A collaboratory under assembly or running. `TRACED` selects the
/// span-recording or the pass-through actor wrapper.
pub struct Mesh<const TRACED: bool> {
    /// The simulation engine.
    pub engine: Engine<Envelope>,
    /// Substrate configuration given to servers created afterwards.
    pub substrate_config: SubstrateConfig,
    seed: u64,
    ring: DirectoryRing,
    book: AddressBook,
    servers: Vec<ServerHandle>,
    apps_on: Vec<u32>,
    portals: Vec<NodeId>,
}

impl<const TRACED: bool> Mesh<TRACED> {
    /// An engine holding the primary directory node.
    pub fn new(seed: u64) -> Self {
        let mut engine = Engine::new(seed);
        let directory = engine.add_node("directory", Self::directory_actor());
        Mesh {
            engine,
            substrate_config: SubstrateConfig::default(),
            seed,
            ring: DirectoryRing::single(directory),
            book: AddressBook::new(),
            servers: Vec::new(),
            apps_on: Vec::new(),
            portals: Vec::new(),
        }
    }

    fn directory_actor() -> Spanned<Directory, TRACED> {
        Spanned::new(Kind::Directory, Directory::new(DirectoryCosts::default()))
    }

    /// Shard the directory over `n` nodes (before the first server).
    pub fn directory_shards(&mut self, n: usize) {
        assert!(
            self.servers.is_empty(),
            "directory_shards must precede the first server"
        );
        assert_eq!(self.ring.len(), 1, "directory_shards called twice");
        if n <= 1 {
            return;
        }
        let mut ring = DirectoryRing::new(self.seed);
        ring.add("directory", self.ring.primary());
        for i in 1..n {
            let name = format!("directory{i}");
            let node = self.engine.add_node(&name, Self::directory_actor());
            ring.add(name, node);
        }
        self.ring = ring;
    }

    /// Add a server whose default configuration `tweak` may adjust.
    pub fn server(&mut self, name: &str, tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
        let addr = ServerAddr(self.servers.len() as u32 + 1);
        let mut config = ServerConfig::new(addr, name);
        tweak(&mut config);
        let substrate = Substrate::new(
            self.substrate_config,
            addr,
            name,
            self.ring.clone(),
            self.book.clone(),
        );
        let actor = Spanned::<_, TRACED>::new(Kind::Node, DiscoverNode::new(config, substrate));
        let node = self.engine.add_node(name, actor);
        for &shard in self.ring.nodes() {
            self.engine.link(node, shard, LinkSpec::campus());
        }
        self.book.register(addr, node);
        let handle = ServerHandle { addr, node };
        self.servers.push(handle);
        self.apps_on.push(0);
        handle
    }

    /// Link every pair of servers with `spec`.
    pub fn mesh_servers(&mut self, spec: LinkSpec) {
        for (i, a) in self.servers.iter().enumerate() {
            for b in &self.servers[i + 1..] {
                if !self.engine.has_link(a.node, b.node) {
                    self.engine.link(a.node, b.node, spec);
                }
            }
        }
    }

    /// Attach a synthetic application to `server`; its id is the
    /// server's next registration slot.
    pub fn application(
        &mut self,
        server: ServerHandle,
        app: SteerableApp<Synthetic>,
        config: DriverConfig,
    ) -> AppId {
        let name = config.name.clone();
        let mut driver = AppDriver::new(app, config);
        driver.server = Some(server.node);
        let index = self
            .servers
            .iter()
            .position(|s| *s == server)
            .expect("server of this mesh");
        let seq = self.apps_on[index];
        self.apps_on[index] += 1;
        driver.slot = Some(seq);
        let actor = Spanned::<_, TRACED>::new(Kind::App, driver);
        let node = self.engine.add_node(format!("app:{name}"), actor);
        self.engine.link(node, server.node, LinkSpec::lan());
        AppId {
            server: server.addr,
            seq,
        }
    }

    /// Attach a portal homed on `server`.
    pub fn portal(&mut self, server: ServerHandle, name: &str, config: PortalConfig) -> NodeId {
        let mut portal = Portal::new(config);
        portal.server = Some(server.node);
        let node = self
            .engine
            .add_node(name, Spanned::<_, TRACED>::new(Kind::Portal, portal));
        self.engine.link(node, server.node, LinkSpec::lan());
        self.portals.push(node);
        node
    }

    /// The builder's settling run: servers publish and discover each
    /// other, applications register.
    pub fn settle(&mut self) {
        self.engine.run_for(SimDuration::from_millis(10));
    }

    /// All servers, in creation order.
    pub fn servers(&self) -> &[ServerHandle] {
        &self.servers
    }

    /// All portal nodes, in creation order.
    pub fn portals(&self) -> &[NodeId] {
        &self.portals
    }

    /// Borrow a portal's state.
    pub fn portal_ref(&self, node: NodeId) -> &Portal {
        &self
            .engine
            .actor_ref::<Spanned<Portal, TRACED>>(node)
            .expect("a portal node")
            .inner
    }

    /// Borrow a server node (core + substrate).
    pub fn node_ref(&self, server: ServerHandle) -> &DiscoverNode {
        let actor = self
            .engine
            .actor_ref::<Spanned<DiscoverNode, TRACED>>(server.node);
        &actor.expect("a server node").inner
    }

    /// Borrow a server's core state.
    pub fn core(&self, server: ServerHandle) -> &ServerCore {
        &self.node_ref(server).core
    }
}
