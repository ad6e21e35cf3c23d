//! Identifiers used across the DISCOVER middleware.
//!
//! The paper's scheme: application identifiers are "a combination of the
//! server's IP address and a local count of the applications on each
//! server", so uniqueness is global, and "the server's IP address can be
//! extracted from this application identifier" to decide local vs remote —
//! [`AppId::host`] is exactly that extraction. Client ids are issued by the
//! master handler; session ids pair a client with an application.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::codec::dbp;

// The hasher behind `IdMap` lives in `simnet`, whose link table is keyed
// by node ids; it keeps its old path here.
pub use simnet::IdHasher;

macro_rules! fmt_via_debug {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(self, f)
        }
    };
}

/// A shared immutable string: the text of a user id, an object key, a
/// GIOP operation name, an HTTP path. Identifiers are written once and
/// then copied at every hop they cross, so a copy is a pointer copy (a
/// literal) or a reference-count bump (text that came off the wire),
/// never a fresh heap string. Equality, order and hash are those of the
/// text, whichever way it is held; on the wire it is the `String` it
/// replaces, byte for byte.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Name {
    /// A name that is a literal of the program: no allocation, ever.
    pub const fn from_static(text: &'static str) -> Self {
        Name(Repr::Static(text))
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(text) => text,
            Repr::Shared(text) => text,
        }
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        Name(Repr::Shared(text.into()))
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        Name(Repr::Shared(text.into()))
    }
}

impl From<&String> for Name {
    fn from(text: &String) -> Self {
        text.as_str().into()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

dbp! {
    /// Simulated network address of a DISCOVER server (stands in for the IP
    /// address in the paper's identifier scheme).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct ServerAddr(pub u32);
}

impl fmt::Debug for ServerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like a private IPv4 address for familiarity.
        write!(f, "10.0.{}.{}", self.0 >> 8 & 0xff, self.0 & 0xff)
    }
}

impl fmt::Display for ServerAddr {
    fmt_via_debug!();
}

dbp! {
    /// Globally unique application identifier: host server address plus a
    /// per-server registration counter (assigned by the Daemon servlet).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct AppId {
        /// Address of the application's *host* server (the server it connected
        /// to directly).
        pub server: ServerAddr,
        /// Per-server registration sequence number.
        pub seq: u32,
    }
}

impl AppId {
    /// Extract the host server's address — the paper's "is this local or
    /// remote?" test.
    pub fn host(&self) -> ServerAddr {
        self.server
    }

    /// The name this application is bound under in the naming service
    /// (`DISCOVER/apps/<id>`): directory-ring key, discovery-cache key,
    /// and the redirect hint clients of a failed or shedding host get.
    pub fn naming_path(&self) -> String {
        format!("DISCOVER/apps/{self}")
    }

    /// The key of this application's `CorbaProxy` servant at its host
    /// (`apps/<id>`), the target of relayed operations.
    pub fn servant_key(&self) -> ObjectKey {
        ObjectKey::new(format!("apps/{self}"))
    }
}

impl fmt::Debug for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app:{}#{}", self.server, self.seq)
    }
}

impl fmt::Display for AppId {
    fmt_via_debug!();
}

dbp! {
    /// Client identifier issued by the master handler at login.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct ClientId {
        /// Address of the server the client logged into (its "local" server).
        pub server: ServerAddr,
        /// Per-server client sequence number.
        pub seq: u32,
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client:{}#{}", self.server, self.seq)
    }
}

impl fmt::Display for ClientId {
    fmt_via_debug!();
}

/// Map keyed by an id this program issued itself ([`ClientId`], [`AppId`]:
/// a server address and a local count), probed with [`IdHasher`]. Never
/// key it by anything a client chose.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

dbp! {
    /// A client-server-application interaction session (client id + app id per
    /// the paper's master-handler description).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct SessionId {
        /// The client side of the session.
        pub client: ClientId,
        /// The application side of the session.
        pub app: AppId,
    }

    /// Correlation id for request/response matching on any channel.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct RequestId(pub u64);
}

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

impl fmt::Display for RequestId {
    fmt_via_debug!();
}

dbp! {
    /// A user identity. Per the paper, "user-IDs do not belong to a server but
    /// to an application/service", and are assumed consistent across servers.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct UserId(pub Name);
}

impl UserId {
    /// Convenience constructor.
    pub fn new(name: impl Into<Name>) -> Self {
        UserId(name.into())
    }
    /// The raw user name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user:{}", self.0)
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for UserId {
    fn from(s: &str) -> Self {
        UserId(s.into())
    }
}

dbp! {
    /// Access privilege for a (user, application) pair, from the application's
    /// registered ACL. Ordered: each level includes the ones below it.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub enum Privilege {
        /// May view status, parameters and updates only.
        ReadOnly,
        /// May additionally change parameters while holding the steering lock.
        ReadWrite,
        /// May additionally issue application commands (pause/resume/...).
        Steer,
    }
}

impl Privilege {
    /// True if this privilege grants at least `required`.
    pub fn allows(self, required: Privilege) -> bool {
        self >= required
    }
}

dbp! {
    /// Pre-assigned token an application presents when registering with its
    /// server (the paper: "each application is authenticated at the server
    /// using a pre-assigned unique identifier").
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    pub struct AppToken(pub String);
}

impl AppToken {
    /// Convenience constructor.
    pub fn new(tok: impl Into<String>) -> Self {
        AppToken(tok.into())
    }
}

dbp! {
    /// Keys object implementations register under with the ORB's object
    /// adapter; naming and trader entries resolve to (server address, key).
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct ObjectKey(pub Name);
}

impl ObjectKey {
    /// Convenience constructor.
    pub fn new(key: impl Into<Name>) -> Self {
        ObjectKey(key.into())
    }

    /// A well-known key that is a literal of the program.
    pub const fn from_static(key: &'static str) -> Self {
        ObjectKey(Name::from_static(key))
    }
}

impl fmt::Debug for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key:{}", self.0)
    }
}

dbp! {
    /// An interoperable object reference: where the object lives and which
    /// servant it is — the CORBA IOR analogue.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    pub struct ObjectRef {
        /// The server hosting the servant.
        pub server: ServerAddr,
        /// The servant's key within that server's object adapter.
        pub key: ObjectKey,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_id_host_extraction() {
        let id = AppId { server: ServerAddr(7), seq: 3 };
        assert_eq!(id.host(), ServerAddr(7));
        assert_ne!(id, AppId { server: ServerAddr(7), seq: 4 });
        assert_ne!(id, AppId { server: ServerAddr(8), seq: 3 });
    }

    #[test]
    fn privilege_ordering() {
        assert!(Privilege::Steer.allows(Privilege::ReadOnly));
        assert!(Privilege::Steer.allows(Privilege::ReadWrite));
        assert!(Privilege::ReadWrite.allows(Privilege::ReadOnly));
        assert!(!Privilege::ReadOnly.allows(Privilege::ReadWrite));
        assert!(!Privilege::ReadWrite.allows(Privilege::Steer));
    }

    #[test]
    fn id_map_keeps_sequential_ids_apart() {
        let mut map = IdMap::default();
        for server in 0..4 {
            for seq in 0..1024 {
                map.insert(ClientId { server: ServerAddr(server), seq }, (server, seq));
            }
        }
        assert_eq!(map.len(), 4096);
        let id = ClientId { server: ServerAddr(3), seq: 1000 };
        assert_eq!(map.get(&id), Some(&(3, 1000)));
        // Distinct ids, distinct hashes: no run of ids shares a bucket.
        let hashes: std::collections::HashSet<u64> = map
            .keys()
            .map(|id| {
                use std::hash::BuildHasher;
                map.hasher().hash_one(id)
            })
            .collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ServerAddr(258)), "10.0.1.2");
        let id = AppId { server: ServerAddr(1), seq: 2 };
        assert_eq!(format!("{id}"), "app:10.0.0.1#2");
        assert_eq!(id.naming_path(), "DISCOVER/apps/app:10.0.0.1#2");
        assert_eq!(id.servant_key(), ObjectKey::new("apps/app:10.0.0.1#2"));
        assert_eq!(format!("{}", UserId::new("vijay")), "vijay");
    }

    #[test]
    fn ids_roundtrip_through_codec() {
        let id = AppId { server: ServerAddr(300), seq: 12 };
        let bytes = crate::codec::encode(&id);
        assert_eq!(crate::codec::decode::<AppId>(&bytes).unwrap(), id);
        let or = ObjectRef { server: ServerAddr(2), key: ObjectKey::new("DISCOVER/apps/3") };
        let bytes = crate::codec::encode(&or);
        assert_eq!(crate::codec::decode::<ObjectRef>(&bytes).unwrap(), or);
    }
}
