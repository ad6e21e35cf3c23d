//! The record store: stands in for the paper's relational databases and
//! implements the §6.3 data-management/ownership rules:
//!
//! * records created in response to a *client's* request are owned by the
//!   requesting user, at the client's local server;
//! * records of *periodic application data* are owned by the
//!   application's owner, at the application's home server;
//! * other users with access privileges on the application get read-only
//!   access;
//! * clients can never create records at a remote server.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use wire::{AppId, OpOutcome, Privilege, UserId, Value};

/// A stored record with ownership metadata.
#[derive(Debug, Clone)]
pub struct Record {
    /// Record id within the store.
    pub id: u64,
    /// The application the data came from.
    pub app: AppId,
    /// Owning user (full access).
    pub owner: UserId,
    /// The application's ACL as it stood when the record was made, shared
    /// with the proxy: everyone on it but the owner reads the record. An
    /// outcome record has none.
    pub readers: Option<Rc<HashMap<UserId, Privilege>>>,
    pub(crate) data: RecordData,
}

/// What a record keeps: periodic readings as named values, or the
/// outcome of a client's interaction, shared with the logs that hold the
/// same completion.
#[derive(Debug, Clone)]
pub enum RecordData {
    /// Periodic application data.
    Readings(Vec<(String, Value)>),
    /// A completed operation's outcome.
    Outcome(Rc<OpOutcome>),
}

impl Record {
    /// The payload as named values. An outcome record is rendered here,
    /// when read, as one `outcome` text.
    pub fn data(&self) -> Cow<'_, [(String, Value)]> {
        match &self.data {
            RecordData::Readings(values) => Cow::Borrowed(values),
            RecordData::Outcome(outcome) => {
                Cow::Owned(vec![("outcome".to_string(), Value::Text(format!("{outcome:?}")))])
            }
        }
    }
}

/// Access level a user has on a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordAccess {
    /// No access.
    None,
    /// May read only.
    Read,
    /// Owner: read, update, delete, grant.
    Full,
}

/// An in-memory table of owned records.
#[derive(Debug, Default)]
pub struct RecordStore {
    records: BTreeMap<u64, Record>,
    next_id: u64,
}

impl RecordStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a record owned by `owner`, readable by everyone else on
    /// `readers`.
    pub fn create(
        &mut self,
        app: AppId,
        owner: UserId,
        readers: Option<Rc<HashMap<UserId, Privilege>>>,
        data: RecordData,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.records.insert(id, Record { id, app, owner, readers, data });
        id
    }

    /// Access level of `user` on record `id`. The owner is checked first,
    /// so an owner also on the ACL is never demoted to a reader.
    pub fn access(&self, id: u64, user: &UserId) -> RecordAccess {
        match self.records.get(&id) {
            None => RecordAccess::None,
            Some(r) if r.owner == *user => RecordAccess::Full,
            Some(r) if r.readers.as_ref().is_some_and(|acl| acl.contains_key(user)) => {
                RecordAccess::Read
            }
            Some(_) => RecordAccess::None,
        }
    }

    /// Read a record if `user` has at least read access.
    pub fn read(&self, id: u64, user: &UserId) -> Option<&Record> {
        match self.access(id, user) {
            RecordAccess::None => None,
            _ => self.records.get(&id),
        }
    }

    /// Delete a record; only the owner may delete.
    pub fn delete(&mut self, id: u64, user: &UserId) -> bool {
        if self.access(id, user) == RecordAccess::Full {
            self.records.remove(&id);
            true
        } else {
            false
        }
    }

    /// All records of `app` readable by `user`, in id order.
    pub fn query_app(&self, app: AppId, user: &UserId) -> Vec<&Record> {
        self.records
            .values()
            .filter(|r| r.app == app && self.access(r.id, user) != RecordAccess::None)
            .collect()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Number of stored records for one application (archive-pressure
    /// reporting in `StatusReport`).
    pub fn count_for_app(&self, app: AppId) -> u64 {
        self.records.values().filter(|r| r.app == app).count() as u64
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::ServerAddr;

    fn app() -> AppId {
        AppId { server: ServerAddr(1), seq: 1 }
    }
    fn u(s: &str) -> UserId {
        UserId::new(s)
    }
    fn acl(users: &[&str]) -> Option<Rc<HashMap<UserId, Privilege>>> {
        Some(Rc::new(users.iter().map(|name| (u(name), Privilege::ReadOnly)).collect()))
    }

    #[test]
    fn owner_has_full_access_readers_read_only() {
        let mut store = RecordStore::new();
        let id = store.create(app(), u("owner"), acl(&["peer"]), RecordData::Readings(vec![]));
        assert_eq!(store.access(id, &u("owner")), RecordAccess::Full);
        assert_eq!(store.access(id, &u("peer")), RecordAccess::Read);
        assert_eq!(store.access(id, &u("stranger")), RecordAccess::None);
        assert!(store.read(id, &u("peer")).is_some());
        assert!(store.read(id, &u("stranger")).is_none());
    }

    #[test]
    fn only_owner_deletes() {
        let mut store = RecordStore::new();
        let id = store.create(app(), u("owner"), acl(&["x"]), RecordData::Readings(vec![]));
        assert!(!store.delete(id, &u("peer")));
        assert!(!store.delete(id, &u("x")), "a reader may not delete");
        assert_eq!(store.access(id, &u("x")), RecordAccess::Read);
        assert!(store.delete(id, &u("owner")));
        assert!(store.is_empty());
    }

    #[test]
    fn query_filters_by_app_and_access() {
        let mut store = RecordStore::new();
        let other_app = AppId { server: ServerAddr(1), seq: 2 };
        store.create(app(), u("a"), acl(&["b"]), RecordData::Readings(vec![]));
        store.create(app(), u("c"), None, RecordData::Readings(vec![]));
        store.create(other_app, u("a"), None, RecordData::Readings(vec![]));
        assert_eq!(store.query_app(app(), &u("a")).len(), 1);
        assert_eq!(store.query_app(app(), &u("b")).len(), 1);
        assert_eq!(store.query_app(app(), &u("c")).len(), 1);
        assert_eq!(store.query_app(other_app, &u("a")).len(), 1);
        assert_eq!(store.query_app(app(), &u("z")).len(), 0);
    }

    #[test]
    fn owner_not_downgraded_by_reader_entry() {
        let mut store = RecordStore::new();
        let id = store.create(app(), u("a"), acl(&["a"]), RecordData::Readings(vec![]));
        // Listing the owner on the readers' ACL must not demote them.
        assert_eq!(store.access(id, &u("a")), RecordAccess::Full);
        // Nor does a reader entry that slips in after creation.
        let record = store.records.get_mut(&id).unwrap();
        let readers = record.readers.as_mut().unwrap();
        Rc::make_mut(readers).insert(u("a"), Privilege::Steer);
        assert_eq!(store.access(id, &u("a")), RecordAccess::Full);
    }
}
