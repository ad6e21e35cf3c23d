//! The collaboration handler's group state (§4.1, §5.2.3).
//!
//! "All clients connected to a particular application form a collaboration
//! group by default. ... Clients can form or join (or leave) collaboration
//! sub-groups within the application group. Clients can also disable all
//! collaboration so that their requests/responses are not broadcast to the
//! entire collaboration group. Individual views can still be explicitly
//! shared in this mode."
//!
//! This module tracks only *local* membership; cross-server fan-out (one
//! message per remote server) is the middleware substrate's job. Beside
//! the members it keeps each application's [`Latest`] slots, the shared
//! newest value of every view-class key broadcast to the group on a
//! coalescing server, whose pending lists follow the membership.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use webserv::Latest;
use wire::{AppId, ClientId, FrozenUpdate};

/// Local collaboration-group membership for one server.
#[derive(Debug, Default)]
pub struct CollabGroups {
    /// Default application groups: app → local member clients.
    members: BTreeMap<AppId, BTreeSet<ClientId>>,
    /// Named subgroups within an application group.
    subgroups: BTreeMap<(AppId, String), BTreeSet<ClientId>>,
    /// Clients that disabled collaboration broadcast for an app.
    muted: BTreeSet<(ClientId, AppId)>,
    /// Per application, one shared slot per view-class key broadcast to
    /// its group so far; few enough to find by scanning.
    latest: BTreeMap<AppId, Vec<Rc<Latest>>>,
}

impl CollabGroups {
    /// Create empty group state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Client joins the default group of `app` (on SelectApp), holding
    /// none of its shared slots yet.
    pub fn join(&mut self, app: AppId, client: ClientId) -> bool {
        let joined = self.members.entry(app).or_default().insert(client);
        if joined {
            self.latest(app).iter().for_each(|slot| slot.add_pending(client));
        }
        joined
    }

    /// Client leaves `app` entirely (DeselectApp/logout): default group,
    /// all subgroups, mute flag, shared slots (whose handles its FIFO
    /// must no longer hold).
    pub fn leave(&mut self, app: AppId, client: ClientId) -> bool {
        let was = self.members.get_mut(&app).map(|s| s.remove(&client)).unwrap_or(false);
        self.latest(app).iter().for_each(|slot| slot.forget(client));
        self.subgroups.iter_mut().filter(|((a, _), _)| *a == app).for_each(|(_, s)| {
            s.remove(&client);
        });
        self.muted.remove(&(client, app));
        if let Some(s) = self.members.get(&app) {
            if s.is_empty() {
                self.members.remove(&app);
            }
        }
        was
    }

    /// Drop an application group entirely (app closed). Returns members.
    pub fn drop_app(&mut self, app: AppId) -> Vec<ClientId> {
        let members = self.members.remove(&app).unwrap_or_default().into_iter().collect();
        self.subgroups.retain(|(a, _), _| *a != app);
        self.muted.retain(|(_, a)| *a != app);
        self.latest.remove(&app);
        members
    }

    /// Remove a client, whose FIFO is gone, from every group (logout).
    /// Returns affected apps.
    pub fn drop_client(&mut self, client: ClientId) -> Vec<AppId> {
        let mut affected = Vec::new();
        self.members.retain(|app, set| {
            if set.remove(&client) {
                affected.push(*app);
            }
            !set.is_empty()
        });
        for app in &affected {
            self.latest(*app).iter().for_each(|slot| slot.forget(client));
        }
        self.subgroups.iter_mut().for_each(|(_, s)| {
            s.remove(&client);
        });
        self.muted.retain(|(c, _)| *c != client);
        affected
    }

    /// Join a named subgroup.
    pub fn join_subgroup(&mut self, app: AppId, group: &str, client: ClientId) -> bool {
        self.subgroups.entry((app, group.to_string())).or_default().insert(client)
    }

    /// Leave a named subgroup.
    pub fn leave_subgroup(&mut self, app: AppId, group: &str, client: ClientId) -> bool {
        self.subgroups
            .get_mut(&(app, group.to_string()))
            .map(|s| s.remove(&client))
            .unwrap_or(false)
    }

    /// Set the collaboration-broadcast mode for (client, app).
    pub fn set_broadcast(&mut self, app: AppId, client: ClientId, broadcast: bool) {
        if broadcast {
            self.muted.remove(&(client, app));
        } else {
            self.muted.insert((client, app));
        }
    }

    /// True if the client receives/contributes group broadcast for `app`.
    pub fn broadcast_enabled(&self, app: AppId, client: ClientId) -> bool {
        !self.muted.contains(&(client, app))
    }

    /// Local members of the default group of `app`.
    pub fn members(&self, app: AppId) -> Vec<ClientId> {
        self.members.get(&app).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// True if the default group of `app` has at least one local member.
    pub fn has_members(&self, app: AppId) -> bool {
        self.members.get(&app).is_some_and(|group| !group.is_empty())
    }

    /// How many clients [`CollabGroups::broadcast_targets`] yields,
    /// without walking the group.
    pub fn target_count(&self, app: AppId, exclude: Option<ClientId>) -> u64 {
        let Some(members) = self.members.get(&app) else { return 0 };
        let muted = self.muted.iter().filter(|(c, a)| *a == app && members.contains(c)).count();
        let excluded =
            exclude.is_some_and(|c| members.contains(&c) && self.broadcast_enabled(app, c));
        (members.len() - muted - usize::from(excluded)) as u64
    }

    /// The shared slots of `app`'s view-class keys.
    pub fn latest(&self, app: AppId) -> &[Rc<Latest>] {
        self.latest.get(&app).map_or(&[], Vec::as_slice)
    }

    /// The shared slot `update` writes, opened with every member pending
    /// the first time its key is broadcast. `update` must have a
    /// coalesce key.
    pub fn latest_for(&mut self, update: &FrozenUpdate) -> Rc<Latest> {
        let app = update.app();
        let slots = self.latest.entry(app).or_default();
        if let Some(slot) = slots.iter().find(|slot| slot.holds_key_of(update)) {
            return Rc::clone(slot);
        }
        let members = self.members.get(&app).map(|s| s.iter().copied().collect());
        let slot = Latest::new(update.clone(), members.unwrap_or_default());
        slots.push(Rc::clone(&slot));
        slot
    }

    /// Local recipients of a group broadcast for `app`, in id order:
    /// members minus the originator (if local) minus muted clients.
    /// Borrowed straight from the membership set, so the per-update
    /// fan-out on the hot delivery path collects nothing.
    pub fn broadcast_targets(
        &self,
        app: AppId,
        exclude: Option<ClientId>,
    ) -> impl Iterator<Item = ClientId> + '_ {
        self.members
            .get(&app)
            .into_iter()
            .flatten()
            .copied()
            .filter(move |c| Some(*c) != exclude && !self.muted.contains(&(*c, app)))
    }

    /// True if the client is in the default group of `app`.
    pub fn is_member(&self, app: AppId, client: ClientId) -> bool {
        self.members.get(&app).map(|s| s.contains(&client)).unwrap_or(false)
    }

    /// Forget every membership, subgroup, mute flag and shared slot
    /// (crash recovery: the restarted server's clients must log in and
    /// re-select their applications, so stale membership must not leak
    /// into fan-out).
    pub fn reset(&mut self) {
        self.members.clear();
        self.subgroups.clear();
        self.muted.clear();
        self.latest.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::ServerAddr;

    fn app(seq: u32) -> AppId {
        AppId { server: ServerAddr(1), seq }
    }
    fn client(seq: u32) -> ClientId {
        ClientId { server: ServerAddr(1), seq }
    }
    /// Members of a named subgroup.
    fn subgroup(g: &CollabGroups, app: AppId, group: &str) -> Vec<ClientId> {
        let members = g.subgroups.get(&(app, group.to_string()));
        members.into_iter().flatten().copied().collect()
    }

    #[test]
    fn default_group_membership() {
        let mut g = CollabGroups::new();
        assert!(g.join(app(1), client(1)));
        assert!(!g.join(app(1), client(1)), "double join is idempotent");
        g.join(app(1), client(2));
        assert_eq!(g.members(app(1)).len(), 2);
        assert!(g.is_member(app(1), client(1)));
        assert!(g.leave(app(1), client(1)));
        assert!(!g.is_member(app(1), client(1)));
    }

    #[test]
    fn broadcast_excludes_origin_and_muted() {
        let mut g = CollabGroups::new();
        for c in 1..=4 {
            g.join(app(1), client(c));
        }
        g.set_broadcast(app(1), client(3), false);
        let targets: Vec<_> = g.broadcast_targets(app(1), Some(client(1))).collect();
        assert_eq!(targets, vec![client(2), client(4)]);
        // Re-enable restores delivery.
        g.set_broadcast(app(1), client(3), true);
        assert_eq!(g.broadcast_targets(app(1), Some(client(1))).count(), 3);
    }

    #[test]
    fn subgroups_are_independent() {
        let mut g = CollabGroups::new();
        g.join(app(1), client(1));
        g.join(app(1), client(2));
        g.join_subgroup(app(1), "vis", client(1));
        assert_eq!(subgroup(&g, app(1), "vis"), vec![client(1)]);
        assert!(g.leave_subgroup(app(1), "vis", client(1)));
        assert!(!g.leave_subgroup(app(1), "vis", client(1)));
        assert!(g.is_member(app(1), client(1)), "subgroup leave keeps default membership");
    }

    #[test]
    fn drop_app_and_client_cleanup() {
        let mut g = CollabGroups::new();
        g.join(app(1), client(1));
        g.join(app(2), client(1));
        g.join(app(1), client(2));
        g.join_subgroup(app(1), "x", client(1));
        g.set_broadcast(app(1), client(1), false);

        let affected = g.drop_client(client(1));
        assert_eq!(affected, vec![app(1), app(2)]);
        assert!(subgroup(&g, app(1), "x").is_empty());
        assert!(g.broadcast_enabled(app(1), client(1)), "mute cleared on drop");

        let members = g.drop_app(app(1));
        assert_eq!(members, vec![client(2)]);
        assert!(g.members(app(1)).is_empty());
    }
}
