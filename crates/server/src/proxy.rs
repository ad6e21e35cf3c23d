//! The `ApplicationProxy`: "An ApplicationProxy object is created at the
//! server for each active application ... This object encapsulates the
//! entire context for the application" (§4.1) — identity, published
//! interface, ACL, cached status, the Daemon servlet's request buffer for
//! compute phases, the steering lock (host authority), the recent update
//! log that poll-mode peers read, and the peers subscribed to its updates:
//! the one record of a hosted application (DESIGN.md §5).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use simnet::NodeId;
use wire::{
    AppDescriptor, AppId, AppOp, AppPhase, AppStatus, DeadlineStamp, FrozenUpdate, InteractionSpec,
    Priority, Privilege, RequestId, ServerAddr, UserId, Value,
};

use crate::locks::SteeringLock;

/// Recent-update log capacity per application (poll-mode peers).
const UPDATE_LOG_CAPACITY: usize = 512;

/// One operation parked in the Daemon servlet's buffer while the
/// application computes, with the deadline stamp it arrived under (if
/// any) so expiry can be checked again at dequeue time.
#[derive(Clone, Debug)]
pub struct BufferedOp {
    /// Request to answer when the operation eventually runs (or is shed).
    pub req: RequestId,
    /// The buffered operation.
    pub op: AppOp,
    /// Deadline stamp carried by the original request, if stamped.
    pub deadline: Option<DeadlineStamp>,
}

impl BufferedOp {
    /// Shedding class, per the paper's command-vs-view split: derived
    /// from the operation itself so unstamped requests still classify.
    pub fn priority(&self) -> Priority {
        Priority::of_op(&self.op)
    }
}

/// Outcome of [`ApplicationProxy::buffer_op`] on a bounded buffer.
#[derive(Debug)]
pub enum BufferPush {
    /// The operation was buffered; nothing was shed.
    Buffered,
    /// The buffer was full: the returned victim (lowest-priority-oldest,
    /// possibly the incoming operation itself) was shed and must be
    /// failed with `Overloaded`.
    Shed(BufferedOp),
}

/// Server-side context of one locally hosted application.
pub struct ApplicationProxy {
    /// Globally unique id.
    pub app: AppId,
    /// Human name from registration.
    pub name: String,
    /// Kind tag from registration.
    pub kind: String,
    /// Simulation node of the application driver.
    pub node: NodeId,
    /// Published interaction interface.
    pub interface: InteractionSpec,
    /// Access-control list, copy-on-write: every §6.3 periodic record
    /// made under it holds the same map, and [`ApplicationProxy::revoke`]
    /// (its only writer) copies it first while a record still does, so a
    /// record keeps the ACL it was granted under.
    pub acl: Rc<HashMap<UserId, Privilege>>,
    /// Owner (record ownership per §6.3): the first Steer-privileged ACL
    /// entry, else a synthetic `"system"` user.
    pub owner: UserId,
    /// Latest status update; its phase is also maintained from
    /// `PhaseChange` messages.
    pub last_status: AppStatus,
    /// Latest sensor readings.
    pub last_readings: Vec<(String, Value)>,
    /// Requests buffered while the application computes (Daemon servlet:
    /// "buffers all client requests and sends them to the application when
    /// the application is in the interaction phase").
    pub buffered: VecDeque<BufferedOp>,
    /// Buffer bound. `None` reproduces the paper's unbounded Daemon
    /// buffer (§6.2 flags its memory cost); `Some(cap)` enables
    /// priority-aware shedding on overflow.
    pub buffer_capacity: Option<usize>,
    /// High-water mark of `buffered` (the E15 queue-peak assertion).
    buffered_peak: usize,
    /// Operations shed from this buffer so far.
    shed_total: u64,
    /// The steering lock — authoritative only here, at the host server.
    pub lock: SteeringLock,
    /// Peer servers subscribed to this application's updates (push
    /// mode), copy-on-write: a `PushToPeers` effect shares the set as it
    /// stood when the update was routed.
    pub(crate) subscribers: Rc<BTreeSet<ServerAddr>>,
    /// Status updates received since registration (or the last
    /// recovery); every `RECORD_EVERY`-th creates a §6.3 data record.
    pub(crate) status_updates: u64,
    update_log: VecDeque<(u64, FrozenUpdate, Option<ServerAddr>)>,
    update_next_seq: u64,
}

impl ApplicationProxy {
    /// Create a proxy at registration time.
    pub fn new(
        app: AppId,
        name: String,
        kind: String,
        node: NodeId,
        interface: InteractionSpec,
        acl_list: Vec<(UserId, Privilege)>,
    ) -> Self {
        let owner = acl_list
            .iter()
            .find(|(_, p)| *p == Privilege::Steer)
            .map(|(u, _)| u.clone())
            .unwrap_or_else(|| UserId::new("system"));
        ApplicationProxy {
            app,
            name,
            kind,
            node,
            interface,
            acl: Rc::new(acl_list.into_iter().collect()),
            owner,
            last_status: AppStatus { phase: AppPhase::Computing, iteration: 0, progress: 0.0 },
            last_readings: Vec::new(),
            buffered: VecDeque::new(),
            buffer_capacity: None,
            buffered_peak: 0,
            shed_total: 0,
            lock: SteeringLock::new(),
            subscribers: Rc::default(),
            status_updates: 0,
            update_log: VecDeque::new(),
            update_next_seq: 0,
        }
    }

    /// Park an operation in the Daemon buffer. Unbounded buffers
    /// (capacity `None`) always accept. A full bounded buffer sheds
    /// lowest-priority-oldest first: the oldest buffered entry whose
    /// class does not outrank the incoming operation's is evicted; when
    /// every buffered entry strictly outranks the incoming operation
    /// (all commands, incoming view), the incoming operation itself is
    /// the victim. FIFO order within each priority class is preserved —
    /// two steering commands are never reordered.
    pub fn buffer_op(
        &mut self,
        req: RequestId,
        op: AppOp,
        deadline: Option<DeadlineStamp>,
    ) -> BufferPush {
        let incoming = BufferedOp { req, op, deadline };
        let mut shed = None;
        if let Some(cap) = self.buffer_capacity {
            if self.buffered.len() >= cap.max(1) {
                // Oldest entry of the lowest class present (front-to-back
                // scan; strict `<` keeps ties on the oldest, unlike
                // `min_by_key`, which returns the last minimum).
                let mut victim_idx = 0;
                for (i, e) in self.buffered.iter().enumerate().skip(1) {
                    if e.priority() < self.buffered[victim_idx].priority() {
                        victim_idx = i;
                    }
                }
                if self.buffered[victim_idx].priority() <= incoming.priority() {
                    shed = self.buffered.remove(victim_idx);
                } else {
                    self.shed_total += 1;
                    return BufferPush::Shed(incoming);
                }
            }
        }
        self.buffered.push_back(incoming);
        self.buffered_peak = self.buffered_peak.max(self.buffered.len());
        match shed {
            Some(victim) => {
                self.shed_total += 1;
                BufferPush::Shed(victim)
            }
            None => BufferPush::Buffered,
        }
    }

    /// High-water mark of the Daemon buffer over the proxy's lifetime.
    pub fn buffered_peak(&self) -> usize {
        self.buffered_peak
    }

    /// Operations shed from the Daemon buffer so far.
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    /// The privilege `user` holds on this application, if any.
    pub fn privilege_of(&self, user: &UserId) -> Option<Privilege> {
        self.acl.get(user).copied()
    }

    /// Revoke `user`'s ACL entry mid-session (the security manager's
    /// dynamic-policy path): their next operation fails second-level
    /// authentication, and a steering lock they hold is force-released so
    /// a de-authorized client cannot keep driving. Returns
    /// `(was_on_acl, lock_was_freed)`.
    pub fn revoke(&mut self, user: &UserId) -> (bool, bool) {
        let had = self.acl.contains_key(user);
        if had {
            Rc::make_mut(&mut self.acl).remove(user);
        }
        let freed = had && self.lock.is_held_by(user) && self.lock.force_release().is_some();
        (had, freed)
    }

    /// Directory descriptor as seen by `user` (None if not on the ACL).
    pub fn descriptor_for(&self, user: &UserId) -> Option<AppDescriptor> {
        let privilege = self.privilege_of(user)?;
        Some(AppDescriptor {
            app: self.app,
            name: self.name.clone(),
            kind: self.kind.clone(),
            status: self.last_status.clone(),
            privilege,
            interface: self.interface.clone(),
        })
    }

    /// Append an update to the bounded recent-update log (read by
    /// poll-mode peers via `PollUpdates`). `origin` is the peer server the
    /// update came from, if any; pollers from that server skip it.
    /// Returns the update's sequence number.
    pub fn push_update(&mut self, update: FrozenUpdate, origin: Option<ServerAddr>) -> u64 {
        let seq = self.update_next_seq;
        self.update_next_seq += 1;
        if self.update_log.len() == UPDATE_LOG_CAPACITY {
            self.update_log.pop_front();
        }
        self.update_log.push_back((seq, update, origin));
        seq
    }

    /// Updates with sequence `>= since` not originated by `exclude`, plus
    /// the next sequence to poll from. Entries evicted from the bounded
    /// log are silently skipped (slow pollers lose the oldest updates,
    /// like slow HTTP clients).
    pub fn updates_since(
        &self,
        since: u64,
        exclude: Option<ServerAddr>,
    ) -> (Vec<FrozenUpdate>, u64) {
        let updates = self
            .update_log
            .iter()
            .filter(|(seq, _, origin)| *seq >= since && (origin.is_none() || *origin != exclude))
            .map(|(_, u, _)| u.clone())
            .collect();
        (updates, self.update_next_seq)
    }

    /// Keep the cached state in sync with a Main-channel update. The
    /// readings are assigned into the vector the proxy already owns.
    pub fn apply_status(&mut self, status: AppStatus, readings: &[(String, Value)]) {
        self.last_status = status;
        wire::assign_readings(&mut self.last_readings, readings);
    }

    /// Forget what only a crashed incarnation knew: the peers' push
    /// subscriptions and the record cadence. Buffered requests stay: each
    /// was archived at admission and its pending op survives the restart.
    pub(crate) fn forget_volatile(&mut self) {
        self.subscribers = Rc::default();
        self.status_updates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{AppCommand, ServerAddr, UpdateBody};

    fn proxy() -> ApplicationProxy {
        ApplicationProxy::new(
            AppId { server: ServerAddr(1), seq: 1 },
            "ipars".into(),
            "oilres".into(),
            NodeId(7),
            InteractionSpec::default(),
            vec![
                (UserId::new("viewer"), Privilege::ReadOnly),
                (UserId::new("driver"), Privilege::Steer),
            ],
        )
    }

    #[test]
    fn owner_is_first_steer_user() {
        let p = proxy();
        assert_eq!(p.owner, UserId::new("driver"));
        let q = ApplicationProxy::new(
            p.app,
            "x".into(),
            "y".into(),
            NodeId(1),
            InteractionSpec::default(),
            vec![(UserId::new("viewer"), Privilege::ReadOnly)],
        );
        assert_eq!(q.owner, UserId::new("system"));
    }

    #[test]
    fn descriptor_respects_acl() {
        let p = proxy();
        let d = p.descriptor_for(&UserId::new("viewer")).unwrap();
        assert_eq!(d.privilege, Privilege::ReadOnly);
        assert!(p.descriptor_for(&UserId::new("stranger")).is_none());
    }

    #[test]
    fn update_log_is_bounded_and_sequenced() {
        let mut p = proxy();
        let pushed = UPDATE_LOG_CAPACITY as u64 + 2;
        for i in 0..pushed {
            let seq = p.push_update(FrozenUpdate::new(UpdateBody::AppClosed { app: p.app }), None);
            assert_eq!(seq, i);
        }
        // Sequences 0 and 1 were evicted.
        let (updates, next) = p.updates_since(0, None);
        assert_eq!(updates.len(), UPDATE_LOG_CAPACITY);
        assert_eq!(next, pushed);
        let (updates, next) = p.updates_since(pushed - 1, None);
        assert_eq!(updates.len(), 1);
        assert_eq!(next, pushed);
        let (updates, _) = p.updates_since(pushed, None);
        assert!(updates.is_empty());
    }

    #[test]
    fn poll_excludes_origin_server() {
        let mut p = proxy();
        p.push_update(FrozenUpdate::new(UpdateBody::AppClosed { app: p.app }), Some(ServerAddr(9)));
        p.push_update(FrozenUpdate::new(UpdateBody::AppClosed { app: p.app }), None);
        let (for_origin, next) = p.updates_since(0, Some(ServerAddr(9)));
        assert_eq!(for_origin.len(), 1, "own update filtered out for its origin");
        assert_eq!(next, 2);
        let (for_other, _) = p.updates_since(0, Some(ServerAddr(8)));
        assert_eq!(for_other.len(), 2);
    }

    #[test]
    fn unbounded_buffer_accepts_everything_and_tracks_peak() {
        let mut p = proxy();
        for i in 0..100 {
            assert!(matches!(
                p.buffer_op(RequestId(i), AppOp::GetStatus, None),
                BufferPush::Buffered
            ));
        }
        assert_eq!(p.buffered.len(), 100);
        assert_eq!(p.buffered_peak(), 100);
        assert_eq!(p.shed_total(), 0);
    }

    #[test]
    fn full_buffer_sheds_lowest_priority_oldest_first() {
        let mut p = proxy();
        p.buffer_capacity = Some(3);
        // Two views then a command.
        p.buffer_op(RequestId(1), AppOp::GetStatus, None);
        p.buffer_op(RequestId(2), AppOp::GetSensors, None);
        p.buffer_op(RequestId(3), AppOp::Command(AppCommand::Pause), None);
        // An incoming view evicts the OLDEST view, not the newer one and
        // not the command.
        match p.buffer_op(RequestId(4), AppOp::GetParam("x".into()), None) {
            BufferPush::Shed(victim) => assert_eq!(victim.req, RequestId(1)),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(p.buffered.len(), 3);
        // An incoming command also evicts the oldest view.
        match p.buffer_op(RequestId(5), AppOp::Command(AppCommand::Resume), None) {
            BufferPush::Shed(victim) => assert_eq!(victim.req, RequestId(2)),
            other => panic!("expected shed, got {other:?}"),
        }
        // Buffer is now [cmd 3, view 4, cmd 5]: FIFO order within each
        // class survives the evictions.
        let order: Vec<u64> = p.buffered.iter().map(|e| e.req.0).collect();
        assert_eq!(order, vec![3, 4, 5]);
        assert_eq!(p.buffered_peak(), 3, "peak never exceeds capacity");
        assert_eq!(p.shed_total(), 2);
    }

    #[test]
    fn incoming_view_is_shed_when_buffer_is_all_commands() {
        let mut p = proxy();
        p.buffer_capacity = Some(2);
        p.buffer_op(RequestId(1), AppOp::Command(AppCommand::Pause), None);
        p.buffer_op(RequestId(2), AppOp::SetParam("x".into(), Value::Int(1)), None);
        match p.buffer_op(RequestId(3), AppOp::GetStatus, None) {
            BufferPush::Shed(victim) => assert_eq!(victim.req, RequestId(3), "incoming shed"),
            other => panic!("expected shed, got {other:?}"),
        }
        let order: Vec<u64> = p.buffered.iter().map(|e| e.req.0).collect();
        assert_eq!(order, vec![1, 2], "commands untouched and unreordered");
        // A full all-command buffer sheds its oldest command for a new one.
        match p.buffer_op(RequestId(4), AppOp::Command(AppCommand::Resume), None) {
            BufferPush::Shed(victim) => assert_eq!(victim.req, RequestId(1)),
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn status_cache_tracks_updates() {
        let mut p = proxy();
        p.apply_status(
            AppStatus { phase: AppPhase::Interacting, iteration: 42, progress: 0.5 },
            &[("t".into(), Value::Int(1))],
        );
        assert_eq!(p.last_status.phase, AppPhase::Interacting);
        assert_eq!(p.last_status.iteration, 42);
        assert_eq!(p.last_readings.len(), 1);
    }
}
