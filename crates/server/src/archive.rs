//! The session archival handler (§5.2.5): two kinds of logs.
//!
//! * **Client logs** record "all interactions between a client(s) and an
//!   application", enabling replay and latecomer catch-up; they live at
//!   the server the client is connected to. A client log never compacts
//!   and nothing folds it, so it is a plain record list whose sequence
//!   numbers are its indices.
//! * **Application logs** record "all requests, responses, and status
//!   messages for each application"; they live at the application's host
//!   server.
//!
//! Application logs additionally carry **periodic state snapshots**
//! ([`wire::ArchiveSnapshot`], every `snapshot_every` appends): the
//! running [`wire::FoldedAppState`] is captured at the segment boundary,
//! so a latecomer catches up from the *nearest snapshot + tail* —
//! bounded by the snapshot interval, not the session length. Closed
//! segments may also be **compacted**: a view-class record (status,
//! parameter value, lock holder) fully superseded by a later record with
//! the same key inside the segment is dropped. Sequence numbers of
//! retained records never change (they become sparse), and the fold of
//! the compacted log is byte-identical to the fold of the full log by
//! construction — the compaction key IS the fold's latest-wins identity.
//! The same archive doubles as the crash-recovery substrate: a
//! restarting host replays its folded state to rebuild proxy/lock state
//! (see `ServerCore::recover_from_archive`).

use std::sync::Arc;

use simnet::SimTime;
use wire::{
    AppId, ArchiveSnapshot, ClientId, FoldedAppState, IdMap, LogEntry, LogRecord, UpdateKey, UserId,
};

use crate::mutation::Mutation;

/// What one application-log append did beyond the append itself
/// (snapshot tick, segment compaction) — the metering observable.
#[derive(Debug, Default, Clone, Copy)]
pub struct ArchiveTick {
    /// A state snapshot was captured at the new segment boundary.
    pub snapshot_taken: bool,
    /// Superseded view-class records dropped from the just-closed
    /// segment.
    pub compacted: u64,
}

/// The latest-wins identity a record competes under inside one segment:
/// a later record with an equal key fully supersedes an earlier one in
/// the fold, so the earlier one may be dropped from a closed segment.
/// An update's identity is its [`wire::UpdateBody::coalesce_key`], the
/// one definition of view identity (a log holds one application, so
/// the key's application part never tells two records apart).
/// `LogEntry::Status` and `UpdateBody::AppStatus` fold different
/// footprints (the update also carries readings), so they compact under
/// distinct keys.
#[derive(PartialEq, Eq, Hash)]
enum CompactKey<'a> {
    /// Periodic `LogEntry::Status` message.
    Status,
    /// A view-class update.
    Update(UpdateKey<'a>),
    /// A client request, under [`Mutation::CompactRequests`] only.
    Request,
}

fn compact_key(record: &LogRecord, mutation: Option<Mutation>) -> Option<CompactKey<'_>> {
    match &record.entry {
        LogEntry::Status(_) => Some(CompactKey::Status),
        LogEntry::Update(u) => u.body().coalesce_key().map(CompactKey::Update),
        LogEntry::Request(_) if mutation == Some(Mutation::CompactRequests) => {
            Some(CompactKey::Request)
        }
        _ => None,
    }
}

/// An application's append-only sequence of log records, with its
/// running fold, an optional snapshot side-index and per-segment
/// compaction.
#[derive(Debug, Default)]
pub struct Log {
    records: Vec<LogRecord>,
    next_seq: u64,
    /// State snapshots at segment boundaries, ascending by `seq`. Each
    /// is written once and shared with every catch-up reply it rides.
    snapshots: Vec<Arc<ArchiveSnapshot>>,
    /// Running fold of every record ever appended (compaction does not
    /// touch it): the state a full replay reconstructs.
    folded: FoldedAppState,
    /// First sequence of the open (not yet compactable) segment.
    segment_start: u64,
    /// Lifetime count of records dropped by compaction.
    compacted: u64,
}

impl Log {
    /// Append an entry, returning its sequence number.
    pub fn append(&mut self, at: SimTime, user: Option<UserId>, entry: LogEntry) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let record = LogRecord { seq, at_us: at.as_micros(), user, entry };
        self.folded.apply(&record);
        self.records.push(record);
        seq
    }

    /// Capture a snapshot at the current boundary (`next_seq`): the
    /// running fold covers exactly the records with `seq < next_seq`.
    fn take_snapshot(&mut self, at: SimTime) {
        self.snapshots.push(Arc::new(ArchiveSnapshot {
            seq: self.next_seq,
            at_us: at.as_micros(),
            state: self.folded.clone(),
        }));
    }

    /// Close the segment `[segment_start, boundary)` and drop every
    /// view-class record superseded by a later same-key record within
    /// it. Returns how many records were dropped.
    fn compact_closed_segment(&mut self, boundary: u64, mutation: Option<Mutation>) -> u64 {
        let start = self.records.partition_point(|r| r.seq < self.segment_start);
        let end = self.records.partition_point(|r| r.seq < boundary);
        let mut seen: std::collections::HashSet<CompactKey> = std::collections::HashSet::new();
        // Walk the segment backward: the LAST record of each key wins,
        // every earlier one is superseded.
        let mut keep: Vec<bool> = vec![true; end - start];
        for i in (start..end).rev() {
            if let Some(key) = compact_key(&self.records[i], mutation) {
                if !seen.insert(key) {
                    keep[i - start] = false;
                }
            }
        }
        let dropped = keep.iter().filter(|k| !**k).count() as u64;
        if dropped > 0 {
            let mut it = keep.into_iter();
            let mut idx = 0usize;
            self.records.retain(|_| {
                let inside = idx >= start && idx < end;
                idx += 1;
                if inside {
                    it.next().unwrap_or(true)
                } else {
                    true
                }
            });
        }
        self.segment_start = boundary;
        self.compacted += dropped;
        dropped
    }

    /// Records with `seq >= since`, plus the sequence to fetch from next.
    pub fn fetch(&self, since: u64) -> (Vec<LogRecord>, u64) {
        let start = self.records.partition_point(|r| r.seq < since);
        (self.records[start..].to_vec(), self.next_seq)
    }

    /// Snapshot-aware catch-up: when a snapshot strictly ahead of
    /// `since` exists, answer with the latest one plus only the tail
    /// behind it — the client adopts the snapshot's folded state and
    /// applies the tail, landing on the same state a full replay folds
    /// to. Otherwise a plain tail fetch from `since`.
    pub fn catch_up(&self, since: u64) -> (Option<Arc<ArchiveSnapshot>>, Vec<LogRecord>, u64) {
        match self.snapshots.iter().rev().find(|s| s.seq > since) {
            Some(snap) => {
                let (records, next_seq) = self.fetch(snap.seq);
                (Some(Arc::clone(snap)), records, next_seq)
            }
            None => {
                let (records, next_seq) = self.fetch(since);
                (None, records, next_seq)
            }
        }
    }

    /// Number of retained records (post-compaction).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The full record slice (replay).
    pub fn all(&self) -> &[LogRecord] {
        &self.records
    }

    /// The snapshot side-index, ascending by boundary sequence.
    pub fn snapshots(&self) -> &[Arc<ArchiveSnapshot>] {
        &self.snapshots
    }

    /// The running fold of everything ever appended.
    pub fn folded(&self) -> &FoldedAppState {
        &self.folded
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime count of records dropped by compaction.
    pub fn compacted(&self) -> u64 {
        self.compacted
    }
}

/// Both archival log families for one server.
#[derive(Debug, Default)]
pub struct ArchiveStore {
    app_logs: IdMap<AppId, Log>,
    /// Each client's own interactions with one application; a record's
    /// `seq` is its index.
    client_logs: IdMap<(ClientId, AppId), Vec<LogRecord>>,
    /// Capture a state snapshot every this many application-log appends
    /// (`None` = snapshots off; catch-up degrades to full prefix replay).
    pub snapshot_every: Option<u64>,
    /// Compact superseded view-class records out of closed segments.
    /// Only meaningful with `snapshot_every` set (segments close at
    /// snapshot boundaries).
    pub compact_closed_segments: bool,
    /// Test-only: [`Mutation::SkipSnapshot`] and
    /// [`Mutation::CompactRequests`] arm their seeded bugs here.
    #[doc(hidden)]
    pub mutation: Option<Mutation>,
}

impl ArchiveStore {
    /// Create an empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append to an application's log (host server only), ticking the
    /// snapshot/compaction machinery at segment boundaries.
    pub fn log_app(
        &mut self,
        app: AppId,
        at: SimTime,
        user: Option<UserId>,
        entry: LogEntry,
    ) -> ArchiveTick {
        let log = self.app_logs.entry(app).or_default();
        log.append(at, user, entry);
        let mut tick = ArchiveTick::default();
        if let Some(every) = self.snapshot_every {
            if every > 0 && log.next_seq.is_multiple_of(every) {
                if self.compact_closed_segments {
                    tick.compacted = log.compact_closed_segment(log.next_seq, self.mutation);
                } else {
                    log.segment_start = log.next_seq;
                }
                if self.mutation != Some(Mutation::SkipSnapshot) {
                    log.take_snapshot(at);
                    tick.snapshot_taken = true;
                }
            }
        }
        tick
    }

    /// Append to a client's interaction log (client's local server).
    pub fn log_client(
        &mut self,
        client: ClientId,
        app: AppId,
        at: SimTime,
        user: Option<UserId>,
        entry: LogEntry,
    ) {
        let log = self.client_logs.entry((client, app)).or_default();
        let seq = log.len() as u64;
        log.push(LogRecord { seq, at_us: at.as_micros(), user, entry });
    }

    /// Fetch application history from `since` (latecomer catch-up; "direct
    /// access to the entire history of the application").
    pub fn fetch_app(&self, app: AppId, since: u64) -> (Vec<LogRecord>, u64) {
        match self.app_logs.get(&app) {
            Some(log) => log.fetch(since),
            None => (Vec::new(), 0),
        }
    }

    /// Fetch a client's own interaction log (replay).
    pub fn fetch_client(&self, client: ClientId, app: AppId, since: u64) -> (Vec<LogRecord>, u64) {
        let log = self.client_logs.get(&(client, app)).map_or(&[][..], Vec::as_slice);
        let start = usize::try_from(since).map_or(log.len(), |since| since.min(log.len()));
        (log[start..].to_vec(), log.len() as u64)
    }

    /// Snapshot-aware catch-up for an application (see [`Log::catch_up`]).
    pub fn catch_up_app(
        &self,
        app: AppId,
        since: u64,
    ) -> (Option<Arc<ArchiveSnapshot>>, Vec<LogRecord>, u64) {
        match self.app_logs.get(&app) {
            Some(log) => log.catch_up(since),
            None => (None, Vec::new(), 0),
        }
    }

    /// The application's log, if one exists (introspection + recovery).
    pub fn app_log(&self, app: AppId) -> Option<&Log> {
        self.app_logs.get(&app)
    }

    /// Applications with at least one archived record, sorted (recovery
    /// iterates this; sorted so restart replay is deterministic).
    pub fn archived_apps(&self) -> Vec<AppId> {
        let mut apps: Vec<AppId> = self.app_logs.keys().copied().collect();
        apps.sort();
        apps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{AppOp, AppPhase, AppStatus, FrozenUpdate, ServerAddr, UpdateBody, Value};

    fn app() -> AppId {
        AppId { server: ServerAddr(1), seq: 1 }
    }
    fn client(seq: u32) -> ClientId {
        ClientId { server: ServerAddr(1), seq }
    }

    /// A deterministic mixed-class entry stream: view-class records that
    /// compact (status, params, lock) interleaved with event-class ones
    /// that never do.
    fn mixed_entry(i: u64) -> LogEntry {
        let a = app();
        match i % 7 {
            0 => LogEntry::Status(AppStatus {
                phase: AppPhase::Computing,
                iteration: i,
                progress: i as f64 * 0.5,
            }),
            1 => LogEntry::Update(FrozenUpdate::new(UpdateBody::ParamChanged {
                app: a,
                name: format!("knob{}", i % 3),
                value: Value::Float(i as f64),
                by: UserId::new("u0"),
            })),
            2 => LogEntry::Update(FrozenUpdate::new(UpdateBody::LockChanged {
                app: a,
                holder: if i.is_multiple_of(2) { Some(UserId::new("u0")) } else { None },
            })),
            3 => LogEntry::Update(FrozenUpdate::new(UpdateBody::AppStatus {
                app: a,
                status: AppStatus {
                    phase: AppPhase::Interacting,
                    iteration: i,
                    progress: i as f64,
                },
                readings: vec![("pressure".into(), Value::Float(i as f64))],
            })),
            4 => LogEntry::Request(AppOp::GetSensors),
            5 => LogEntry::Update(FrozenUpdate::new(UpdateBody::Chat {
                app: a,
                from: UserId::new("u1"),
                text: format!("msg{i}"),
            })),
            _ => LogEntry::Update(FrozenUpdate::new(UpdateBody::MemberJoined {
                app: a,
                user: UserId::new(format!("u{}", i % 4)),
            })),
        }
    }

    #[test]
    fn snapshots_tick_at_the_interval_and_bound_the_tail() {
        let mut store = ArchiveStore { snapshot_every: Some(8), ..ArchiveStore::new() };
        let mut shadow = Vec::new();
        for i in 0..50u64 {
            let entry = mixed_entry(i);
            shadow.push(LogRecord { seq: i, at_us: i * 100, user: None, entry: entry.clone() });
            let tick = store.log_app(app(), SimTime::from_micros(i * 100), None, entry);
            assert_eq!(tick.snapshot_taken, (i + 1) % 8 == 0);
        }
        let log = store.app_log(app()).unwrap();
        assert_eq!(log.snapshots().len(), 50 / 8);
        // Every snapshot is the fold of the full prefix it covers.
        for snap in log.snapshots() {
            assert_eq!(
                wire::codec::encode(&snap.state),
                wire::codec::encode(&FoldedAppState::fold(&shadow[..snap.seq as usize])),
                "snapshot at seq {} must equal the prefix fold",
                snap.seq
            );
        }
        // A fresh latecomer lands on the nearest snapshot + a tail
        // bounded by the interval, never the whole log.
        let (snap, tail, next_seq) = store.catch_up_app(app(), 0);
        let snap = snap.expect("snapshots exist");
        assert_eq!(snap.seq, 48);
        assert!(tail.len() < 8, "tail {} not bounded by the interval", tail.len());
        assert_eq!(next_seq, 50);
        let mut state = snap.state.clone();
        state.apply_all(&tail);
        assert_eq!(
            wire::codec::encode(&state),
            wire::codec::encode(&FoldedAppState::fold(&shadow)),
            "snapshot + tail must fold to the full-replay state"
        );
    }

    #[test]
    fn compaction_drops_superseded_view_records_only() {
        let mut plain = ArchiveStore { snapshot_every: Some(8), ..ArchiveStore::new() };
        let mut compacting = ArchiveStore {
            snapshot_every: Some(8),
            compact_closed_segments: true,
            ..ArchiveStore::new()
        };
        for i in 0..40u64 {
            let at = SimTime::from_micros(i * 100);
            plain.log_app(app(), at, None, mixed_entry(i));
            compacting.log_app(app(), at, None, mixed_entry(i));
        }
        let full = plain.app_log(app()).unwrap();
        let compact = compacting.app_log(app()).unwrap();
        assert!(compact.compacted() > 0, "the mixed stream must compact something");
        assert_eq!(compact.len() as u64 + compact.compacted(), full.len() as u64);
        // Retained sequences are a sparse subsequence of the full log.
        assert!(compact.all().windows(2).all(|w| w[0].seq < w[1].seq));
        // Every event-class record survives.
        for r in full.all() {
            if compact_key(r, None).is_none() {
                assert!(
                    compact.all().iter().any(|c| c.seq == r.seq),
                    "event record seq {} must never be compacted",
                    r.seq
                );
            }
        }
        // Fold invariance: the compacted log folds to the same state.
        assert_eq!(
            wire::codec::encode(&FoldedAppState::fold(compact.all())),
            wire::codec::encode(&FoldedAppState::fold(full.all())),
        );
    }

    #[test]
    fn fault_skip_snapshot_drops_coverage_but_keeps_records() {
        let mut store = ArchiveStore {
            snapshot_every: Some(4),
            mutation: Some(Mutation::SkipSnapshot),
            ..ArchiveStore::new()
        };
        for i in 0..20u64 {
            let tick = store.log_app(app(), SimTime::from_micros(i), None, mixed_entry(i));
            assert!(!tick.snapshot_taken);
        }
        let log = store.app_log(app()).unwrap();
        assert!(log.snapshots().is_empty(), "the fault silently drops every snapshot");
        assert_eq!(log.len(), 20);
    }

    #[test]
    fn sequences_are_monotone_and_fetchable() {
        let mut log = Log::default();
        for i in 0..10u64 {
            let seq = log.append(
                SimTime::from_micros(i * 100),
                None,
                LogEntry::Request(AppOp::GetStatus),
            );
            assert_eq!(seq, i);
        }
        let (records, next) = log.fetch(0);
        assert_eq!(records.len(), 10);
        assert_eq!(next, 10);
        let (records, next) = log.fetch(7);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 7);
        assert_eq!(next, 10);
        let (records, _) = log.fetch(10);
        assert!(records.is_empty());
    }

    #[test]
    fn incremental_catch_up_reconstructs_everything() {
        // A latecomer fetching in pages sees exactly the full history.
        let mut log = Log::default();
        for i in 0..25u64 {
            log.append(SimTime::from_micros(i), None, LogEntry::Request(AppOp::GetSensors));
        }
        let mut got = Vec::new();
        let mut since = 0;
        loop {
            let (page, next) = log.fetch(since);
            if page.is_empty() {
                break;
            }
            // Take at most 7 per "poll" to emulate paging.
            got.extend(page.into_iter().take(7));
            since = got.last().map(|r: &LogRecord| r.seq + 1).unwrap_or(next);
        }
        assert_eq!(got.len(), 25);
        assert!(got.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    mod latecomer_props {
        use super::*;
        use proptest::prelude::*;

        /// One step of an interleaved schedule: the application keeps
        /// producing log entries while the latecomer pages through
        /// catch-up; page sizes are arbitrary.
        #[derive(Clone, Debug)]
        enum Step {
            Append,
            Fetch { page: usize },
        }

        fn steps() -> impl Strategy<Value = Vec<Step>> {
            prop::collection::vec(
                prop_oneof![
                    2 => Just(Step::Append),
                    1 => (1usize..8).prop_map(|page| Step::Fetch { page }),
                ],
                0..64,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Latecomer catch-up equivalence: for ANY interleaving of
            /// live appends and paged catch-up fetches, the records the
            /// latecomer accumulates (catch-up pages + live tail, one
            /// final drain at the end) are exactly the full replay
            /// `Log::all()` — nothing lost, duplicated, or reordered.
            #[test]
            fn paged_catch_up_plus_tail_equals_full_replay(
                pre in 0u64..40,
                schedule in steps(),
            ) {
                let mut log = Log::default();
                let mut t = 0u64;
                let append = |log: &mut Log, t: &mut u64| {
                    log.append(
                        SimTime::from_micros(*t),
                        None,
                        LogEntry::Request(AppOp::GetStatus),
                    );
                    *t += 100;
                };
                // History that exists before the latecomer joins.
                for _ in 0..pre {
                    append(&mut log, &mut t);
                }
                // Interleaved catch-up: pages race with fresh appends.
                let mut got: Vec<LogRecord> = Vec::new();
                let mut since = 0u64;
                for step in schedule {
                    match step {
                        Step::Append => append(&mut log, &mut t),
                        Step::Fetch { page } => {
                            let (records, next) = log.fetch(since);
                            let taken: Vec<_> = records.into_iter().take(page).collect();
                            since = taken.last().map(|r| r.seq + 1).unwrap_or(next);
                            got.extend(taken);
                        }
                    }
                }
                // Final drain (the live tail once the app quiesces).
                let (tail, _) = log.fetch(since);
                got.extend(tail);
                prop_assert_eq!(got.len(), log.all().len());
                prop_assert!(got.iter().zip(log.all()).all(|(a, b)| a == b));
            }
        }
    }

    mod snapshot_props {
        use super::*;
        use proptest::prelude::*;

        /// Drive one store and a shadow full log through the same
        /// append stream.
        fn build(entries: &[u64], every: u64, compact: bool) -> (ArchiveStore, Vec<LogRecord>) {
            let mut store = ArchiveStore {
                snapshot_every: Some(every),
                compact_closed_segments: compact,
                ..ArchiveStore::new()
            };
            let mut shadow = Vec::new();
            for (seq, &i) in entries.iter().enumerate() {
                let entry = mixed_entry(i);
                shadow.push(LogRecord {
                    seq: seq as u64,
                    at_us: seq as u64 * 100,
                    user: None,
                    entry: entry.clone(),
                });
                store.log_app(app(), SimTime::from_micros(seq as u64 * 100), None, entry);
            }
            (store, shadow)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Compacted catch-up equivalence: for ANY append stream and
            /// snapshot interval, with compaction on, (a) every snapshot
            /// is byte-identical to the fold of the full-log prefix it
            /// covers, and (b) catch-up (snapshot + tail) folds
            /// byte-identical to a full-log replay.
            #[test]
            fn compacted_catch_up_folds_byte_identical_to_full_replay(
                entries in prop::collection::vec(0u64..64, 1..96),
                every in 2u64..12,
            ) {
                let (store, shadow) = build(&entries, every, true);
                let log = store.app_log(app()).unwrap();
                for snap in log.snapshots() {
                    prop_assert_eq!(
                        wire::codec::encode(&snap.state),
                        wire::codec::encode(
                            &FoldedAppState::fold(&shadow[..snap.seq as usize])
                        )
                    );
                }
                let (snap, tail, next_seq) = store.catch_up_app(app(), 0);
                let mut state = snap.map(|s| s.state.clone()).unwrap_or_default();
                state.apply_all(&tail);
                prop_assert_eq!(
                    wire::codec::encode(&state),
                    wire::codec::encode(&FoldedAppState::fold(&shadow))
                );
                prop_assert_eq!(next_seq, shadow.len() as u64);
                // Bounded tail: never longer than one open segment.
                if !log.snapshots().is_empty() {
                    prop_assert!((tail.len() as u64) < every);
                }
            }

            /// Snapshot-boundary paging: a catch-up cursor falling
            /// exactly on a snapshot boundary S, or either side of it,
            /// always reconstructs the full-replay state — S-1 rides the
            /// snapshot, S and S+1 get plain tails continuing the
            /// client's own fold.
            #[test]
            fn catch_up_at_and_around_snapshot_boundaries(
                entries in prop::collection::vec(0u64..64, 8..96),
                every in 2u64..12,
            ) {
                let (store, shadow) = build(&entries, every, false);
                let log = store.app_log(app()).unwrap();
                let full = wire::codec::encode(&FoldedAppState::fold(&shadow));
                for snap in log.snapshots() {
                    let boundary = snap.seq;
                    for since in [boundary.saturating_sub(1), boundary, boundary + 1] {
                        let since = since.min(shadow.len() as u64);
                        let (reply_snap, tail, _) = store.catch_up_app(app(), since);
                        // The client already folded its own prefix.
                        let mut state = FoldedAppState::fold(&shadow[..since as usize]);
                        if let Some(s) = &reply_snap {
                            prop_assert!(s.seq > since, "a snapshot at or behind the cursor never helps");
                            state = s.state.clone();
                        }
                        state.apply_all(&tail);
                        prop_assert_eq!(
                            wire::codec::encode(&state),
                            full.clone(),
                            "since={} boundary={}",
                            since,
                            boundary
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn app_and_client_logs_are_separate() {
        let mut store = ArchiveStore::new();
        store.log_app(app(), SimTime::ZERO, None, LogEntry::Request(AppOp::GetStatus));
        store.log_client(
            client(1),
            app(),
            SimTime::ZERO,
            Some(UserId::new("u")),
            LogEntry::Request(AppOp::GetSensors),
        );
        assert_eq!(store.fetch_app(app(), 0).0.len(), 1);
        assert_eq!(store.fetch_client(client(1), app(), 0).0.len(), 1);
        assert_eq!(store.fetch_client(client(2), app(), 0).0.len(), 0);
        let other = AppId { server: ServerAddr(2), seq: 9 };
        assert_eq!(store.fetch_app(other, 0).0.len(), 0);
    }

    #[test]
    fn a_client_log_is_numbered_by_position_and_fetched_from_any_cursor() {
        let mut store = ArchiveStore::new();
        for i in 0..5u64 {
            let entry = LogEntry::Request(AppOp::GetSensors);
            store.log_client(client(1), app(), SimTime::from_micros(i), None, entry);
        }
        let (all, next_seq) = store.fetch_client(client(1), app(), 0);
        assert!(all.iter().enumerate().all(|(i, r)| r.seq == i as u64));
        assert_eq!(next_seq, 5);
        let (tail, next_seq) = store.fetch_client(client(1), app(), 3);
        assert_eq!((tail.as_slice(), next_seq), (&all[3..], 5));
        // At the end or past it: nothing, and the cursor the log ends at.
        for since in [5, 6, u64::MAX] {
            let (records, next_seq) = store.fetch_client(client(1), app(), since);
            assert!(records.is_empty(), "since {since}");
            assert_eq!(next_seq, 5, "since {since}");
        }
        assert_eq!(store.fetch_client(client(2), app(), 7), (Vec::new(), 0));
    }
}
