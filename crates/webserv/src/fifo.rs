//! Per-client FIFO poll buffers.
//!
//! Because HTTP is request-response, the server cannot push updates; it
//! parks them in a per-client FIFO until the client's next poll (the
//! paper: "The poll and pull mechanism makes it necessary to maintain
//! FIFO buffers at the server for each client to support slow clients",
//! §6.2, with explicit memory/performance overhead concerns). Buffers are
//! bounded; overflow drops the *oldest* entries (a slow client loses
//! stale updates first) and counts the loss.
//!
//! # Update coalescing
//!
//! The paper's command-vs-view split means only view-class updates may
//! be collapsed: a steering command must arrive exactly as issued, but a
//! periodic status snapshot only matters in its latest version. With
//! coalescing enabled ([`FifoBuffer::with_coalescing`]), a pushed update
//! whose [`UpdateKey`] matches a still-queued entry *replaces that entry
//! in its slot* instead of enqueuing behind it — the slow client's next
//! poll carries the freshest state in the superseded update's queue
//! position. Responses, errors and key-less (event-class) updates are
//! never coalesced, and the queue order of everything else is untouched,
//! so FIFO-within-class delivery is preserved by construction.
//!
//! The index is a small vector holding the queue sequence of each keyed
//! update still in the queue, scanned linearly: no FIFO in the
//! wall-clock benchmark's workloads or the E1–E20 harness ever holds
//! more than two distinct keys at a time, and comparing a few keys is
//! cheaper than hashing one. The index stores no key: a push compares
//! the new update's borrowed key with the key of the update queued at
//! each indexed sequence, so coalescing allocates nothing. An entry
//! leaves the vector with its update (drain or eviction), so the vector
//! is bounded by the queue length, not by every key ever seen.
//!
//! # One write for every FIFO that holds the key
//!
//! Pushing a view-class group broadcast into every member's FIFO would,
//! on a slow group, mostly swap one queued value for the next in slots
//! nobody has polled yet. A [`Latest`] is that slot shared: the
//! application's newest value for one key, written once per update. A FIFO entry is either a
//! message or a *handle* to a [`Latest`] ([`FifoBuffer::push_latest`]);
//! the coalesce index finds either by key, so pushing onto a handle's
//! key replaces it in place like any queued update, and a poll turns a
//! handle into the value it reads at that moment. Each handle records
//! the [`Latest`]'s version when it was queued: every later write stands
//! for one coalesced push into its FIFO, and [`FifoBuffer::enqueued`]
//! counts them, so the FIFO's counters read as if each write had been
//! pushed. A handle that leaves its FIFO (polled, evicted, overwritten,
//! or turned private by [`FifoBuffer::detach`]) puts its holder back on
//! the [`Latest`]'s pending list: the clients the next write must still
//! be pushed to.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::mem::size_of;
use std::rc::Rc;

use wire::{ClientId, ClientMessage, FrozenUpdate, UpdateKey};

/// What one [`FifoBuffer::push_with_outcome`] did with the message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pushed {
    /// Appended at the back; `peak_rose` when that set a new high-water
    /// mark.
    Appended {
        /// The queue is longer than it has ever been.
        peak_rose: bool,
    },
    /// Replaced the queued update with the same coalesce key, in its
    /// slot.
    Coalesced,
    /// Appended after evicting the oldest entry of a full queue (which
    /// cannot raise the peak: it already equals the capacity).
    EvictedOldest,
}

/// The coalesce key of a queued or pushed message, if it has one.
fn key_of(msg: &ClientMessage) -> Option<UpdateKey<'_>> {
    match msg {
        ClientMessage::Update(u) => u.coalesce_key(),
        _ => None,
    }
}

/// The newest value of one view-class key, shared by every FIFO that
/// queues a handle to it, and the clients that hold no such handle.
///
/// Its owner (the collaboration handler) writes each new value once
/// with [`Latest::set`], pushes a handle to the pending clients that
/// should see it, and keeps the pending list to its group's members
/// with [`Latest::add_pending`] and [`Latest::forget`]. Every handle
/// holder must be a recipient of every write: a holder that stops
/// being one is [`FifoBuffer::detach`]ed first.
#[derive(Debug)]
pub struct Latest {
    current: RefCell<FrozenUpdate>,
    /// Values written so far; a handle queued at version `v` has
    /// absorbed `version - v` of them.
    version: Cell<u64>,
    /// Handles queued in FIFOs right now.
    holders: Cell<u64>,
    /// Clients holding no handle, in no particular order.
    pending: RefCell<Vec<ClientId>>,
}

impl Latest {
    /// A slot holding `update`, with no holders and `pending` waiting
    /// for the first handle. `update` must have a coalesce key.
    pub fn new(update: FrozenUpdate, pending: Vec<ClientId>) -> Rc<Latest> {
        debug_assert!(update.coalesce_key().is_some(), "only a view-class update is shared");
        Rc::new(Latest {
            current: RefCell::new(update),
            version: Cell::new(0),
            holders: Cell::new(0),
            pending: RefCell::new(pending),
        })
    }

    /// The newest value.
    fn current(&self) -> FrozenUpdate {
        self.current.borrow().clone()
    }

    /// True if `update` supersedes this slot's value.
    pub fn holds_key_of(&self, update: &FrozenUpdate) -> bool {
        let key = update.coalesce_key();
        key.is_some() && self.current.borrow().coalesce_key() == key
    }

    /// Write `update` as the value every queued handle now reads. Returns
    /// the number of holders: the coalesced pushes it stands for.
    pub fn set(&self, update: FrozenUpdate) -> u64 {
        *self.current.borrow_mut() = update;
        self.version.set(self.version.get() + 1);
        self.holders.get()
    }

    /// Handles queued in FIFOs right now.
    pub fn holders(&self) -> u64 {
        self.holders.get()
    }

    /// The clients holding no handle, taken out to be walked; give back
    /// the ones still pending with [`Latest::restore_pending`].
    pub fn take_pending(&self) -> Vec<ClientId> {
        std::mem::take(&mut *self.pending.borrow_mut())
    }

    /// Put back what [`Latest::take_pending`] took, beside any client a
    /// handle released meanwhile.
    pub fn restore_pending(&self, mut kept: Vec<ClientId>) {
        let mut pending = self.pending.borrow_mut();
        kept.append(&mut pending);
        *pending = kept;
    }

    /// `client` joined the group: it holds no handle yet.
    pub fn add_pending(&self, client: ClientId) {
        self.pending.borrow_mut().push(client);
    }

    /// `client` left the group (and holds no handle): forget it.
    pub fn forget(&self, client: ClientId) {
        self.pending.borrow_mut().retain(|c| *c != client);
    }
}

/// One queued handle to a [`Latest`]: who holds it, and the version it
/// was queued at.
#[derive(Debug)]
struct Held {
    slot: Rc<Latest>,
    holder: ClientId,
    since: u64,
}

impl Held {
    /// The writes this handle absorbed after it was queued.
    fn absorbed(&self) -> u64 {
        self.slot.version.get() - self.since
    }
}

// `pending` is never borrowed across a call out of `Latest`'s methods,
// so no handle can be dropped while it is: the borrow cannot fail.
impl Drop for Held {
    fn drop(&mut self) {
        self.slot.holders.set(self.slot.holders.get() - 1);
        self.slot.pending.borrow_mut().push(self.holder);
    }
}

/// One queued entry: a message of its own, or a handle that reads the
/// newest value of a shared key when it is polled.
#[derive(Debug)]
enum Entry {
    Message(ClientMessage),
    Latest(Held),
}

// A FIFO of plain messages is no wider for the handles it may hold.
const _: () = assert!(size_of::<Entry>() == size_of::<ClientMessage>());

impl Entry {
    /// Call `f` with the entry's coalesce key.
    fn with_key<R>(&self, f: impl FnOnce(Option<UpdateKey<'_>>) -> R) -> R {
        match self {
            Entry::Message(msg) => f(key_of(msg)),
            Entry::Latest(held) => f(held.slot.current.borrow().coalesce_key()),
        }
    }

    fn has_key(&self, key: UpdateKey<'_>) -> bool {
        self.with_key(|own| own == Some(key))
    }

    /// The message this entry delivers, adding what a handle absorbed
    /// to `enqueued`.
    fn into_message(self, enqueued: &mut u64) -> ClientMessage {
        match self {
            Entry::Message(msg) => msg,
            Entry::Latest(held) => {
                *enqueued += held.absorbed();
                ClientMessage::Update(held.slot.current())
            }
        }
    }
}

/// Bounded FIFO of undelivered [`ClientMessage`]s for one client.
#[derive(Debug)]
pub struct FifoBuffer {
    queue: VecDeque<Entry>,
    capacity: usize,
    /// Messages dropped due to overflow since creation.
    dropped: u64,
    /// High-water mark of queue occupancy.
    peak: usize,
    /// Total messages ever accepted (delivered + waiting + dropped +
    /// coalesced), but for the writes queued handles absorbed so far.
    enqueued: u64,
    /// Whether view-class updates collapse into latest-wins slots.
    coalesce: bool,
    /// Monotone sequence number of the queue front: entry `i` of
    /// `queue` holds sequence `head_seq + i`. Advanced by every
    /// front-removal (drain or overflow eviction).
    head_seq: u64,
    /// Latest-wins slots: the sequence of each keyed entry in the queue
    /// and none for entries that left it, so `index.len() <=
    /// queue.len()`. The key is read off the queued entry. Unordered;
    /// scanned linearly.
    index: Vec<u64>,
}

impl FifoBuffer {
    /// Create a buffer holding at most `capacity` messages, with
    /// view-update coalescing off (every accepted message is delivered).
    pub fn new(capacity: usize) -> Self {
        FifoBuffer::with_coalescing(capacity, false)
    }

    /// Create a buffer holding at most `capacity` messages; when
    /// `coalesce` is set, view-class updates collapse into latest-wins
    /// slots keyed by [`UpdateKey`].
    pub fn with_coalescing(capacity: usize, coalesce: bool) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        FifoBuffer {
            queue: VecDeque::new(),
            capacity,
            dropped: 0,
            peak: 0,
            enqueued: 0,
            coalesce,
            head_seq: 0,
            index: Vec::new(),
        }
    }

    /// Enqueue a message, evicting the oldest on overflow.
    ///
    /// With coalescing on, a view-class update whose key is still queued
    /// replaces the superseded update in place (same queue position, no
    /// growth); commands, responses, errors and event-class updates
    /// always append.
    pub fn push(&mut self, msg: ClientMessage) {
        self.push_with_outcome(msg);
    }

    /// [`FifoBuffer::push`], saying what it did: appended (and whether
    /// that raised the peak), coalesced, or evicted the oldest entry.
    pub fn push_with_outcome(&mut self, msg: ClientMessage) -> Pushed {
        self.push_entry(Entry::Message(msg))
    }

    /// Queue a handle to `slot` for `holder`, exactly as a push of its
    /// current value would be queued; from then on every
    /// [`Latest::set`] reaches this FIFO without a push. `holder` must
    /// hold no handle to `slot` yet; taking it off the slot's pending
    /// list is the caller's part.
    pub fn push_latest(&mut self, slot: &Rc<Latest>, holder: ClientId) -> Pushed {
        slot.holders.set(slot.holders.get() + 1);
        let since = slot.version.get();
        self.push_entry(Entry::Latest(Held { slot: Rc::clone(slot), holder, since }))
    }

    fn push_entry(&mut self, entry: Entry) -> Pushed {
        let (keyed, at) = entry.with_key(|key| match key {
            Some(key) if self.coalesce => (true, self.slot_of(key)),
            _ => (false, None),
        });
        if let Some(at) = at {
            let superseded = std::mem::replace(&mut self.queue[at], entry);
            self.retire(superseded);
            self.enqueued += 1;
            return Pushed::Coalesced;
        }
        let oldest = if self.queue.len() == self.capacity { self.queue.pop_front() } else { None };
        let evicted = oldest.is_some();
        if let Some(oldest) = oldest {
            self.retire(oldest);
            self.advance_head(1);
            self.dropped += 1;
        }
        if keyed {
            self.index.push(self.head_seq + self.queue.len() as u64);
        }
        self.queue.push_back(entry);
        self.enqueued += 1;
        if evicted {
            return Pushed::EvictedOldest;
        }
        let peak_rose = self.queue.len() > self.peak;
        if peak_rose {
            self.peak = self.queue.len();
        }
        Pushed::Appended { peak_rose }
    }

    /// An entry left the queue undelivered: count what its handle
    /// absorbed.
    fn retire(&mut self, entry: Entry) {
        if let Entry::Latest(held) = entry {
            self.enqueued += held.absorbed();
        }
    }

    /// Turn the queued handle to `slot`, if there is one, into a message
    /// of its current value in the same place, so later writes no longer
    /// reach it; the holder goes back on the slot's pending list.
    /// Returns whether a handle was queued.
    pub fn detach(&mut self, slot: &Rc<Latest>) -> bool {
        let held = |entry: &Entry| matches!(entry, Entry::Latest(h) if Rc::ptr_eq(&h.slot, slot));
        let found = self
            .index
            .iter()
            .map(|&seq| (seq - self.head_seq) as usize)
            .find(|&at| held(&self.queue[at]));
        let Some(at) = found else { return false };
        let private = Entry::Message(ClientMessage::Update(slot.current()));
        let handle = std::mem::replace(&mut self.queue[at], private);
        self.retire(handle);
        true
    }

    /// The queue position of the update holding `key`, compared in
    /// place against each keyed update still queued.
    fn slot_of(&self, key: UpdateKey<'_>) -> Option<usize> {
        self.index
            .iter()
            .map(|&seq| (seq - self.head_seq) as usize)
            .find(|&at| self.queue[at].has_key(key))
    }

    /// The `n` front entries left the queue: move the front sequence past
    /// them and forget the keys they held.
    fn advance_head(&mut self, n: usize) {
        self.head_seq += n as u64;
        let head = self.head_seq;
        self.index.retain(|&seq| seq >= head);
    }

    /// Dequeue up to `max` messages (one poll's worth) into a
    /// caller-owned scratch buffer (appending), so a poll allocates no
    /// `Vec` of its own; a handle is delivered as the value it reads
    /// now. Returns the number drained. A nonempty drain into a buffer
    /// that already holds storage (capacity from an earlier use) is a
    /// genuine allocation saved, and is folded into the codec
    /// allocation ledger ([`wire::codec::CodecStats::drain_reuses`]); a
    /// first fill of a fresh buffer is not counted.
    pub fn drain_into(&mut self, max: usize, out: &mut Vec<ClientMessage>) -> usize {
        let n = max.min(self.queue.len());
        if n > 0 {
            if out.capacity() > 0 {
                wire::codec::note_drain_reuse();
            }
            let enqueued = &mut self.enqueued;
            out.extend(self.queue.drain(..n).map(|entry| entry.into_message(enqueued)));
            self.advance_head(n);
        }
        n
    }

    /// Messages currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Messages lost to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total messages ever accepted (delivered + waiting + dropped +
    /// coalesced), each write a queued handle absorbed among them.
    pub fn enqueued(&self) -> u64 {
        let absorbed =
            self.index.iter().map(|&seq| match &self.queue[(seq - self.head_seq) as usize] {
                Entry::Latest(held) => held.absorbed(),
                Entry::Message(_) => 0,
            });
        self.enqueued + absorbed.sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{ClientMessage, ResponseBody};

    fn msg() -> ClientMessage {
        ClientMessage::Response(ResponseBody::LogoutOk)
    }

    /// Dequeue up to `max` messages into a fresh `Vec`.
    fn drain(buf: &mut FifoBuffer, max: usize) -> Vec<ClientMessage> {
        let mut out = Vec::new();
        buf.drain_into(max, &mut out);
        out
    }

    #[test]
    fn fifo_order_and_drain_cap() {
        let mut buf = FifoBuffer::new(10);
        for _ in 0..5 {
            buf.push(msg());
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(drain(&mut buf, 3).len(), 3);
        assert_eq!(buf.len(), 2);
        assert_eq!(drain(&mut buf, 10).len(), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        use wire::{AppId, ServerAddr, UpdateBody};
        let mut buf = FifoBuffer::new(3);
        for i in 0..5u32 {
            buf.push(ClientMessage::update(UpdateBody::AppClosed {
                app: AppId { server: ServerAddr(0), seq: i },
            }));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        assert_eq!(buf.enqueued(), 5);
        let drained = drain(&mut buf, 3);
        // The two oldest (seq 0, 1) were evicted; 2, 3, 4 remain in order.
        let seqs: Vec<u32> = drained
            .iter()
            .map(|m| match m {
                ClientMessage::Update(u) => match u.body() {
                    UpdateBody::AppClosed { app } => app.seq,
                    _ => unreachable!(),
                },
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut buf = FifoBuffer::new(100);
        for _ in 0..7 {
            buf.push(msg());
        }
        drain(&mut buf, 7);
        for _ in 0..3 {
            buf.push(msg());
        }
        assert_eq!(buf.peak(), 7);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        FifoBuffer::new(0);
    }

    use wire::{AppId, ServerAddr, UpdateBody, UserId, Value};

    fn app(seq: u32) -> AppId {
        AppId { server: ServerAddr(0), seq }
    }

    fn status(app_seq: u32, iteration: u64) -> ClientMessage {
        ClientMessage::update(UpdateBody::AppStatus {
            app: app(app_seq),
            status: wire::AppStatus { phase: wire::AppPhase::Computing, iteration, progress: 0.0 },
            readings: Vec::new(),
        })
    }

    fn param(name: &str, v: f64) -> ClientMessage {
        ClientMessage::update(UpdateBody::ParamChanged {
            app: app(0),
            name: name.into(),
            value: Value::Float(v),
            by: UserId::new("steerer"),
        })
    }

    fn chat(text: &str) -> ClientMessage {
        ClientMessage::update(UpdateBody::Chat {
            app: app(0),
            from: UserId::new("u"),
            text: text.into(),
        })
    }

    /// Push every message, counting the pushes that coalesced.
    fn push_all(buf: &mut FifoBuffer, msgs: impl IntoIterator<Item = ClientMessage>) -> usize {
        let outcomes = msgs.into_iter().map(|m| buf.push_with_outcome(m));
        outcomes.filter(|o| *o == Pushed::Coalesced).count()
    }

    fn iteration_of(m: &ClientMessage) -> u64 {
        match m {
            ClientMessage::Update(u) => match u.body() {
                UpdateBody::AppStatus { status, .. } => status.iteration,
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn coalescing_replaces_superseded_update_in_place() {
        let mut buf = FifoBuffer::with_coalescing(10, true);
        let pushes = [
            status(0, 1),
            chat("hello"),
            status(0, 2), // supersedes iteration 1 in its slot
            status(0, 3), // supersedes iteration 2
        ];
        let coalesced = push_all(&mut buf, pushes);
        assert_eq!(buf.len(), 2, "two slots: the status slot and the chat line");
        assert_eq!(coalesced, 2);
        assert_eq!(buf.enqueued(), 4);
        let drained = drain(&mut buf, 10);
        assert_eq!(iteration_of(&drained[0]), 3, "slot keeps its position, latest value");
        assert!(matches!(
            &drained[1],
            ClientMessage::Update(u) if matches!(u.body(), UpdateBody::Chat { .. })
        ));
    }

    #[test]
    fn distinct_keys_never_coalesce() {
        let mut buf = FifoBuffer::with_coalescing(10, true);
        let pushes = [
            status(0, 1),
            status(1, 1), // different app -> different slot
            param("alpha", 0.5),
            param("beta", 0.25),  // different param name -> different slot
            param("alpha", 0.75), // same slot as the first alpha
        ];
        let coalesced = push_all(&mut buf, pushes);
        assert_eq!(buf.len(), 4);
        assert_eq!(coalesced, 1);
    }

    #[test]
    fn command_class_never_coalesces() {
        use wire::AppCommand;
        let mut buf = FifoBuffer::with_coalescing(10, true);
        let command = ClientMessage::update(UpdateBody::CommandApplied {
            app: app(0),
            command: AppCommand::Checkpoint,
            by: UserId::new("steerer"),
        });
        // Response class between the commands.
        let coalesced = push_all(&mut buf, [command, msg()].into_iter().cycle().take(6));
        assert_eq!(buf.len(), 6, "commands and responses all queue individually");
        assert_eq!(coalesced, 0);
    }

    #[test]
    fn delivered_key_opens_a_fresh_slot() {
        let mut buf = FifoBuffer::with_coalescing(10, true);
        buf.push(status(0, 1));
        assert_eq!(drain(&mut buf, 10).len(), 1);
        // The slot left the queue; the next status must enqueue anew,
        // not write through a stale index entry.
        assert_eq!(push_all(&mut buf, [status(0, 2)]), 0);
        assert_eq!(buf.len(), 1);
        assert_eq!(iteration_of(&drain(&mut buf, 10)[0]), 2);
    }

    #[test]
    fn evicted_key_opens_a_fresh_slot() {
        let mut buf = FifoBuffer::with_coalescing(2, true);
        buf.push(status(0, 1));
        buf.push(chat("a"));
        buf.push(chat("b")); // overflow evicts the status slot
        assert_eq!(buf.dropped(), 1);
        buf.push(status(0, 2)); // stale index entry must not be written
        assert_eq!(buf.dropped(), 2, "full again: the oldest chat line went");
        let drained = drain(&mut buf, 10);
        assert_eq!(drained.len(), 2);
        assert_eq!(iteration_of(&drained[1]), 2);
    }

    #[test]
    fn index_is_bounded_by_the_queue_not_by_keys_seen() {
        let mut buf = FifoBuffer::with_coalescing(8, true);
        for i in 0..10_000u32 {
            buf.push(param(&format!("p{i}"), 0.0));
            if i % 5 == 0 {
                buf.push(chat("between"));
            }
            if i % 7 == 0 {
                drain(&mut buf, 3);
            }
            if i % 1000 == 999 {
                drain(&mut buf, usize::MAX);
            }
            assert!(buf.index.len() <= buf.queue.len(), "after key {i}");
        }
        assert!(buf.index.capacity() <= 16, "the index never outgrows the queue's capacity");
    }

    #[test]
    fn coalescing_off_preserves_every_update() {
        let mut buf = FifoBuffer::new(10);
        assert_eq!(push_all(&mut buf, [status(0, 1), status(0, 2)]), 0);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn drain_into_appends_and_counts() {
        wire::codec::reset_stats();
        let mut buf = FifoBuffer::new(10);
        for _ in 0..5 {
            buf.push(msg());
        }
        let mut scratch = Vec::new();
        assert_eq!(buf.drain_into(3, &mut scratch), 3);
        assert_eq!(scratch.len(), 3);
        assert_eq!(
            wire::codec::stats().drain_reuses,
            0,
            "first fill of a fresh buffer is not a reuse"
        );
        assert_eq!(buf.drain_into(10, &mut scratch), 2);
        assert_eq!(scratch.len(), 5, "drain_into appends");
        assert_eq!(buf.drain_into(10, &mut scratch), 0, "empty drain is free");
        assert_eq!(wire::codec::stats().drain_reuses, 1, "only primed nonempty drains count");
        scratch.clear();
        assert_eq!(buf.drain_into(10, &mut scratch), 0);
        buf.push(msg());
        assert_eq!(buf.drain_into(10, &mut scratch), 1);
        assert_eq!(wire::codec::stats().drain_reuses, 2, "cleared scratch keeps its storage");
    }

    fn client(seq: u32) -> ClientId {
        ClientId { server: ServerAddr(0), seq }
    }

    fn frozen(app_seq: u32, iteration: u64) -> FrozenUpdate {
        match status(app_seq, iteration) {
            ClientMessage::Update(update) => update,
            other => unreachable!("{other:?}"),
        }
    }

    fn pending(slot: &Latest) -> Vec<ClientId> {
        slot.pending.borrow().clone()
    }

    #[test]
    fn a_handle_reads_the_newest_value_and_counts_every_write() {
        let slot = Latest::new(frozen(0, 1), vec![client(1)]);
        let mut buf = FifoBuffer::with_coalescing(4, true);
        buf.push(chat("a"));
        assert_eq!(buf.push_latest(&slot, client(1)), Pushed::Appended { peak_rose: true });
        slot.take_pending();
        assert_eq!(slot.holders(), 1);
        assert_eq!((slot.set(frozen(0, 2)), slot.set(frozen(0, 3))), (1, 1));
        // Two pushes and two writes the handle absorbed, in one slot.
        assert_eq!((buf.len(), buf.enqueued()), (2, 4));
        let drained = drain(&mut buf, 10);
        assert_eq!(iteration_of(&drained[1]), 3, "the value at the poll, in the handle's place");
        assert_eq!(buf.enqueued(), 4, "a polled handle keeps its count");
        assert_eq!((slot.holders(), pending(&slot)), (0, vec![client(1)]));
        assert_eq!(slot.set(frozen(0, 4)), 0, "a polled FIFO is not written");
        assert_eq!(buf.enqueued(), 4);
    }

    #[test]
    fn a_handle_coalesces_and_is_evicted_like_the_update_it_stands_for() {
        let slot = Latest::new(frozen(0, 2), Vec::new());
        let mut buf = FifoBuffer::with_coalescing(3, true);
        // Onto a private copy of the key: in its place.
        push_all(&mut buf, [status(0, 1), chat("a")]);
        assert_eq!(buf.push_latest(&slot, client(1)), Pushed::Coalesced);
        slot.set(frozen(0, 3));
        // A plain push onto the handle replaces it and lets its holder go.
        assert_eq!(push_all(&mut buf, [status(0, 9)]), 1);
        assert_eq!((slot.holders(), pending(&slot)), (0, vec![client(1)]));
        assert_eq!(slot.set(frozen(0, 4)), 0);
        assert_eq!(iteration_of(&drain(&mut buf, 1)[0]), 9);
        // Overflow evicts a handle as it would the update.
        slot.take_pending();
        buf.push_latest(&slot, client(1));
        slot.set(frozen(0, 5));
        push_all(&mut buf, [chat("b"), chat("c")]);
        assert_eq!(buf.dropped(), 1, "the chat line queued before the handle");
        push_all(&mut buf, [chat("d")]);
        assert_eq!((buf.dropped(), pending(&slot)), (2, vec![client(1)]));
        // Every push and every absorbed write is accounted for:
        // delivered 1 + dropped 2 + queued 3 + coalesced 4 (two pushes,
        // two writes).
        assert_eq!(buf.enqueued(), 10);
    }

    #[test]
    fn a_detached_handle_keeps_the_value_it_read() {
        let slot = Latest::new(frozen(0, 1), Vec::new());
        let mut buf = FifoBuffer::with_coalescing(4, true);
        assert!(!buf.detach(&slot), "nothing to detach");
        buf.push_latest(&slot, client(1));
        slot.set(frozen(0, 2));
        assert!(buf.detach(&slot));
        assert_eq!((slot.holders(), pending(&slot)), (0, vec![client(1)]));
        assert_eq!(slot.set(frozen(0, 3)), 0);
        assert_eq!(buf.enqueued(), 2, "the push and the write it absorbed");
        // Still keyed: the next status coalesces into the private copy.
        assert_eq!(push_all(&mut buf, [status(0, 4)]), 1);
        assert_eq!(iteration_of(&drain(&mut buf, 10)[0]), 4);
    }
}
