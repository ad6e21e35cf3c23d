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
//! update still in the queue, scanned linearly: a push per group member
//! per application update is the server's hottest loop, no FIFO in the
//! wall-clock benchmark's workloads or the E1–E20 harness ever holds
//! more than two distinct keys at a time, and comparing a few keys is
//! cheaper than hashing one. The index stores no key: a push compares
//! the new update's borrowed key with the key of the update queued at
//! each indexed sequence, so coalescing allocates nothing. An entry
//! leaves the vector with its update (drain or eviction), so the vector
//! is bounded by the queue length, not by every key ever seen.

use std::collections::VecDeque;

use wire::{ClientMessage, UpdateKey};

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

/// Bounded FIFO of undelivered [`ClientMessage`]s for one client.
#[derive(Debug)]
pub struct FifoBuffer {
    queue: VecDeque<ClientMessage>,
    capacity: usize,
    /// Messages dropped due to overflow since creation.
    dropped: u64,
    /// High-water mark of queue occupancy.
    peak: usize,
    /// Total messages ever accepted (delivered + waiting + dropped +
    /// coalesced).
    enqueued: u64,
    /// Whether view-class updates collapse into latest-wins slots.
    coalesce: bool,
    /// Pushes absorbed by replacing a still-queued superseded update.
    coalesced: u64,
    /// Monotone sequence number of the queue front: entry `i` of
    /// `queue` holds sequence `head_seq + i`. Advanced by every
    /// front-removal (drain or overflow eviction).
    head_seq: u64,
    /// Latest-wins slots: the sequence of each keyed update in the
    /// queue and none for updates that left it, so `index.len() <=
    /// queue.len()`. The key is read off the queued update. Unordered;
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
            coalesced: 0,
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
        let key = if self.coalesce { key_of(&msg) } else { None };
        let keyed = key.is_some();
        if let Some(at) = key.and_then(|key| self.slot_of(key)) {
            self.queue[at] = msg;
            self.coalesced += 1;
            self.enqueued += 1;
            return Pushed::Coalesced;
        }
        let evicted = self.queue.len() == self.capacity;
        if evicted {
            self.queue.pop_front();
            self.advance_head(1);
            self.dropped += 1;
        }
        if keyed {
            self.index.push(self.head_seq + self.queue.len() as u64);
        }
        self.queue.push_back(msg);
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

    /// The queue position of the update holding `key`, compared in
    /// place against each keyed update still queued.
    fn slot_of(&self, key: UpdateKey<'_>) -> Option<usize> {
        self.index
            .iter()
            .map(|&seq| (seq - self.head_seq) as usize)
            .find(|&at| key_of(&self.queue[at]) == Some(key))
    }

    /// The `n` front entries left the queue: move the front sequence past
    /// them and forget the keys they held.
    fn advance_head(&mut self, n: usize) {
        self.head_seq += n as u64;
        let head = self.head_seq;
        self.index.retain(|&seq| seq >= head);
    }

    /// Dequeue up to `max` messages (one poll's worth).
    pub fn drain(&mut self, max: usize) -> Vec<ClientMessage> {
        let n = max.min(self.queue.len());
        let out = self.queue.drain(..n).collect();
        self.advance_head(n);
        out
    }

    /// Dequeue up to `max` messages into a caller-owned scratch buffer
    /// (appending), avoiding the per-poll `Vec` allocation of
    /// [`FifoBuffer::drain`]. Returns the number drained. A nonempty
    /// drain into a buffer that already holds storage (capacity from an
    /// earlier use) is a genuine allocation saved, and is folded into
    /// the codec allocation ledger
    /// ([`wire::codec::CodecStats::drain_reuses`]); a first fill of a
    /// fresh buffer is not counted.
    pub fn drain_into(&mut self, max: usize, out: &mut Vec<ClientMessage>) -> usize {
        let n = max.min(self.queue.len());
        if n > 0 {
            if out.capacity() > 0 {
                wire::codec::note_drain_reuse();
            }
            out.extend(self.queue.drain(..n));
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
    /// coalesced).
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Pushes absorbed by replacing a still-queued superseded view
    /// update (deliveries the poll channel never had to carry).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{ClientMessage, ResponseBody};

    fn msg() -> ClientMessage {
        ClientMessage::Response(ResponseBody::LogoutOk)
    }

    #[test]
    fn fifo_order_and_drain_cap() {
        let mut buf = FifoBuffer::new(10);
        for _ in 0..5 {
            buf.push(msg());
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.drain(3).len(), 3);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.drain(10).len(), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        use wire::{UpdateBody, AppId, ServerAddr};
        let mut buf = FifoBuffer::new(3);
        for i in 0..5u32 {
            buf.push(ClientMessage::update(UpdateBody::AppClosed {
                app: AppId { server: ServerAddr(0), seq: i },
            }));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        assert_eq!(buf.enqueued(), 5);
        let drained = buf.drain(3);
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
        buf.drain(7);
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
            status: wire::AppStatus {
                phase: wire::AppPhase::Computing,
                iteration,
                progress: 0.0,
            },
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
        buf.push(status(0, 1));
        buf.push(chat("hello"));
        buf.push(status(0, 2)); // supersedes iteration 1 in its slot
        buf.push(status(0, 3)); // supersedes iteration 2
        assert_eq!(buf.len(), 2, "two slots: the status slot and the chat line");
        assert_eq!(buf.coalesced(), 2);
        assert_eq!(buf.enqueued(), 4);
        let drained = buf.drain(10);
        assert_eq!(iteration_of(&drained[0]), 3, "slot keeps its position, latest value");
        assert!(matches!(
            &drained[1],
            ClientMessage::Update(u) if matches!(u.body(), UpdateBody::Chat { .. })
        ));
    }

    #[test]
    fn distinct_keys_never_coalesce() {
        let mut buf = FifoBuffer::with_coalescing(10, true);
        buf.push(status(0, 1));
        buf.push(status(1, 1)); // different app -> different slot
        buf.push(param("alpha", 0.5));
        buf.push(param("beta", 0.25)); // different param name -> different slot
        buf.push(param("alpha", 0.75)); // same slot as the first alpha
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.coalesced(), 1);
    }

    #[test]
    fn command_class_never_coalesces() {
        use wire::AppCommand;
        let mut buf = FifoBuffer::with_coalescing(10, true);
        for _ in 0..3 {
            buf.push(ClientMessage::update(UpdateBody::CommandApplied {
                app: app(0),
                command: AppCommand::Checkpoint,
                by: UserId::new("steerer"),
            }));
            buf.push(msg()); // Response class
        }
        assert_eq!(buf.len(), 6, "commands and responses all queue individually");
        assert_eq!(buf.coalesced(), 0);
    }

    #[test]
    fn delivered_key_opens_a_fresh_slot() {
        let mut buf = FifoBuffer::with_coalescing(10, true);
        buf.push(status(0, 1));
        assert_eq!(buf.drain(10).len(), 1);
        // The slot left the queue; the next status must enqueue anew,
        // not write through a stale index entry.
        buf.push(status(0, 2));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.coalesced(), 0);
        assert_eq!(iteration_of(&buf.drain(10)[0]), 2);
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
        let drained = buf.drain(10);
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
                buf.drain(3);
            }
            if i % 1000 == 999 {
                buf.drain(usize::MAX);
            }
            assert!(buf.index.len() <= buf.queue.len(), "after key {i}");
        }
        assert!(buf.index.capacity() <= 16, "the index never outgrows the queue's capacity");
    }

    #[test]
    fn coalescing_off_preserves_every_update() {
        let mut buf = FifoBuffer::new(10);
        buf.push(status(0, 1));
        buf.push(status(0, 2));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.coalesced(), 0);
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
        assert_eq!(wire::codec::stats().drain_reuses, 0, "first fill of a fresh buffer is not a reuse");
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
}
