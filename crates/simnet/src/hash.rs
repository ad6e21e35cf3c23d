//! A hasher for keys this program issued itself.

use std::hash::Hasher;

/// Multiply-rotate over a key's words, for tables keyed by ids the
/// program issued itself (node ids, which the engine hands out in order;
/// `wire`'s client, application and request ids). Such keys cannot be
/// crafted to collide, so a lookup costs one multiply per word instead
/// of a SipHash — and the state is fixed, so iteration order repeats
/// between processes. A `u16`, `u32` or `u64` goes in as one word;
/// anything else a byte per word. Never key a table by anything a client
/// chose with it.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

// Inlined across crates: `wire::IdMap` and the server's tables probe
// with it on every lookup.
impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.write_u64(word.into());
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        // The odd multiplier spreads a count's low bits over the high
        // ones the table takes its tags from.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
