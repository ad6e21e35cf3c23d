//! Shared broadcast payloads: encode once, fan out cheaply.
//!
//! The collaboration handler broadcasts every steering update to all N
//! local group members and pushes it to all M subscribed peer servers.
//! Carrying a plain [`UpdateBody`] in each outgoing message costs a deep
//! clone per target plus a full DBP serializer walk per message (every
//! containing frame's `wire_size()` re-traverses the update).
//!
//! [`FrozenUpdate`] fixes both: the body is serialized to DBP bytes
//! exactly once at creation, and a clone shares both halves. Its
//! [`Dbp`] impl handles its own bytes. Walking a message that contains
//! one (to encode, size or digest it) puts the frozen bytes into the
//! sink verbatim — byte-identical to walking the body, so wire sizes,
//! bandwidth costs and the whole event schedule are unchanged by the
//! optimisation. Reading one adopts the range the body was read from as
//! its bytes: a slice of the receive buffer under
//! [`decode_borrowed`](codec::decode_borrowed), one copy otherwise.
//!
//! The two halves are shared differently, because only one of them ever
//! needs to leave its thread:
//! - The decoded body sits behind an `Rc`. It is read by the node that
//!   holds the update (coalescing keys, archive folds, portal state),
//!   and every node runs on one thread, so a clone bumps a plain count.
//!   A group broadcast clones once per member; this keeps it to one
//!   atomic per member instead of two. A `FrozenUpdate` is therefore
//!   neither `Send` nor `Sync`.
//! - The encoding is a [`Bytes`] handle, whose count is atomic and
//!   which is `Send + Sync`. It is the half a socket writer thread
//!   would share: hand it [`FrozenUpdate::bytes`], never the update.
//!
//! The halves stay two fields, not one shared `(body, bytes)` record: a
//! merged record makes every frozen update's allocation wider.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use bytes::Bytes;

use crate::codec::{self, CodecError, Dbp, Reader, Sink};
use crate::messages::UpdateBody;

/// An [`UpdateBody`] frozen to its DBP encoding exactly once.
///
/// Cloning is two reference-count bumps, one of them atomic; serializing
/// splices the frozen bytes without another traversal. The invariant
/// `bytes == codec::encode(body)` holds by construction, which is what
/// makes equality-by-bytes and splice-serialization sound.
#[derive(Clone)]
pub struct FrozenUpdate {
    body: Rc<UpdateBody>,
    bytes: Bytes,
}

// The encoding is the half a socket writer thread may be handed.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Bytes>();
};

impl FrozenUpdate {
    /// Freeze `body`: the one and only DBP serialization it will get.
    pub fn new(body: UpdateBody) -> Self {
        let bytes = codec::encode(&body);
        FrozenUpdate { body: Rc::new(body), bytes }
    }

    /// The decoded body.
    pub fn body(&self) -> &UpdateBody {
        &self.body
    }

    /// The frozen DBP encoding of the body: the half that may cross a
    /// thread.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Encoded length on the wire (no traversal — the bytes exist).
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

impl Deref for FrozenUpdate {
    type Target = UpdateBody;
    fn deref(&self) -> &UpdateBody {
        &self.body
    }
}

impl From<UpdateBody> for FrozenUpdate {
    fn from(body: UpdateBody) -> Self {
        FrozenUpdate::new(body)
    }
}

impl PartialEq for FrozenUpdate {
    fn eq(&self, other: &Self) -> bool {
        // DBP is deterministic and injective over wire types, so the
        // frozen encodings are equal iff the bodies are.
        self.bytes == other.bytes
    }
}

impl PartialEq<UpdateBody> for FrozenUpdate {
    fn eq(&self, other: &UpdateBody) -> bool {
        *self.body == *other
    }
}

impl fmt::Debug for FrozenUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.body.fmt(f)
    }
}

impl Dbp for FrozenUpdate {
    /// The frozen bytes, verbatim: no length prefix, no walk of the body.
    fn walk<S: Sink>(&self, out: &mut S) {
        codec::splice(out, &self.bytes);
    }

    /// On the wire a frozen update is its body inline. The range the
    /// body was read from is, by DBP's determinism, `codec::encode(&body)`,
    /// so adopting it keeps the freeze invariant with no walk
    /// (`codec_properties` proves the equality; checking it here would
    /// itself cost the walk being skipped).
    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (body, bytes) = r.capture()?;
        Ok(FrozenUpdate { body: Rc::new(body), bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode, encoded_len};
    use crate::ids::{AppId, ServerAddr, UserId};
    use crate::messages::ClientMessage;
    use crate::Value;

    fn sample() -> UpdateBody {
        UpdateBody::ParamChanged {
            app: AppId { server: ServerAddr(3), seq: 7 },
            name: "pressure".into(),
            value: Value::Float(0.75),
            by: UserId::new("steerer"),
        }
    }

    #[test]
    fn frozen_bytes_match_inline_encoding() {
        let body = sample();
        let frozen = FrozenUpdate::new(body.clone());
        assert_eq!(frozen.bytes()[..], encode(&body)[..]);
        assert_eq!(frozen.wire_len(), encoded_len(&body));
    }

    #[test]
    fn container_encoding_is_byte_identical_and_roundtrips() {
        let body = sample();
        let msg = ClientMessage::Update(FrozenUpdate::new(body.clone()));
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), encoded_len(&msg));
        let back: ClientMessage = decode(&bytes).expect("decode");
        assert_eq!(back, msg);
        match back {
            ClientMessage::Update(u) => assert_eq!(*u.body(), body),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clone_shares_payload() {
        let frozen = FrozenUpdate::new(sample());
        let copy = frozen.clone();
        assert_eq!(frozen, copy);
        assert_eq!(copy.bytes().as_slice(), frozen.bytes().as_slice());
        assert_eq!(copy.app(), frozen.app());
        assert!(std::ptr::eq(copy.body(), frozen.body()), "one decoded body");
        assert!(copy.bytes().shares_storage(frozen.bytes()), "one encoding");
    }

    #[test]
    fn a_frozen_update_is_four_words() {
        assert_eq!(std::mem::size_of::<FrozenUpdate>(), 32);
    }
}
