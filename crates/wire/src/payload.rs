//! Shared broadcast payloads: encode once, fan out cheaply.
//!
//! The collaboration handler broadcasts every steering update to all N
//! local group members and pushes it to all M subscribed peer servers.
//! Carrying a plain [`UpdateBody`] in each outgoing message costs a deep
//! clone per target plus a full DBP serializer walk per message (every
//! containing frame's `wire_size()` re-traverses the update).
//!
//! [`FrozenUpdate`] fixes both: the body is serialized to DBP bytes
//! exactly once at creation, and a clone shares both halves. When a
//! message containing a `FrozenUpdate` is serialized (or size-counted),
//! the pre-encoded bytes are spliced into the stream verbatim via the
//! codec's `SPLICE_TOKEN` fast path — producing output byte-identical to
//! inline serialization of the body, so wire sizes, bandwidth costs and
//! the whole event schedule are unchanged by the optimisation.
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
use serde::de::{Deserialize, Deserializer, Visitor};
use serde::ser::{Serialize, Serializer};

use crate::codec;
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

    /// Assemble from a decoded body plus its already-on-the-wire
    /// encoding (the zero-copy ingress path). The caller — the codec's
    /// splice-token capture — guarantees `bytes` is exactly the range
    /// the body was decoded from, which by DBP's determinism equals
    /// `codec::encode(&body)`, so the freeze invariant holds with no
    /// serializer walk (`codec_properties` proves the equality; checking
    /// it here would itself cost the walk being skipped).
    fn from_wire(body: UpdateBody, bytes: Bytes) -> Self {
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

/// Raw pass-through payload for the splice token.
struct RawBytes<'a>(&'a [u8]);

impl Serialize for RawBytes<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

impl Serialize for FrozenUpdate {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // The DBP serializer recognises the token and splices the bytes
        // verbatim into any of its sinks (no length prefix, no re-walk);
        // output is byte-identical to serializing the body inline.
        serializer.serialize_newtype_struct(codec::SPLICE_TOKEN, &RawBytes(&self.bytes))
    }
}

impl<'de> Deserialize<'de> for FrozenUpdate {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        // On the wire a FrozenUpdate is indistinguishable from an inline
        // UpdateBody. Announce the splice token so the DBP deserializer
        // captures the consumed byte range while the visitor decodes the
        // body; adopting that range skips the re-encoding walk entirely
        // (and, under `decode_borrowed`, even the copy). A foreign
        // deserializer ignores the token, leaves no capture, and we fall
        // back to re-freezing.
        struct FrozenVisitor;
        impl<'de> Visitor<'de> for FrozenVisitor {
            type Value = UpdateBody;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "a frozen update payload")
            }
            fn visit_newtype_struct<D: Deserializer<'de>>(
                self,
                d: D,
            ) -> Result<UpdateBody, D::Error> {
                UpdateBody::deserialize(d)
            }
        }
        let body = deserializer.deserialize_newtype_struct(codec::SPLICE_TOKEN, FrozenVisitor)?;
        Ok(match codec::take_captured() {
            Some(bytes) => FrozenUpdate::from_wire(body, bytes),
            None => FrozenUpdate::new(body),
        })
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
