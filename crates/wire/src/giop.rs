//! GIOP-like frames for the server ↔ server ORB path.
//!
//! The paper's middleware substrate "builds on CORBA/IIOP". We reproduce
//! the relevant slice of GIOP: Request frames carrying an object key and
//! operation name, Reply frames correlated by request id, and a oneway
//! flag (`response_expected = false`) used by the Control channel and
//! collaboration fan-out. Marshalling is the DBP codec; the 12-byte GIOP
//! header plus the marshalled key/operation/body make up the wire size, so
//! the ORB's extra framing cost relative to the custom TCP protocol is
//! visible to the bandwidth model (the paper's §6.2 CORBA-overhead
//! discussion).

use crate::codec::{self, dbp};
use crate::ids::{Name, ObjectKey};
use crate::messages::{PeerMsg, PeerReply};

/// Fixed GIOP header size (magic "GIOP", version, flags, type, length).
pub const GIOP_HEADER_BYTES: usize = 12;

dbp! {
    /// Frame discriminator.
    #[derive(Clone, PartialEq, Debug)]
    pub enum GiopKind {
        /// Invocation of `operation` on the servant at `target`.
        Request {
            /// False for oneway calls (no Reply will follow).
            response_expected: bool,
        },
        /// Reply to the Request with the same `request_id`.
        Reply,
        /// System exception reply (transport-level failure).
        SystemException,
    }

    /// Body of a GIOP frame: either a peer request or a peer reply.
    #[derive(Clone, PartialEq, Debug)]
    pub enum GiopBody {
        /// Request arguments.
        Call(PeerMsg),
        /// Reply value.
        Return(PeerReply),
    }

    /// One GIOP frame.
    #[derive(Clone, PartialEq, Debug)]
    pub struct GiopFrame {
        /// Frame kind.
        pub kind: GiopKind,
        /// Correlation id scoped to the (caller, callee) pair.
        pub request_id: u64,
        /// Target servant key (e.g. `"DiscoverCorbaServer"`, `"apps/10.0.0.1#2"`).
        pub target: ObjectKey,
        /// Operation name, as it would appear in IDL.
        pub operation: Name,
        /// Marshalled arguments or return value.
        pub body: GiopBody,
    }
}

impl GiopFrame {
    /// A two-way request frame.
    pub fn request(
        request_id: u64,
        target: ObjectKey,
        operation: impl Into<Name>,
        msg: PeerMsg,
    ) -> Self {
        GiopFrame {
            kind: GiopKind::Request { response_expected: true },
            request_id,
            target,
            operation: operation.into(),
            body: GiopBody::Call(msg),
        }
    }

    /// A oneway request frame (no reply expected).
    pub fn oneway(
        request_id: u64,
        target: ObjectKey,
        operation: impl Into<Name>,
        msg: PeerMsg,
    ) -> Self {
        GiopFrame {
            kind: GiopKind::Request { response_expected: false },
            request_id,
            target,
            operation: operation.into(),
            body: GiopBody::Call(msg),
        }
    }

    /// A reply frame correlated to `request_id`.
    pub fn reply(
        request_id: u64,
        target: ObjectKey,
        operation: impl Into<Name>,
        reply: PeerReply,
    ) -> Self {
        GiopFrame {
            kind: GiopKind::Reply,
            request_id,
            target,
            operation: operation.into(),
            body: GiopBody::Return(reply),
        }
    }

    /// True if this frame expects a reply.
    pub fn expects_reply(&self) -> bool {
        matches!(self.kind, GiopKind::Request { response_expected: true })
    }

    /// Bytes on the wire: GIOP header plus marshalled frame content.
    pub fn wire_size(&self) -> usize {
        GIOP_HEADER_BYTES
            + codec::encoded_len(&self.target)
            + codec::encoded_len(&self.operation)
            + codec::encoded_len(&self.body)
            + 8 // request id
            + 1 // kind/flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;

    #[test]
    fn frame_constructors() {
        let req = GiopFrame::request(
            7,
            ObjectKey::new("DiscoverCorbaServer"),
            "authenticate",
            PeerMsg::Authenticate { user: UserId::new("u"), password: "p".into() },
        );
        assert!(req.expects_reply());
        let ow = GiopFrame::oneway(8, ObjectKey::new("x"), "control", PeerMsg::ListActive);
        assert!(!ow.expects_reply());
        let rep = GiopFrame::reply(7, ObjectKey::new("x"), "authenticate", PeerReply::AuthDenied);
        assert!(!rep.expects_reply());
        assert_eq!(rep.request_id, 7);
    }

    #[test]
    fn wire_size_exceeds_marshalled_body() {
        let frame = GiopFrame::request(1, ObjectKey::new("k"), "listActive", PeerMsg::ListActive);
        assert!(frame.wire_size() > GIOP_HEADER_BYTES + codec::encoded_len(&frame.body));
    }

    #[test]
    fn codec_roundtrip() {
        let frame = GiopFrame::reply(
            3,
            ObjectKey::new("apps/1"),
            "pollUpdates",
            PeerReply::Updates {
                app: crate::ids::AppId { server: crate::ids::ServerAddr(1), seq: 1 },
                updates: vec![],
                next_seq: 5,
            },
        );
        let bytes = codec::encode(&frame);
        assert_eq!(codec::decode::<GiopFrame>(&bytes).unwrap(), frame);
    }
}
