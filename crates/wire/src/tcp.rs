//! The custom framed TCP protocol between applications and their host
//! server — the paper's "more optimized, custom protocol using TCP
//! sockets". A frame is a fixed 8-byte header (magic, channel tag, length)
//! followed by the DBP-encoded [`AppMsg`]; its compactness relative to the
//! HTTP path is the other half of the "more apps than clients" asymmetry.

use crate::codec::{self, dbp};
use crate::messages::{AppMsg, Channel};

/// Fixed framing overhead: 2-byte magic + 1-byte channel + 1-byte flags +
/// 4-byte length.
pub const FRAME_HEADER_BYTES: usize = 8;

dbp! {
    /// One frame on the custom application protocol.
    #[derive(Clone, PartialEq, Debug)]
    pub struct TcpFrame {
        /// Which of the three app channels this frame belongs to.
        pub channel: Channel,
        /// The message.
        pub msg: AppMsg,
    }
}

impl TcpFrame {
    /// Frame a message on a channel.
    pub fn new(channel: Channel, msg: AppMsg) -> Self {
        TcpFrame { channel, msg }
    }

    /// Bytes on the wire: header plus encoded message.
    pub fn wire_size(&self) -> usize {
        FRAME_HEADER_BYTES + codec::encoded_len(&self.msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RequestId;
    use crate::messages::AppOp;

    #[test]
    fn wire_size_is_header_plus_body() {
        let frame = TcpFrame::new(
            Channel::Command,
            AppMsg::Command { req: RequestId(1), op: AppOp::GetStatus },
        );
        assert_eq!(frame.wire_size(), FRAME_HEADER_BYTES + codec::encoded_len(&frame.msg));
    }

    #[test]
    fn custom_protocol_is_leaner_than_http_for_same_op() {
        use crate::http::HttpRequest;
        use crate::ids::{AppId, ServerAddr};
        use crate::messages::ClientRequest;

        let app = AppId { server: ServerAddr(1), seq: 1 };
        let tcp = TcpFrame::new(
            Channel::Command,
            AppMsg::Command { req: RequestId(1), op: AppOp::GetStatus },
        );
        let http = HttpRequest::post(
            "/discover/command",
            Some(7),
            ClientRequest::Op { app, op: AppOp::GetStatus },
        );
        assert!(
            tcp.wire_size() * 2 < http.wire_size(),
            "custom protocol ({}) should be far leaner than HTTP ({})",
            tcp.wire_size(),
            http.wire_size()
        );
    }
}
