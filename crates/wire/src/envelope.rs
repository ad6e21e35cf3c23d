//! The single message type carried on simulated links.
//!
//! Each protocol domain (HTTP, custom TCP, GIOP) contributes a variant;
//! the wire size is computed once at construction from the real framing
//! and marshalling rules, so the simulator's bandwidth model sees the same
//! byte counts a packet capture would.

use simnet::TraceContext;

use crate::deadline::DeadlineStamp;
use crate::giop::GiopFrame;
use crate::http::{HttpRequest, HttpResponse};
use crate::tcp::TcpFrame;

/// Typed content of an [`Envelope`].
#[derive(Clone, PartialEq, Debug)]
pub enum Content {
    /// Client → server HTTP request.
    HttpRequest(HttpRequest),
    /// Server → client HTTP response.
    HttpResponse(HttpResponse),
    /// Application ↔ server custom-TCP frame.
    Tcp(TcpFrame),
    /// Server ↔ server GIOP frame.
    Giop(GiopFrame),
}

/// One message on a simulated link.
#[derive(Clone, PartialEq, Debug)]
pub struct Envelope {
    /// The typed content.
    pub content: Content,
    /// Trace context riding this message, if the sending layer stamped
    /// one (a service-context slot in GIOP terms, a header in HTTP
    /// terms). Absent on every message of an untraced run.
    pub trace: Option<TraceContext>,
    /// Deadline/priority stamp riding this message, if the portal (or a
    /// propagating hop) stamped one. Absent on every message of an
    /// undeadlined run, keeping the framing byte-identical to pre-stamp
    /// wire output.
    pub deadline: Option<DeadlineStamp>,
    size: usize,
}

impl Envelope {
    /// Wrap an HTTP request.
    pub fn http_request(req: HttpRequest) -> Self {
        let size = req.wire_size();
        Envelope { content: Content::HttpRequest(req), trace: None, deadline: None, size }
    }

    /// Wrap an HTTP response.
    pub fn http_response(resp: HttpResponse) -> Self {
        let size = resp.wire_size();
        Envelope { content: Content::HttpResponse(resp), trace: None, deadline: None, size }
    }

    /// Wrap a custom-TCP frame.
    pub fn tcp(frame: TcpFrame) -> Self {
        let size = frame.wire_size();
        Envelope { content: Content::Tcp(frame), trace: None, deadline: None, size }
    }

    /// Wrap a GIOP frame.
    pub fn giop(frame: GiopFrame) -> Self {
        let size = frame.wire_size();
        Envelope { content: Content::Giop(frame), trace: None, deadline: None, size }
    }

    /// Stamp a trace context onto this message. A `Some` context adds
    /// [`TraceContext::WIRE_BYTES`] of framing, so traced runs pay the
    /// (tiny, realistic) propagation cost; `None` leaves the envelope —
    /// and the run's event schedule — untouched.
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Self {
        if self.trace.is_some() {
            self.size -= TraceContext::WIRE_BYTES;
        }
        self.trace = trace;
        if self.trace.is_some() {
            self.size += TraceContext::WIRE_BYTES;
        }
        self
    }

    /// Stamp a deadline/priority onto this message. A `Some` stamp adds
    /// [`DeadlineStamp::WIRE_BYTES`] of framing, so deadlined runs pay
    /// the (tiny, realistic) propagation cost; `None` leaves the
    /// envelope — and the run's event schedule — untouched.
    pub fn with_deadline(mut self, deadline: Option<DeadlineStamp>) -> Self {
        if self.deadline.is_some() {
            self.size -= DeadlineStamp::WIRE_BYTES;
        }
        self.deadline = deadline;
        if self.deadline.is_some() {
            self.size += DeadlineStamp::WIRE_BYTES;
        }
        self
    }

    /// The precomputed wire size (content framing plus trace-context and
    /// deadline-stamp bytes when stamped).
    pub fn wire_size(&self) -> usize {
        self.size
    }

    /// The content's own wire size, excluding any trace-context or
    /// deadline-stamp framing — identical to `content.wire_size()` but
    /// read from the cached total instead of re-walking the payload.
    /// Receivers use this to charge ingress CPU without a second
    /// serializer pass.
    pub fn content_size(&self) -> usize {
        let mut size = self.size;
        if self.trace.is_some() {
            size -= TraceContext::WIRE_BYTES;
        }
        if self.deadline.is_some() {
            size -= DeadlineStamp::WIRE_BYTES;
        }
        size
    }
}

impl simnet::Payload for Envelope {
    fn size_bytes(&self) -> usize {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpRequest;
    use crate::ids::ObjectKey;
    use crate::messages::PeerMsg;
    use simnet::Payload;

    #[test]
    fn size_matches_content() {
        let req = HttpRequest::get("/discover/poll", Some(4));
        let expect = req.wire_size();
        let env = Envelope::http_request(req);
        assert_eq!(env.wire_size(), expect);
        assert_eq!(env.size_bytes(), expect);

        let frame = GiopFrame::oneway(1, ObjectKey::new("k"), "listActive", PeerMsg::ListActive);
        let expect = frame.wire_size();
        assert_eq!(Envelope::giop(frame).size_bytes(), expect);
    }

    #[test]
    fn trace_stamp_adds_wire_bytes_once() {
        use simnet::TraceContext;
        let req = HttpRequest::get("/discover/poll", Some(4));
        let bare = req.wire_size();
        let ctx = TraceContext { trace_id: 1, span_id: 2, parent_span: None };
        let env = Envelope::http_request(req).with_trace(Some(ctx));
        assert_eq!(env.wire_size(), bare + TraceContext::WIRE_BYTES);
        assert_eq!(env.trace, Some(ctx));
        // Re-stamping replaces rather than accumulates framing bytes.
        let env = env.with_trace(Some(ctx.child(9)));
        assert_eq!(env.wire_size(), bare + TraceContext::WIRE_BYTES);
        // Clearing restores the bare size.
        let env = env.with_trace(None);
        assert_eq!(env.wire_size(), bare);
        assert_eq!(env.trace, None);
    }

    #[test]
    fn deadline_stamp_adds_wire_bytes_once() {
        use crate::deadline::{DeadlineStamp, Priority};
        use simnet::{SimTime, TraceContext};
        let req = HttpRequest::get("/discover/poll", Some(4));
        let bare = req.wire_size();
        let stamp = DeadlineStamp { deadline: SimTime::from_secs(2), priority: Priority::Command };
        let env = Envelope::http_request(req).with_deadline(Some(stamp));
        assert_eq!(env.wire_size(), bare + DeadlineStamp::WIRE_BYTES);
        assert_eq!(env.content_size(), bare);
        assert_eq!(env.deadline, Some(stamp));
        // Re-stamping replaces rather than accumulates framing bytes.
        let env = env.with_deadline(Some(DeadlineStamp {
            deadline: SimTime::from_secs(3),
            priority: Priority::View,
        }));
        assert_eq!(env.wire_size(), bare + DeadlineStamp::WIRE_BYTES);
        // Trace and deadline stamps compose; content_size excludes both.
        let ctx = TraceContext { trace_id: 1, span_id: 2, parent_span: None };
        let env = env.with_trace(Some(ctx));
        assert_eq!(env.wire_size(), bare + DeadlineStamp::WIRE_BYTES + TraceContext::WIRE_BYTES);
        assert_eq!(env.content_size(), bare);
        // Clearing restores the bare size.
        let env = env.with_deadline(None).with_trace(None);
        assert_eq!(env.wire_size(), bare);
        assert_eq!(env.deadline, None);
    }
}
