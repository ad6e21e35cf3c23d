//! Minimal HTTP/1.0 model for the client ↔ server path.
//!
//! The paper's clients are thin web portals speaking "a series of HTTP GET
//! and POST requests"; because HTTP is request-response only, the server
//! cannot push and the client must poll-and-pull. We model the protocol
//! with typed request/response structs whose *rendered head* is real HTTP
//! text (exercised by `render`/`parse` below) and whose body is a
//! DBP-encoded payload; the simulated wire size is head + body, so HTTP's
//! textual overhead is part of the bandwidth model — one half of the
//! paper's "more apps than clients" asymmetry.

use std::fmt::Write;

use serde::{Deserialize, Serialize};

use crate::codec;
use crate::messages::{ClientMessage, ClientRequest};

// The literals of a head. `render_head` writes them, `head_len` adds up
// their lengths and `parse_head` matches on them, so the three cannot
// drift apart.
const REQUEST_LINE_TAIL: &str = " HTTP/1.0\r\nHost: discover\r\nConnection: keep-alive\r\n";
const STATUS_LINE_HEAD: &str = "HTTP/1.0 ";
const SERVER: &str = "\r\nServer: discover\r\n";
const COOKIE: &str = "Cookie: JSESSIONID=";
const SET_COOKIE: &str = "Set-Cookie: JSESSIONID=";
/// A session cookie is always rendered as `{:016x}`.
const COOKIE_DIGITS: usize = 16;
const CONTENT_TYPE: &str = "Content-Type: application/x-discover\r\n";
const CONTENT_LENGTH: &str = "Content-Length: ";
const CRLF: &str = "\r\n";

const STRING_WRITE: &str = "writing to a String cannot fail";

/// Length of `n` rendered with `{}`.
fn decimal_digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// HTTP request methods used by DISCOVER portals.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum HttpMethod {
    /// Used for polls.
    Get,
    /// Used for commands and logins.
    Post,
}

impl HttpMethod {
    /// Wire form of the method token.
    pub fn as_str(self) -> &'static str {
        match self {
            HttpMethod::Get => "GET",
            HttpMethod::Post => "POST",
        }
    }
}

/// An HTTP request from a client portal.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct HttpRequest {
    /// GET or POST.
    pub method: HttpMethod,
    /// Servlet path, e.g. `/discover/master`.
    pub path: String,
    /// Session cookie issued by the master servlet at login.
    pub session: Option<u64>,
    /// Typed body (absent for bare GET polls without parameters).
    pub body: Option<ClientRequest>,
}

impl HttpRequest {
    /// POST a request to a servlet path.
    pub fn post(path: impl Into<String>, session: Option<u64>, body: ClientRequest) -> Self {
        HttpRequest { method: HttpMethod::Post, path: path.into(), session, body: Some(body) }
    }

    /// GET poll against a servlet path.
    pub fn get(path: impl Into<String>, session: Option<u64>) -> Self {
        HttpRequest { method: HttpMethod::Get, path: path.into(), session, body: None }
    }

    /// Render the textual request head exactly as it would appear on the
    /// wire (HTTP/1.0 with keep-alive, as era-appropriate).
    pub fn render_head(&self, body_len: usize) -> String {
        let mut head = String::with_capacity(self.head_len(body_len));
        write!(head, "{} {}{REQUEST_LINE_TAIL}", self.method.as_str(), self.path)
            .expect(STRING_WRITE);
        if let Some(sid) = self.session {
            write!(head, "{COOKIE}{sid:016x}{CRLF}").expect(STRING_WRITE);
        }
        if body_len > 0 {
            write!(head, "{CONTENT_TYPE}{CONTENT_LENGTH}{body_len}{CRLF}").expect(STRING_WRITE);
        }
        head.push_str(CRLF);
        head
    }

    /// Length of [`HttpRequest::render_head`]'s output, without rendering it.
    pub fn head_len(&self, body_len: usize) -> usize {
        let mut len = self.method.as_str().len() + 1 + self.path.len() + REQUEST_LINE_TAIL.len();
        if self.session.is_some() {
            len += COOKIE.len() + COOKIE_DIGITS + CRLF.len();
        }
        if body_len > 0 {
            len += CONTENT_TYPE.len() + CONTENT_LENGTH.len() + decimal_digits(body_len);
            len += CRLF.len();
        }
        len + CRLF.len()
    }

    /// Total bytes on the wire: textual head plus DBP-encoded body.
    pub fn wire_size(&self) -> usize {
        let body_len = self.body.as_ref().map(codec::encoded_len).unwrap_or(0);
        self.head_len(body_len) + body_len
    }

    /// Parse a rendered head back into (method, path, session cookie,
    /// content length). Round-trip partner of [`HttpRequest::render_head`].
    pub fn parse_head(text: &str) -> Result<(HttpMethod, String, Option<u64>, usize), String> {
        let mut lines = text.split("\r\n");
        let request_line = lines.next().ok_or("empty head")?;
        let mut parts = request_line.split(' ');
        let method = match parts.next().ok_or("missing method")? {
            "GET" => HttpMethod::Get,
            "POST" => HttpMethod::Post,
            other => return Err(format!("unsupported method {other}")),
        };
        let path = parts.next().ok_or("missing path")?.to_string();
        match parts.next() {
            Some("HTTP/1.0") | Some("HTTP/1.1") => {}
            other => return Err(format!("bad version {other:?}")),
        }
        let mut session = None;
        let mut content_length = 0usize;
        for line in lines {
            if line.is_empty() {
                break;
            }
            if let Some(rest) = line.strip_prefix(COOKIE) {
                session =
                    Some(u64::from_str_radix(rest, 16).map_err(|e| format!("bad cookie: {e}"))?);
            } else if let Some(rest) = line.strip_prefix(CONTENT_LENGTH) {
                content_length = rest.parse().map_err(|e| format!("bad length: {e}"))?;
            }
        }
        Ok((method, path, session, content_length))
    }
}

/// An HTTP response to a client portal.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct HttpResponse {
    /// Status code (200, 401, 403, 404, 500, ...).
    pub status: u16,
    /// Session cookie set at login.
    pub set_session: Option<u64>,
    /// Typed payload: the messages delivered by this response.
    pub body: Vec<ClientMessage>,
}

impl HttpResponse {
    /// A 200 response carrying `body`.
    pub fn ok(body: Vec<ClientMessage>) -> Self {
        HttpResponse { status: 200, set_session: None, body }
    }

    /// Reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Render the textual response head.
    pub fn render_head(&self, body_len: usize) -> String {
        let mut head = String::with_capacity(self.head_len(body_len));
        write!(head, "{STATUS_LINE_HEAD}{} {}{SERVER}", self.status, self.reason())
            .expect(STRING_WRITE);
        if let Some(sid) = self.set_session {
            write!(head, "{SET_COOKIE}{sid:016x}{CRLF}").expect(STRING_WRITE);
        }
        write!(head, "{CONTENT_TYPE}{CONTENT_LENGTH}{body_len}{CRLF}{CRLF}").expect(STRING_WRITE);
        head
    }

    /// Length of [`HttpResponse::render_head`]'s output, without rendering it.
    pub fn head_len(&self, body_len: usize) -> usize {
        let mut len = STATUS_LINE_HEAD.len()
            + decimal_digits(self.status.into())
            + 1
            + self.reason().len()
            + SERVER.len();
        if self.set_session.is_some() {
            len += SET_COOKIE.len() + COOKIE_DIGITS + CRLF.len();
        }
        len + CONTENT_TYPE.len() + CONTENT_LENGTH.len() + decimal_digits(body_len) + 2 * CRLF.len()
    }

    /// Total bytes on the wire: textual head plus DBP-encoded body.
    pub fn wire_size(&self) -> usize {
        let body_len = codec::encoded_len(&self.body);
        self.head_len(body_len) + body_len
    }

    /// Parse a rendered response head back into (status, set-cookie,
    /// content length). Round-trip partner of
    /// [`HttpResponse::render_head`].
    pub fn parse_head(text: &str) -> Result<(u16, Option<u64>, usize), String> {
        let mut lines = text.split("\r\n");
        let status_line = lines.next().ok_or("empty head")?;
        let mut parts = status_line.split(' ');
        match parts.next() {
            Some("HTTP/1.0") | Some("HTTP/1.1") => {}
            other => return Err(format!("bad version {other:?}")),
        }
        let status: u16 = parts
            .next()
            .ok_or("missing status")?
            .parse()
            .map_err(|e| format!("bad status: {e}"))?;
        let mut set_session = None;
        let mut content_length = 0usize;
        for line in lines {
            if line.is_empty() {
                break;
            }
            if let Some(rest) = line.strip_prefix(SET_COOKIE) {
                set_session =
                    Some(u64::from_str_radix(rest, 16).map_err(|e| format!("bad cookie: {e}"))?);
            } else if let Some(rest) = line.strip_prefix(CONTENT_LENGTH) {
                content_length = rest.parse().map_err(|e| format!("bad length: {e}"))?;
            }
        }
        Ok((status, set_session, content_length))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;
    use crate::messages::ResponseBody;

    #[test]
    fn head_roundtrip_post() {
        let req = HttpRequest::post(
            "/discover/master",
            Some(0xabcd),
            ClientRequest::Login { user: UserId::new("vijay"), password: "pw".into() },
        );
        let body_len = codec::encoded_len(req.body.as_ref().unwrap());
        let head = req.render_head(body_len);
        let (method, path, session, len) = HttpRequest::parse_head(&head).unwrap();
        assert_eq!(method, HttpMethod::Post);
        assert_eq!(path, "/discover/master");
        assert_eq!(session, Some(0xabcd));
        assert_eq!(len, body_len);
    }

    #[test]
    fn head_roundtrip_get_without_cookie() {
        let req = HttpRequest::get("/discover/poll", None);
        let head = req.render_head(0);
        let (method, path, session, len) = HttpRequest::parse_head(&head).unwrap();
        assert_eq!(method, HttpMethod::Get);
        assert_eq!(path, "/discover/poll");
        assert_eq!(session, None);
        assert_eq!(len, 0);
    }

    #[test]
    fn bad_heads_rejected() {
        assert!(HttpRequest::parse_head("PATCH /x HTTP/1.0\r\n\r\n").is_err());
        assert!(HttpRequest::parse_head("GET /x SPDY/3\r\n\r\n").is_err());
        assert!(HttpRequest::parse_head("").is_err());
    }

    #[test]
    fn wire_size_includes_textual_overhead() {
        let poll = HttpRequest::get("/discover/poll", Some(1));
        // An empty-body poll still costs a full textual head.
        assert!(poll.wire_size() > 60, "poll head should dominate: {}", poll.wire_size());

        let resp = HttpResponse::ok(vec![ClientMessage::Response(ResponseBody::LogoutOk)]);
        assert!(resp.wire_size() > resp.render_head(0).len());
    }

    #[test]
    fn response_head_roundtrip() {
        let resp = HttpResponse {
            status: 200,
            set_session: Some(0xbeef),
            body: vec![ClientMessage::Response(ResponseBody::LogoutOk)],
        };
        let body_len = codec::encoded_len(&resp.body);
        let head = resp.render_head(body_len);
        let (status, cookie, len) = HttpResponse::parse_head(&head).unwrap();
        assert_eq!(status, 200);
        assert_eq!(cookie, Some(0xbeef));
        assert_eq!(len, body_len);
        assert!(HttpResponse::parse_head("SPDY 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn response_reasons() {
        assert_eq!(HttpResponse { status: 401, set_session: None, body: vec![] }.reason(),
            "Unauthorized");
        assert_eq!(HttpResponse::ok(vec![]).reason(), "OK");
    }
}
