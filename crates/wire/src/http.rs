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

use crate::codec::{self, dbp};
use crate::ids::Name;
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

/// Well-known servlet paths of a DISCOVER server.
pub mod paths {
    /// Master (accepter/controller) handler: login/logout/list.
    pub const MASTER: &str = "/discover/master";
    /// Command handler: interaction and steering operations.
    pub const COMMAND: &str = "/discover/command";
    /// Collaboration handler: groups, chat, whiteboard, shared views.
    pub const COLLAB: &str = "/discover/collab";
    /// Poll endpoint: drain the client's FIFO buffer.
    pub const POLL: &str = "/discover/poll";
    /// Session archival handler: history replay.
    pub const ARCHIVE: &str = "/discover/archive";
    /// Live status introspection: read-only node health snapshot.
    pub const STATUS: &str = "/discover/status";
    /// Every path above.
    pub const ALL: [&str; 6] = [MASTER, COMMAND, COLLAB, POLL, ARCHIVE, STATUS];
}

/// Length of `n` rendered with `{}`.
fn decimal_digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Append `n` as `{}` renders it.
fn push_decimal(head: &mut String, mut n: usize) {
    let mut digits = [0; 20]; // `usize::MAX` has 20
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    head.extend(digits[start..].iter().map(|&digit| char::from(digit)));
}

/// Append a cookie line: `name`, then `sid` as `{:016x}` renders it.
fn push_cookie(head: &mut String, name: &str, sid: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    head.push_str(name);
    let nibbles = (0..COOKIE_DIGITS).rev().map(|i| (sid >> (4 * i)) as usize & 0xf);
    head.extend(nibbles.map(|nibble| char::from(HEX[nibble])));
    head.push_str(CRLF);
}

/// Append the content headers of a `body_len`-byte body.
fn push_content_lines(head: &mut String, body_len: usize) {
    head.push_str(CONTENT_TYPE);
    head.push_str(CONTENT_LENGTH);
    push_decimal(head, body_len);
    head.push_str(CRLF);
}

// `parse_head` accepts exactly what `render_head` writes, so that the
// `head_len` the cost model charges is the length of the bytes that
// arrived: every accepted head re-renders to itself. The pieces below
// each take one rendered element off the front of `rest`.

/// A number as `{}` renders it: digits only, no sign, no leading zero.
fn decimal<T: std::str::FromStr>(rest: &str) -> Result<(T, &str), String> {
    let end = rest.bytes().position(|b| !b.is_ascii_digit()).unwrap_or(rest.len());
    let (digits, rest) = rest.split_at(end);
    if digits.is_empty() || (digits.len() > 1 && digits.starts_with('0')) {
        return Err(format!("not a canonical decimal: {digits:?}"));
    }
    let n = digits.parse().map_err(|_| format!("number out of range: {digits}"))?;
    Ok((n, rest))
}

/// The cookie line under `name`, if `rest` starts with one: exactly
/// [`COOKIE_DIGITS`] lowercase hex digits (`{:016x}`).
fn cookie_line<'a>(rest: &'a str, name: &str) -> Result<(Option<u64>, &'a str), String> {
    let Some(after) = rest.strip_prefix(name) else { return Ok((None, rest)) };
    let bad = || format!("bad cookie: {:?}", after.lines().next().unwrap_or_default());
    let (digits, rest) = after.split_at_checked(COOKIE_DIGITS).ok_or_else(bad)?;
    if !digits.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(bad());
    }
    let sid = u64::from_str_radix(digits, 16).map_err(|_| bad())?;
    Ok((Some(sid), rest.strip_prefix(CRLF).ok_or_else(bad)?))
}

/// The `Content-Type` and `Content-Length` lines.
fn content_lines(rest: &str) -> Result<(usize, &str), String> {
    let rest = rest.strip_prefix(CONTENT_TYPE).ok_or("missing content type")?;
    let rest = rest.strip_prefix(CONTENT_LENGTH).ok_or("missing content length")?;
    let (len, rest) = decimal(rest).map_err(|e| format!("bad length: {e}"))?;
    Ok((len, rest.strip_prefix(CRLF).ok_or("bad length: trailing text")?))
}

/// The blank line that ends a head, and nothing after it.
fn end_of_head(rest: &str) -> Result<(), String> {
    if rest == CRLF {
        Ok(())
    } else {
        Err(format!("unexpected header text: {:?}", rest.lines().next().unwrap_or_default()))
    }
}

dbp! {
    /// HTTP request methods used by DISCOVER portals.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum HttpMethod {
        /// Used for polls.
        Get,
        /// Used for commands and logins.
        Post,
    }
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

dbp! {
    /// An HTTP request from a client portal.
    #[derive(Clone, PartialEq, Debug)]
    pub struct HttpRequest {
        /// GET or POST.
        pub method: HttpMethod,
        /// Servlet path, e.g. `/discover/master`.
        pub path: Name,
        /// Session cookie issued by the master servlet at login.
        pub session: Option<u64>,
        /// Typed body (absent for bare GET polls without parameters).
        pub body: Option<ClientRequest>,
    }
}

impl HttpRequest {
    /// POST a request to a well-known servlet path.
    pub fn post(path: &'static str, session: Option<u64>, body: ClientRequest) -> Self {
        let path = Name::from_static(path);
        HttpRequest { method: HttpMethod::Post, path, session, body: Some(body) }
    }

    /// GET poll against a well-known servlet path.
    pub fn get(path: &'static str, session: Option<u64>) -> Self {
        HttpRequest { method: HttpMethod::Get, path: Name::from_static(path), session, body: None }
    }

    /// Render the textual request head exactly as it would appear on the
    /// wire (HTTP/1.0 with keep-alive, as era-appropriate).
    pub fn render_head(&self, body_len: usize) -> String {
        let mut head = String::with_capacity(self.head_len(body_len));
        head.push_str(self.method.as_str());
        head.push(' ');
        head.push_str(&self.path);
        head.push_str(REQUEST_LINE_TAIL);
        if let Some(sid) = self.session {
            push_cookie(&mut head, COOKIE, sid);
        }
        if body_len > 0 {
            push_content_lines(&mut head, body_len);
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
    /// content length). Round-trip partner of [`HttpRequest::render_head`]:
    /// a head it accepts renders back to the same bytes.
    pub fn parse_head(text: &str) -> Result<(HttpMethod, Name, Option<u64>, usize), String> {
        let (method, rest) = text.split_once(' ').ok_or("missing method")?;
        let method = match method {
            "GET" => HttpMethod::Get,
            "POST" => HttpMethod::Post,
            other => return Err(format!("unsupported method {other}")),
        };
        let (path, rest) = rest.split_once(' ').ok_or("missing path")?;
        if path.is_empty() || path.contains(['\r', '\n']) {
            return Err(format!("bad path {path:?}"));
        }
        // `split_once` ate the space the tail begins with.
        let rest = rest
            .strip_prefix(&REQUEST_LINE_TAIL[1..])
            .ok_or_else(|| format!("bad request line after {path:?}"))?;
        let (session, rest) = cookie_line(rest, COOKIE)?;
        // A bodiless request carries no content headers at all.
        let (content_length, rest) = if rest.starts_with(CONTENT_TYPE) {
            let (len, rest) = content_lines(rest)?;
            if len == 0 {
                return Err("bad length: a bodiless request has no content headers".into());
            }
            (len, rest)
        } else {
            (0, rest)
        };
        end_of_head(rest)?;
        // A well-known path — what every portal sends — is handed back as
        // the literal it is; only a stranger's path is copied.
        let path = match paths::ALL.iter().find(|known| **known == path) {
            Some(known) => Name::from_static(known),
            None => path.into(),
        };
        Ok((method, path, session, content_length))
    }
}

/// Reason phrase of a status code.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

dbp! {
    /// An HTTP response to a client portal.
    #[derive(Clone, PartialEq, Debug)]
    pub struct HttpResponse {
        /// Status code (200, 401, 403, 404, 500, ...).
        pub status: u16,
        /// Session cookie set at login.
        pub set_session: Option<u64>,
        /// Typed payload: the messages delivered by this response.
        pub body: Vec<ClientMessage>,
    }
}

impl HttpResponse {
    /// A 200 response carrying `body`.
    pub fn ok(body: Vec<ClientMessage>) -> Self {
        HttpResponse { status: 200, set_session: None, body }
    }

    /// Reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        reason(self.status)
    }

    /// Render the textual response head.
    pub fn render_head(&self, body_len: usize) -> String {
        let mut head = String::with_capacity(self.head_len(body_len));
        head.push_str(STATUS_LINE_HEAD);
        push_decimal(&mut head, self.status.into());
        head.push(' ');
        head.push_str(self.reason());
        head.push_str(SERVER);
        if let Some(sid) = self.set_session {
            push_cookie(&mut head, SET_COOKIE, sid);
        }
        push_content_lines(&mut head, body_len);
        head.push_str(CRLF);
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
    /// [`HttpResponse::render_head`]: a head it accepts renders back to
    /// the same bytes.
    pub fn parse_head(text: &str) -> Result<(u16, Option<u64>, usize), String> {
        let rest = text.strip_prefix(STATUS_LINE_HEAD).ok_or("bad version")?;
        let (status, rest) = decimal::<u16>(rest).map_err(|e| format!("bad status: {e}"))?;
        let rest = rest
            .strip_prefix(' ')
            .and_then(|rest| rest.strip_prefix(reason(status)))
            .and_then(|rest| rest.strip_prefix(SERVER))
            .ok_or_else(|| format!("bad status line for {status}"))?;
        let (set_session, rest) = cookie_line(rest, SET_COOKIE)?;
        let (content_length, rest) = content_lines(rest)?;
        end_of_head(rest)?;
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

    /// Spellings the parent accepted although `render_head` never
    /// writes them: each re-rendered to a head of another length, so the
    /// `head_len` charged disagreed with the bytes that arrived.
    #[test]
    fn non_canonical_request_heads_are_rejected() {
        let canonical = HttpRequest::post(paths::COMMAND, Some(0x1f), ClientRequest::Poll);
        let canonical = canonical.render_head(5);
        let (_, path, session, len) = HttpRequest::parse_head(&canonical).unwrap();
        assert_eq!((path.as_str(), session, len), (paths::COMMAND, Some(0x1f), 5));
        let cookie = "JSESSIONID=000000000000001f";
        let spellings = [
            ("a signed cookie", cookie, "JSESSIONID=+00000000000001f"),
            ("an upper-case cookie", cookie, "JSESSIONID=000000000000001F"),
            ("a short cookie", cookie, "JSESSIONID=1f"),
            ("a long cookie", cookie, "JSESSIONID=0000000000000001f"),
            ("a signed length", "Content-Length: 5", "Content-Length: +5"),
            ("a zero-padded length", "Content-Length: 5", "Content-Length: 005"),
            ("a zero length", "Content-Length: 5", "Content-Length: 0"),
            ("no length", "Content-Length: 5", "Content-Length: "),
            ("an empty path", " /discover/command ", "  "),
            ("a fourth token", " HTTP/1.0\r\n", " HTTP/1.0 extra\r\n"),
            ("a token before the version", " HTTP/1.0\r\n", " extra HTTP/1.0\r\n"),
            ("another version", "HTTP/1.0", "HTTP/1.1"),
            ("a header never written", "Host: discover", "Host: elsewhere"),
            ("text after the blank line", "5\r\n\r\n", "5\r\n\r\nPOST"),
            ("no blank line", "5\r\n\r\n", "5\r\n"),
        ];
        for (what, written, spelled) in spellings {
            assert!(canonical.contains(written), "{what}: {written:?} is in the head");
            let head = canonical.replacen(written, spelled, 1);
            assert!(HttpRequest::parse_head(&head).is_err(), "{what} parsed: {head:?}");
        }
    }

    #[test]
    fn non_canonical_response_heads_are_rejected() {
        let resp = HttpResponse { status: 200, set_session: Some(0xbeef), body: vec![] };
        let canonical = resp.render_head(0);
        assert_eq!(HttpResponse::parse_head(&canonical), Ok((200, Some(0xbeef), 0)));
        let spellings = [
            ("an upper-case cookie", "000000000000beef", "000000000000BEEF"),
            ("a short cookie", "000000000000beef", "beef"),
            ("a signed length", "Content-Length: 0", "Content-Length: +0"),
            ("a zero-padded length", "Content-Length: 0", "Content-Length: 00"),
            ("a zero-padded status", " 200 ", " 0200 "),
            ("another reason", "200 OK", "200 Fine"),
            ("no length", "Content-Type", "X-Content-Type"),
            ("text after the blank line", "0\r\n\r\n", "0\r\n\r\nHTTP"),
        ];
        for (what, written, spelled) in spellings {
            assert!(canonical.contains(written), "{what}: {written:?} is in the head");
            let head = canonical.replacen(written, spelled, 1);
            assert!(HttpResponse::parse_head(&head).is_err(), "{what} parsed: {head:?}");
        }
    }

    #[test]
    fn a_path_parses_back_well_known_or_not() {
        for path in paths::ALL {
            let head = HttpRequest::get(path, None).render_head(0);
            let (_, parsed, ..) = HttpRequest::parse_head(&head).unwrap();
            assert_eq!(parsed, path);
        }
        let stranger = "GET /elsewhere".to_string() + REQUEST_LINE_TAIL + CRLF;
        let (_, parsed, ..) = HttpRequest::parse_head(&stranger).unwrap();
        assert_eq!(parsed, "/elsewhere");
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

    /// The bytes a cookie-bearing request and response head render to,
    /// spelled out: what the parser accepts and what the cost model
    /// charges (`head_len`) are these.
    #[test]
    fn cookie_bearing_heads_render_to_pinned_bytes() {
        let sid = 0xfedc_ba98_0765_4321;
        let req = HttpRequest::post(paths::COMMAND, Some(sid), ClientRequest::Poll);
        let head = req.render_head(1_234_567);
        let pinned = "POST /discover/command HTTP/1.0\r\nHost: discover\r\n\
            Connection: keep-alive\r\nCookie: JSESSIONID=fedcba9807654321\r\n\
            Content-Type: application/x-discover\r\nContent-Length: 1234567\r\n\r\n";
        assert_eq!(head, pinned);
        assert_eq!(head.len(), req.head_len(1_234_567));

        let resp = HttpResponse { status: 403, set_session: Some(0x1f), body: vec![] };
        let head = resp.render_head(0);
        let pinned = "HTTP/1.0 403 Forbidden\r\nServer: discover\r\n\
            Set-Cookie: JSESSIONID=000000000000001f\r\n\
            Content-Type: application/x-discover\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(head, pinned);
        assert_eq!(head.len(), resp.head_len(0));
    }

    #[test]
    fn response_reasons() {
        assert_eq!(
            HttpResponse { status: 401, set_session: None, body: vec![] }.reason(),
            "Unauthorized"
        );
        assert_eq!(HttpResponse::ok(vec![]).reason(), "OK");
    }
}
