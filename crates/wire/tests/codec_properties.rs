//! Property tests: arbitrary protocol messages survive encode → decode,
//! and `encoded_len` always equals the actual encoding length.

#![cfg(feature = "proptest")]

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use simnet::SimTime;
use wire::codec::{
    decode, decode_borrowed, digest_fnv1a, encode, encoded_len, reset_stats, stats, CodecError,
    CodecStats, Dbp,
};
use wire::giop::{GiopBody, GiopFrame, GiopKind};
use wire::http::{HttpMethod, HttpRequest, HttpResponse};
use wire::tcp::TcpFrame;
use wire::{
    AppCommand, AppDescriptor, AppId, AppMsg, AppOp, AppPhase, AppStatus, AppStatusEntry, AppToken,
    ArchiveSnapshot, Channel, ClientId, ClientMessage, ClientRequest, ControlEvent,
    ControlEventKind, DeadlineStamp, DirPlaneStatus, Envelope, ErrorCode, FifoStatusEntry,
    FoldedAppState, FrozenUpdate, InteractionSpec, JobSpec, LogEntry, LogRecord, MessageKind, Name,
    ObjectKey, ObjectRef, OpOutcome, PeerMsg, PeerReply, PeerStatusEntry, Priority, Privilege,
    RequestId, ResponseBody, ServerAddr, ServiceOffer, SessionId, StatusReport, UpdateBody, UserId,
    Value, WhiteboardStroke, WireError,
};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Avoid NaN: PartialEq comparison after roundtrip must hold.
        prop::num::f64::NORMAL.prop_map(Value::Float),
        "[a-z0-9_ ]{0,24}".prop_map(Value::Text),
        prop::collection::vec(prop::num::f64::NORMAL, 0..16).prop_map(Value::Vector),
    ]
}

fn app_id_strategy() -> impl Strategy<Value = AppId> {
    (0u32..1000, 0u32..1000).prop_map(|(s, q)| AppId { server: ServerAddr(s), seq: q })
}

fn user_strategy() -> impl Strategy<Value = UserId> {
    "[a-z]{1,12}".prop_map(UserId::new)
}

fn command_strategy() -> impl Strategy<Value = AppCommand> {
    prop_oneof![
        Just(AppCommand::Pause),
        Just(AppCommand::Resume),
        Just(AppCommand::Checkpoint),
        Just(AppCommand::Rollback),
        Just(AppCommand::Terminate),
    ]
}

fn op_strategy() -> impl Strategy<Value = AppOp> {
    prop_oneof![
        Just(AppOp::GetStatus),
        Just(AppOp::GetSensors),
        "[a-z_]{1,16}".prop_map(AppOp::GetParam),
        ("[a-z_]{1,16}", value_strategy()).prop_map(|(n, v)| AppOp::SetParam(n, v)),
        command_strategy().prop_map(AppOp::Command),
    ]
}

fn status_strategy() -> impl Strategy<Value = AppStatus> {
    (any::<u64>(), prop::num::f64::NORMAL, 0u8..4).prop_map(|(it, p, ph)| AppStatus {
        phase: match ph {
            0 => AppPhase::Computing,
            1 => AppPhase::Interacting,
            2 => AppPhase::Paused,
            _ => AppPhase::Terminated,
        },
        iteration: it,
        progress: p,
    })
}

fn update_strategy() -> impl Strategy<Value = UpdateBody> {
    prop_oneof![
        (app_id_strategy(), status_strategy(), readings_strategy())
            .prop_map(|(app, status, readings)| UpdateBody::AppStatus { app, status, readings }),
        (app_id_strategy(), "[a-z_]{1,12}", value_strategy(), user_strategy())
            .prop_map(|(app, name, value, by)| UpdateBody::ParamChanged { app, name, value, by }),
        (app_id_strategy(), user_strategy(), "[ -~]{0,40}")
            .prop_map(|(app, from, text)| UpdateBody::Chat { app, from, text }),
        (
            app_id_strategy(),
            user_strategy(),
            prop::collection::vec((any::<f32>(), any::<f32>()), 0..12),
            any::<u32>()
        )
            .prop_map(|(app, from, points, color)| UpdateBody::Whiteboard {
                app,
                from,
                stroke: WhiteboardStroke { points, color },
            }),
        (app_id_strategy(), prop::option::of(user_strategy()))
            .prop_map(|(app, holder)| UpdateBody::LockChanged { app, holder }),
        app_id_strategy().prop_map(|app| UpdateBody::AppClosed { app }),
    ]
}

fn request_strategy() -> impl Strategy<Value = ClientRequest> {
    prop_oneof![
        (user_strategy(), "[a-z0-9]{0,16}")
            .prop_map(|(user, password)| ClientRequest::Login { user, password }),
        Just(ClientRequest::Logout),
        Just(ClientRequest::ListApplications),
        Just(ClientRequest::Poll),
        app_id_strategy().prop_map(|app| ClientRequest::SelectApp { app }),
        (app_id_strategy(), op_strategy()).prop_map(|(app, op)| ClientRequest::Op { app, op }),
        app_id_strategy().prop_map(|app| ClientRequest::RequestLock { app }),
        (app_id_strategy(), any::<u64>())
            .prop_map(|(app, since)| ClientRequest::GetHistory { app, since }),
    ]
}

fn readings_strategy() -> impl Strategy<Value = Vec<(String, Value)>> {
    prop::collection::vec(("[a-z]{1,8}", value_strategy()), 0..4)
}

fn status_report_strategy() -> impl Strategy<Value = StatusReport> {
    let app = (
        app_id_strategy(),
        "[a-z-]{1,16}",
        status_strategy(),
        prop::option::of(user_strategy()),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(app, name, status, lock_holder, buffered, n)| AppStatusEntry {
            app,
            name,
            phase: status.phase,
            lock_holder,
            buffered,
            shed_total: n,
            archive_records: n.rotate_left(7),
            archive_snapshots: buffered.rotate_left(3),
            archive_compacted: n >> 3,
            db_records: !n,
        });
    let fifo = (0u32..1000, any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
        |(seq, queued, peak, dropped)| FifoStatusEntry {
            client: ClientId { server: ServerAddr(1), seq },
            queued,
            peak,
            dropped,
        },
    );
    let peer = (0u32..1000, "[a-z]{2,7}", "[a-z-]{4,9}")
        .prop_map(|(p, health, breaker)| PeerStatusEntry { peer: ServerAddr(p), health, breaker });
    (
        (0u32..1000, any::<u64>(), any::<u32>(), any::<u32>(), any::<u64>()),
        prop::collection::vec(app, 0..3),
        prop::collection::vec(fifo, 0..5),
        prop::collection::vec(peer, 0..3),
    )
        .prop_map(|((server, at_us, sessions, shards, n), apps, fifos, peers)| StatusReport {
            server: ServerAddr(server),
            at_us,
            sessions_active: sessions,
            sessions_parked: sessions >> 4,
            admission_in_flight: sessions.rotate_left(9),
            fifo_dropped: n,
            shed_total: n.rotate_left(11),
            apps,
            fifos,
            peers,
            recovered_apps: shards >> 8,
            recoveries: n >> 60,
            dir_plane: DirPlaneStatus {
                shards,
                ring_epoch: n >> 32,
                cache_hits: n.rotate_left(21),
                cache_misses: n.rotate_left(33),
                cache_invalidations: n.rotate_left(45),
            },
        })
}

fn snapshot_strategy() -> impl Strategy<Value = ArchiveSnapshot> {
    (
        (any::<u64>(), any::<u64>(), any::<bool>()),
        prop::option::of(status_strategy()),
        readings_strategy(),
        readings_strategy(),
        prop::option::of(user_strategy()),
        prop::collection::vec(user_strategy(), 0..4),
    )
        .prop_map(|((seq, n, closed), status, readings, params, lock_holder, members)| {
            ArchiveSnapshot {
                seq,
                at_us: n,
                state: FoldedAppState {
                    status,
                    readings,
                    params,
                    lock_holder,
                    members,
                    closed,
                    event_records: n >> 40,
                    event_digest: n.rotate_left(17),
                },
            }
        })
}

fn outcome_strategy() -> impl Strategy<Value = OpOutcome> {
    prop_oneof![
        status_strategy().prop_map(OpOutcome::Status),
        ("[a-z_]{1,16}", value_strategy()).prop_map(|(n, v)| OpOutcome::Param(n, v)),
        ("[a-z_]{1,16}", value_strategy()).prop_map(|(n, v)| OpOutcome::ParamSet(n, v)),
        readings_strategy().prop_map(OpOutcome::Sensors),
        command_strategy().prop_map(OpOutcome::CommandDone),
    ]
}

fn interface_strategy() -> impl Strategy<Value = InteractionSpec> {
    (
        prop::collection::vec(("[a-z_]{1,12}", "[a-z0-9]{1,6}", value_strategy()), 0..4),
        prop::collection::vec("[a-z_]{1,12}", 0..4),
        prop::collection::vec(command_strategy(), 0..5),
    )
        .prop_map(|(params, sensors, commands)| InteractionSpec { params, sensors, commands })
}

/// The replies a portal is sent one at a time (a poll batch nests them):
/// the two whose payload hangs off a pointer, the widest one left
/// inline (`AppSelected`), and the ones an op, a lock request and a
/// replay end on.
fn reply_strategy() -> impl Strategy<Value = ResponseBody> {
    let records = || prop::collection::vec(log_record_strategy(), 0..4);
    prop_oneof![
        status_report_strategy().prop_map(|report| ResponseBody::Status(Box::new(report))),
        (app_id_strategy(), prop::option::of(snapshot_strategy()), records(), any::<u64>())
            .prop_map(|(app, snapshot, records, next_seq)| ResponseBody::CatchUp {
                app,
                snapshot: snapshot.map(Arc::new),
                records,
                next_seq,
            }),
        (app_id_strategy(), records(), any::<u64>())
            .prop_map(|(app, records, next_seq)| ResponseBody::History { app, records, next_seq }),
        (app_id_strategy(), outcome_strategy())
            .prop_map(|(app, outcome)| ResponseBody::OpDone { app, outcome }),
        (app_id_strategy(), interface_strategy(), 0u8..3).prop_map(|(app, interface, p)| {
            let privilege =
                [Privilege::ReadOnly, Privilege::ReadWrite, Privilege::Steer][p as usize];
            ResponseBody::AppSelected { app, interface, privilege }
        }),
        (app_id_strategy(), prop::option::of(user_strategy()))
            .prop_map(|(app, holder)| ResponseBody::LockDenied { app, holder }),
    ]
}

fn client_message_strategy() -> impl Strategy<Value = ClientMessage> {
    let leaf = prop_oneof![
        update_strategy().prop_map(ClientMessage::update),
        (0u8..10, "[ -~]{0,30}").prop_map(|(c, detail)| {
            let code = match c {
                0 => ErrorCode::AuthFailed,
                1 => ErrorCode::NoSuchApp,
                2 => ErrorCode::AccessDenied,
                3 => ErrorCode::LockRequired,
                4 => ErrorCode::LockHeld,
                5 => ErrorCode::BadParameter,
                6 => ErrorCode::Unavailable,
                7 => ErrorCode::BadRequest,
                8 => ErrorCode::DeadlineExceeded,
                _ => ErrorCode::Overloaded,
            };
            ClientMessage::Error(WireError::new(code, detail))
        }),
        Just(ClientMessage::Response(ResponseBody::LogoutOk)),
        reply_strategy().prop_map(ClientMessage::Response),
    ];
    // One level of Batch nesting exercises recursive encoding.
    prop_oneof![
        leaf.clone(),
        prop::collection::vec(leaf, 0..6)
            .prop_map(|batch| ClientMessage::Response(ResponseBody::Batch(batch))),
    ]
}

/// Archive records of every entry class, frozen (spliced) updates
/// among them.
fn log_record_strategy() -> impl Strategy<Value = LogRecord> {
    let entry = prop_oneof![
        op_strategy().prop_map(LogEntry::Request),
        status_strategy().prop_map(LogEntry::Status),
        update_strategy().prop_map(|u| LogEntry::Update(FrozenUpdate::new(u))),
    ];
    (any::<u64>(), any::<u64>(), prop::option::of(user_strategy()), entry)
        .prop_map(|(seq, at_us, user, entry)| LogRecord { seq, at_us, user, entry })
}

/// Reference FNV-1a, written out here so the digest is checked against
/// the definition and not against the codec's own hashing sink.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Frozen payloads inside `m`: the update itself, the updates among a
/// replay's records, and (the strategy nests one level) a batch's.
fn frozen_in(m: &ClientMessage) -> u64 {
    match m {
        ClientMessage::Update(_) => 1,
        ClientMessage::Response(ResponseBody::Batch(items)) => items.iter().map(frozen_in).sum(),
        ClientMessage::Response(
            ResponseBody::History { records, .. } | ResponseBody::CatchUp { records, .. },
        ) => records.iter().filter(|r| matches!(r.entry, LogEntry::Update(_))).count() as u64,
        _ => 0,
    }
}

fn session_strategy() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), Just(Some(0)), Just(Some(7)), Just(Some(u64::MAX))]
}

/// Every arm of `HttpResponse::reason`, and statuses of each decimal
/// width that have none.
fn http_status_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![
        Just(200u16),
        Just(400),
        Just(401),
        Just(403),
        Just(404),
        Just(500),
        Just(7),
        Just(42),
        Just(299),
        Just(1000),
        Just(u16::MAX),
    ]
}

/// Both sides of every decimal-width boundary up to 10^7, zero included.
fn body_len_strategy() -> impl Strategy<Value = usize> {
    (0u32..=7, 0usize..3).prop_map(|(exp, off)| 10usize.pow(exp) + off - 1)
}

// The four wire types whose text became a shared `Name` are checked
// against twins with the field layout they had while it was a `String`.
// DBP is not self-describing and a struct is its fields in order, so a
// twin is the tuple of those fields: `UserId` and `ObjectKey` were a
// `String`, `GiopFrame` was `(GiopKind, u64, String, String, GiopBody)`
// and `HttpRequest` was `(HttpMethod, String, Option<u64>,
// Option<ClientRequest>)`. A twin encodes like the original if and only
// if the fields do.

/// All three walks agree between `now` and its twin.
fn same_on_the_wire(now: &impl Dbp, then: &impl Dbp) -> Result<(), TestCaseError> {
    prop_assert_eq!(&encode(now)[..], &encode(then)[..]);
    prop_assert_eq!(encoded_len(now), encoded_len(then));
    prop_assert_eq!(digest_fnv1a(now), digest_fnv1a(then));
    Ok(())
}

/// Printable ASCII, with a multi-byte tail every other time.
fn text_strategy() -> impl Strategy<Value = String> {
    ("[ -~]{0,24}", any::<bool>()).prop_map(|(t, wide)| if wide { t + "/é∑" } else { t })
}

/// One of `canonical` three times in four, else one of `other`.
fn piece(
    canonical: &'static [&'static str],
    other: &'static [&'static str],
) -> impl Strategy<Value = &'static str> {
    (0u32..4, any::<usize>()).prop_map(move |(odds, pick)| {
        let from = if odds < 3 { canonical } else { other };
        from[pick % from.len()]
    })
}

/// A request head put together from the pieces `render_head` writes,
/// each now and then in a spelling it never writes.
fn request_head_strategy() -> impl Strategy<Value = String> {
    vec![
        piece(&["GET ", "POST "], &["PATCH ", "GET", "get "]),
        piece(&["/discover/poll", "/x", "/é∑"], &["", "/a b", "/a\r\nHost: x"]),
        piece(&[" HTTP/1.0\r\n"], &[" HTTP/1.1\r\n", " HTTP/1.0 x\r\n", "\r\n"]),
        piece(
            &["Host: discover\r\nConnection: keep-alive\r\n"],
            &["Host: elsewhere\r\nConnection: keep-alive\r\n", "Connection: keep-alive\r\n", ""],
        ),
        piece(
            &[
                "",
                "Cookie: JSESSIONID=000000000000001f\r\n",
                "Cookie: JSESSIONID=ffffffffffffffff\r\n",
            ],
            &[
                "Cookie: JSESSIONID=+00000000000001f\r\n",
                "Cookie: JSESSIONID=000000000000001F\r\n",
                "Cookie: JSESSIONID=1f\r\n",
                "Cookie: JSESSIONID=0000000000000001f\r\n",
                "Cookie: JSESSIONID=000000000000001f",
            ],
        ),
        piece(&["", "Content-Type: application/x-discover\r\n"], &["Content-Type: text/plain\r\n"]),
        piece(
            &["", "Content-Length: 5\r\n", "Content-Length: 1000\r\n"],
            &[
                "Content-Length: +5\r\n",
                "Content-Length: 005\r\n",
                "Content-Length: 0\r\n",
                "Content-Length: \r\n",
                "Content-Length: 99999999999999999999999\r\n",
            ],
        ),
        piece(&["\r\n"], &["", "\r\n\r\n", "\r\nGET"]),
    ]
    .prop_map(|pieces| pieces.concat())
}

/// The same for a response head.
fn response_head_strategy() -> impl Strategy<Value = String> {
    vec![
        piece(&["HTTP/1.0 "], &["HTTP/1.1 ", "HTTP/1.0"]),
        piece(
            &["200 OK", "404 Not Found", "7 Unknown", "65535 Unknown"],
            &["0200 OK", "+200 OK", "200 Fine", "200", "65536 Unknown"],
        ),
        piece(&["\r\nServer: discover\r\n"], &["\r\nServer: other\r\n", "\r\n"]),
        piece(
            &["", "Set-Cookie: JSESSIONID=000000000000beef\r\n"],
            &["Set-Cookie: JSESSIONID=000000000000BEEF\r\n", "Set-Cookie: JSESSIONID=beef\r\n"],
        ),
        piece(&["Content-Type: application/x-discover\r\n"], &[""]),
        piece(
            &["Content-Length: 0\r\n", "Content-Length: 12\r\n"],
            &["Content-Length: 00\r\n", "Content-Length: +1\r\n", ""],
        ),
        piece(&["\r\n"], &["", "\r\nx"]),
    ]
    .prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // ------------------------------------------------------------------
    // HTTP sizing: a head's length is computed, never rendered, on the
    // simulated path; it must equal what the bytes path would write.
    // ------------------------------------------------------------------

    #[test]
    fn head_len_matches_render_head(
        post in any::<bool>(),
        path in "[ -~]{0,40}",
        wide in any::<bool>(),
        session in session_strategy(),
        status in http_status_strategy(),
        body_len in body_len_strategy(),
    ) {
        let method = if post { HttpMethod::Post } else { HttpMethod::Get };
        let path = if wide { path + "/é∑" } else { path };
        let req = HttpRequest { method, path: path.into(), session, body: None };
        prop_assert_eq!(req.head_len(body_len), req.render_head(body_len).len());
        let resp = HttpResponse { status, set_session: session, body: vec![] };
        prop_assert_eq!(resp.head_len(body_len), resp.render_head(body_len).len());
    }

    #[test]
    fn http_envelope_size_is_rendered_head_plus_body(
        r in request_strategy(),
        ms in prop::collection::vec(client_message_strategy(), 0..4),
        session in session_strategy(),
    ) {
        let poll = HttpRequest::get("/discover/poll", session);
        let expect = poll.render_head(0).len();
        prop_assert_eq!(Envelope::http_request(poll).wire_size(), expect);

        let post = HttpRequest::post("/discover/command", session, r);
        let len = encoded_len(post.body.as_ref().expect("a post has a body"));
        let expect = post.render_head(len).len() + len;
        prop_assert_eq!(Envelope::http_request(post).wire_size(), expect);

        let resp = HttpResponse { status: 200, set_session: session, body: ms };
        let len = encoded_len(&resp.body);
        let expect = resp.render_head(len).len() + len;
        prop_assert_eq!(Envelope::http_response(resp).wire_size(), expect);
    }

    // `parse_head` accepts exactly what `render_head` writes: whatever
    // it accepts re-renders to itself, so `head_len` — what the cost
    // model charges — is the length of the bytes that arrived.
    #[test]
    fn an_accepted_request_head_renders_back_to_itself(head in request_head_strategy()) {
        if let Ok((method, path, session, len)) = HttpRequest::parse_head(&head) {
            let req = HttpRequest { method, path, session, body: None };
            prop_assert_eq!(req.head_len(len), head.len());
            prop_assert_eq!(req.render_head(len), head);
        }
    }

    #[test]
    fn an_accepted_response_head_renders_back_to_itself(head in response_head_strategy()) {
        if let Ok((status, set_session, len)) = HttpResponse::parse_head(&head) {
            let resp = HttpResponse { status, set_session, body: vec![] };
            prop_assert_eq!(resp.head_len(len), head.len());
            prop_assert_eq!(resp.render_head(len), head);
        }
    }

    #[test]
    fn every_rendered_head_is_accepted(
        post in any::<bool>(),
        path in "[!-~]{1,40}",
        session in session_strategy(),
        status in http_status_strategy(),
        body_len in body_len_strategy(),
    ) {
        let method = if post { HttpMethod::Post } else { HttpMethod::Get };
        let req = HttpRequest { method, path: path.as_str().into(), session, body: None };
        let parsed = HttpRequest::parse_head(&req.render_head(body_len));
        prop_assert_eq!(parsed, Ok((method, Name::from(path), session, body_len)));
        let resp = HttpResponse { status, set_session: session, body: vec![] };
        let parsed = HttpResponse::parse_head(&resp.render_head(body_len));
        prop_assert_eq!(parsed, Ok((status, session, body_len)));
    }

    // ------------------------------------------------------------------
    // Shared names: on the wire a `Name` is the `String` it replaced, and
    // as a key it is its text, however it is held.
    // ------------------------------------------------------------------

    #[test]
    fn names_encode_as_the_strings_they_replaced(
        text in text_strategy(),
        operation in text_strategy(),
        request_id in any::<u64>(),
        post in any::<bool>(),
        session in session_strategy(),
        body in prop::option::of(request_strategy()),
    ) {
        let user = UserId::new(&text);
        same_on_the_wire(&user, &text)?;
        prop_assert_eq!(&decode_borrowed::<UserId>(&encode(&user)).unwrap(), &user);

        let key = ObjectKey::new(text.as_str());
        same_on_the_wire(&key, &text)?;
        prop_assert_eq!(&decode_borrowed::<ObjectKey>(&encode(&key)).unwrap(), &key);

        let call = PeerMsg::LockRelease { app: AppId { server: ServerAddr(2), seq: 7 }, user };
        let frame = GiopFrame::request(request_id, key, operation.as_str(), call);
        let then = (frame.kind.clone(), request_id, text.clone(), operation, frame.body.clone());
        same_on_the_wire(&frame, &then)?;
        prop_assert_eq!(&decode_borrowed::<GiopFrame>(&encode(&frame)).unwrap(), &frame);

        let method = if post { HttpMethod::Post } else { HttpMethod::Get };
        let req = HttpRequest { method, path: text.as_str().into(), session, body };
        let then = (method, text, session, req.body.clone());
        same_on_the_wire(&req, &then)?;
        prop_assert_eq!(&decode_borrowed::<HttpRequest>(&encode(&req)).unwrap(), &req);
    }

    #[test]
    fn a_literal_and_a_decoded_name_are_one_key(text in text_strategy(), other in text_strategy()) {
        // The test's stand-in for a literal of the program.
        let literal = Name::from_static(Box::leak(text.clone().into_boxed_str()));
        let decoded: Name = decode(&encode(&text)).unwrap();
        prop_assert_eq!(&literal, &decoded);
        prop_assert_eq!(literal.as_str(), text.as_str());
        let other = Name::from(other);
        prop_assert_eq!(literal.cmp(&other), decoded.cmp(&other));
        prop_assert_eq!(literal.cmp(&other), text.as_str().cmp(other.as_str()));
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        prop_assert_eq!(hasher.hash_one(&literal), hasher.hash_one(&decoded));
        let ordered = BTreeMap::from([(literal.clone(), 1)]);
        prop_assert_eq!(ordered.get(&decoded), Some(&1));
        let hashed = HashMap::from([(decoded, 2)]);
        prop_assert_eq!(hashed.get(&literal), Some(&2));
    }

    #[test]
    fn values_roundtrip(v in value_strategy()) {
        let bytes = encode(&v);
        prop_assert_eq!(bytes.len(), encoded_len(&v));
        prop_assert_eq!(decode::<Value>(&bytes).unwrap(), v);
    }

    #[test]
    fn ops_roundtrip(op in op_strategy()) {
        let bytes = encode(&op);
        prop_assert_eq!(bytes.len(), encoded_len(&op));
        prop_assert_eq!(decode::<AppOp>(&bytes).unwrap(), op);
    }

    #[test]
    fn updates_roundtrip(u in update_strategy()) {
        let bytes = encode(&u);
        prop_assert_eq!(bytes.len(), encoded_len(&u));
        prop_assert_eq!(decode::<UpdateBody>(&bytes).unwrap(), u);
    }

    #[test]
    fn requests_roundtrip(r in request_strategy()) {
        let bytes = encode(&r);
        prop_assert_eq!(bytes.len(), encoded_len(&r));
        prop_assert_eq!(decode::<ClientRequest>(&bytes).unwrap(), r);
    }

    #[test]
    fn client_messages_roundtrip(m in client_message_strategy()) {
        let bytes = encode(&m);
        prop_assert_eq!(bytes.len(), encoded_len(&m));
        prop_assert_eq!(decode::<ClientMessage>(&bytes).unwrap(), m);
    }

    // ------------------------------------------------------------------
    // Encode-once fan-out: a frozen (pre-encoded, spliced) payload must
    // be byte-identical to the old inline per-message serialization, at
    // top level and inside every carrier message type.
    // ------------------------------------------------------------------

    #[test]
    fn frozen_update_matches_inline_encoding(u in update_strategy()) {
        let inline = encode(&u);
        let frozen = FrozenUpdate::new(u.clone());
        prop_assert_eq!(&encode(&frozen)[..], &inline[..]);
        prop_assert_eq!(encoded_len(&frozen), inline.len());
        prop_assert_eq!(frozen.wire_len(), inline.len());
        prop_assert_eq!(decode::<FrozenUpdate>(&inline).unwrap().body(), &u);
    }

    #[test]
    fn frozen_client_message_matches_inline(u in update_strategy()) {
        let inline = encode(&u);
        let msg = encode(&ClientMessage::update(u.clone()));
        // Old layout: u32 variant index, then the inline body.
        prop_assert_eq!(msg.len(), 4 + inline.len());
        prop_assert_eq!(&msg[4..], &inline[..]);
        prop_assert_eq!(encoded_len(&ClientMessage::update(u)), msg.len());
    }

    #[test]
    fn frozen_peer_collab_update_matches_inline(u in update_strategy(), origin in 0u32..1000) {
        let origin = ServerAddr(origin);
        let inline = encode(&u);
        let msg = encode(&PeerMsg::CollabUpdate { update: FrozenUpdate::new(u), origin });
        // Old layout: u32 variant index, inline body, then the origin.
        prop_assert_eq!(msg.len(), 4 + inline.len() + encoded_len(&origin));
        prop_assert_eq!(&msg[4..4 + inline.len()], &inline[..]);
    }

    #[test]
    fn frozen_log_entry_matches_inline(u in update_strategy()) {
        let inline = encode(&u);
        let msg = encode(&LogEntry::Update(FrozenUpdate::new(u)));
        prop_assert_eq!(msg.len(), 4 + inline.len());
        prop_assert_eq!(&msg[4..], &inline[..]);
    }

    #[test]
    fn frozen_batch_matches_inline(us in prop::collection::vec(update_strategy(), 0..5)) {
        // A poll-reply batch: every contained update spliced, the whole
        // nesting byte-identical to inline encoding of each body.
        let batch = ClientMessage::Response(ResponseBody::Batch(
            us.iter().cloned().map(ClientMessage::update).collect(),
        ));
        let bytes = encode(&batch);
        prop_assert_eq!(bytes.len(), encoded_len(&batch));
        // Layout: variant(Response) ++ variant(Batch) ++ count ++ items.
        let mut expected = Vec::new();
        let item_head = {
            let probe = encode(&ClientMessage::Response(ResponseBody::Batch(vec![])));
            prop_assert_eq!(probe.len(), 12); // two variant indices + count
            probe[..8].to_vec()
        };
        expected.extend_from_slice(&item_head);
        expected.extend_from_slice(&(us.len() as u32).to_le_bytes());
        for u in &us {
            expected.extend_from_slice(&encode(&ClientMessage::update(u.clone())));
        }
        prop_assert_eq!(&bytes[..], &expected[..]);
        prop_assert_eq!(decode::<ClientMessage>(&bytes).unwrap(), batch);
    }

    // ------------------------------------------------------------------
    // One walk, three sinks: the digest hashes exactly the bytes encode
    // produces, and each entry point moves only its own ledger lines.
    // ------------------------------------------------------------------

    #[test]
    fn digest_is_fnv1a_of_the_encoding(
        r in log_record_strategy(),
        m in client_message_strategy(),
    ) {
        prop_assert_eq!(digest_fnv1a(&r), fnv1a(&encode(&r)));
        prop_assert_eq!(digest_fnv1a(&m), fnv1a(&encode(&m)));
    }

    #[test]
    fn each_entry_point_moves_exactly_its_own_counters(
        m in client_message_strategy(),
        r in log_record_strategy(),
    ) {
        let frozen_m = frozen_in(&m);
        let frozen_r = u64::from(matches!(r.entry, LogEntry::Update(_)));
        encode(&0u8); // warm this thread's pool: the measured encodes hit it

        reset_stats();
        let bytes = encode(&m);
        prop_assert_eq!(stats(), CodecStats {
            encode_calls: 1,
            bytes_encoded: bytes.len() as u64,
            pool_hits: 1,
            payload_splices: frozen_m,
            ..CodecStats::default()
        });

        reset_stats();
        encoded_len(&m);
        encoded_len(&r);
        prop_assert_eq!(stats(), CodecStats {
            len_walks: 2,
            payload_splices: frozen_m + frozen_r,
            ..CodecStats::default()
        });

        // The archive's bookkeeping is not wire traffic: nothing on the
        // encode, pool or length-walk lines.
        reset_stats();
        digest_fnv1a(&m);
        digest_fnv1a(&r);
        prop_assert_eq!(stats(), CodecStats {
            payload_splices: frozen_m + frozen_r,
            ..CodecStats::default()
        });
    }

    // ------------------------------------------------------------------
    // Zero-copy ingress: decoding a frozen payload adopts its wire
    // range instead of re-encoding it, and under `decode_borrowed` the
    // adopted bytes are a refcounted slice of the receive buffer — the
    // update is never copied after origin.
    // ------------------------------------------------------------------

    #[test]
    fn decode_borrowed_adopts_a_slice_of_the_receive_buffer(u in update_strategy()) {
        let canonical = encode(&u);
        let wire_bytes = encode(&ClientMessage::update(u.clone()));
        reset_stats();
        let back: ClientMessage = decode_borrowed(&wire_bytes).unwrap();
        let s = stats();
        // The decode performed no serializer walk at all: the frozen
        // invariant (`bytes == encode(body)`) was satisfied by capture.
        prop_assert_eq!(s.encode_calls, 0);
        prop_assert_eq!(s.frozen_decodes, 1);
        prop_assert_eq!(s.ingress_slices, 1);
        prop_assert_eq!(s.ingress_copies, 0);
        match back {
            ClientMessage::Update(f) => {
                prop_assert_eq!(f.body(), &u);
                prop_assert!(
                    f.bytes().shares_storage(&wire_bytes),
                    "payload must alias the receive buffer, not own a copy"
                );
                prop_assert_eq!(&f.bytes()[..], &canonical[..]);
            }
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    #[test]
    fn plain_decode_still_captures_without_reencoding(u in update_strategy()) {
        let canonical = encode(&u);
        let wire_bytes = encode(&ClientMessage::update(u.clone()));
        reset_stats();
        let back: ClientMessage = decode::<ClientMessage>(&wire_bytes).unwrap();
        let s = stats();
        // No registered ingress buffer: the captured range is copied
        // once, but the re-encoding walk is still skipped.
        prop_assert_eq!(s.encode_calls, 0);
        prop_assert_eq!(s.frozen_decodes, 1);
        prop_assert_eq!(s.ingress_slices, 0);
        prop_assert_eq!(s.ingress_copies, 1);
        match back {
            ClientMessage::Update(f) => prop_assert_eq!(&f.bytes()[..], &canonical[..]),
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_frozen_payloads_all_borrow(us in prop::collection::vec(update_strategy(), 1..5)) {
        // A whole poll batch decoded from one receive buffer: every
        // contained update aliases that buffer.
        let batch = ClientMessage::Response(ResponseBody::Batch(
            us.iter().cloned().map(ClientMessage::update).collect(),
        ));
        let wire_bytes = encode(&batch);
        reset_stats();
        let back: ClientMessage = decode_borrowed(&wire_bytes).unwrap();
        let s = stats();
        prop_assert_eq!(s.encode_calls, 0);
        prop_assert_eq!(s.ingress_slices, us.len() as u64);
        prop_assert_eq!(s.ingress_copies, 0);
        match back {
            ClientMessage::Response(ResponseBody::Batch(items)) => {
                for item in &items {
                    match item {
                        ClientMessage::Update(f) => {
                            prop_assert!(f.bytes().shares_storage(&wire_bytes));
                        }
                        other => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
            }
            other => prop_assert!(false, "unexpected {other:?}"),
        }
    }

    #[test]
    fn encode_finalizes_by_refcount_not_memcpy(m in client_message_strategy()) {
        reset_stats();
        let first = encode(&m);
        let second = encode(&m);
        let s = stats();
        prop_assert_eq!(s.encode_calls, 2);
        // The pooled buffer is split, not copied out of: byte-for-byte
        // identical results, zero finalizing memcpy, and the pool stays
        // warm (at most the first call may miss on a fresh thread).
        prop_assert_eq!(s.encode_copy_bytes, 0);
        prop_assert!(s.pool_hits >= 1);
        prop_assert!(s.pool_misses <= 1);
        prop_assert_eq!(&first[..], &second[..]);
        prop_assert!(!first.shares_storage(&second));
    }

    // ------------------------------------------------------------------
    // Overload-protection framing: the deadline/priority stamp is a
    // strictly opt-in extension. Unstamped envelopes must be
    // byte-identical to pre-stamp framing; stamped envelopes round-trip
    // exactly and cost a fixed, fully reversible framing overhead.
    // ------------------------------------------------------------------

    #[test]
    fn unstamped_envelopes_match_pre_stamp_framing(
        r in request_strategy(),
        cookie in prop::option::of(any::<u64>()),
    ) {
        let req = HttpRequest::post("/discover/command", cookie, r);
        let bare = req.wire_size();
        let env = Envelope::http_request(req);
        prop_assert_eq!(env.wire_size(), bare);
        prop_assert_eq!(env.content_size(), bare);
        prop_assert_eq!(env.deadline, None);
        // An explicit None stamp is also a no-op.
        let env = env.with_deadline(None);
        prop_assert_eq!(env.wire_size(), bare);
    }

    #[test]
    fn stamped_envelopes_roundtrip_exactly(
        r in request_strategy(),
        cookie in prop::option::of(any::<u64>()),
        deadline_us in 0u64..600_000_000,
        command in any::<bool>(),
    ) {
        let stamp = DeadlineStamp {
            deadline: SimTime::from_micros(deadline_us),
            priority: if command { Priority::Command } else { Priority::View },
        };
        let req = HttpRequest::post("/discover/command", cookie, r);
        let bare = req.wire_size();
        let env = Envelope::http_request(req).with_deadline(Some(stamp));
        // The stamp rides the envelope untouched and costs exactly its
        // fixed framing; the content's own size is unchanged.
        prop_assert_eq!(env.deadline, Some(stamp));
        prop_assert_eq!(env.wire_size(), bare + DeadlineStamp::WIRE_BYTES);
        prop_assert_eq!(env.content_size(), bare);
        // Re-stamping replaces; clearing restores pre-stamp framing.
        let env = env.with_deadline(Some(stamp));
        prop_assert_eq!(env.wire_size(), bare + DeadlineStamp::WIRE_BYTES);
        let env = env.with_deadline(None);
        prop_assert_eq!(env.wire_size(), bare);
        prop_assert_eq!(env.deadline, None);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Result may be Ok (if bytes happen to parse) or Err; must not panic.
        let _ = decode::<ClientMessage>(&bytes);
        let _ = decode::<UpdateBody>(&bytes);
        let _ = decode::<Value>(&bytes);
    }

    #[test]
    fn privilege_ordering_is_total(a in 0u8..3, b in 0u8..3) {
        fn p(x: u8) -> Privilege {
            match x {
                0 => Privilege::ReadOnly,
                1 => Privilege::ReadWrite,
                _ => Privilege::Steer,
            }
        }
        let (pa, pb) = (p(a), p(b));
        // allows() agrees with the declared ordering.
        prop_assert_eq!(pa.allows(pb), pa >= pb);
    }
}

/// Encodings measured at the last commit that held these fields as
/// `String`s.
#[test]
fn name_encodings_pinned_from_the_string_days() {
    let user = UserId::new("vijay");
    assert_eq!(&encode(&user)[..], [5, 0, 0, 0, 118, 105, 106, 97, 121]);
    assert_eq!(digest_fnv1a(&user), 0x66c1_d0b0_d3de_2d1b);
    let key = ObjectKey::from_static("DiscoverCorbaServer");
    assert_eq!((encoded_len(&key), digest_fnv1a(&key)), (23, 0x634d_d453_3e51_1051));
    let app = AppId { server: ServerAddr(2), seq: 7 };
    let call = PeerMsg::LockRequest { app, user: user.clone(), via: ServerAddr(1) };
    let frame = GiopFrame::request(7, key, Name::from_static("lockRequest"), call);
    assert_eq!((encoded_len(&frame), frame.wire_size()), (80, 88));
    assert_eq!(digest_fnv1a(&frame), 0xa847_2935_c23b_7d07);
    let login = ClientRequest::Login { user, password: "pw".into() };
    let req = HttpRequest::post("/discover/command", Some(0xabcd), login);
    assert_eq!((encoded_len(&req), digest_fnv1a(&req)), (54, 0x39a5_1271_ac6b_ebc4));
}

/// A name is no wider than the `String` it replaced, so no message or
/// effect that carries one grew.
#[test]
fn a_name_is_no_wider_than_a_string() {
    assert!(std::mem::size_of::<Name>() <= std::mem::size_of::<String>());
    assert_eq!(std::mem::size_of::<Option<UserId>>(), std::mem::size_of::<Name>());
}

/// A box and a shared pointer add nothing to the encoding, whichever
/// way the value goes.
#[test]
fn a_box_and_an_arc_encode_as_what_they_point_to() {
    let report = golden_status_report();
    let bytes = encode(&report);
    assert_eq!(encode(&Box::new(report.clone())), bytes);
    assert_eq!(encode(&Arc::new(report.clone())), bytes);
    assert_eq!(encoded_len(&Arc::new(report.clone())), bytes.len());
    assert_eq!(digest_fnv1a(&Box::new(report.clone())), digest_fnv1a(&report));
    assert_eq!(*decode::<Box<StatusReport>>(&bytes).unwrap(), report);
    assert_eq!(*decode::<Arc<StatusReport>>(&bytes).unwrap(), report);
    let snapshot = Some(golden_snapshot());
    let shared = decode::<Option<Arc<ArchiveSnapshot>>>(&encode(&snapshot)).unwrap();
    assert_eq!(shared.as_deref(), snapshot.as_ref());
    assert_eq!(encode(&shared), encode(&snapshot));
}

/// One value of every variant of every enum the codec writes, built so
/// that together they reach every struct it writes; handed to `$each`
/// one array of a type at a time.
macro_rules! every_variant {
    ($each:ident) => {{
        let app = AppId { server: ServerAddr(2), seq: 7 };
        let vijay = UserId::new("vijay");
        let client = ClientId { server: ServerAddr(2), seq: 1 };
        let status = AppStatus { phase: AppPhase::Interacting, iteration: 640, progress: 0.5 };
        let readings = || vec![("pressure".to_string(), Value::Float(101.25))];
        let error = WireError::new(ErrorCode::LockHeld, "held by vijay");
        let object = ObjectRef { server: ServerAddr(1), key: ObjectKey::new("apps/2#7") };
        let offer = ServiceOffer {
            service_type: "DISCOVER".into(),
            object: object.clone(),
            properties: vec![("region".into(), Value::Text("east".into()))],
        };
        let descriptor = AppDescriptor {
            app,
            name: "ipars".into(),
            kind: "oilres".into(),
            status: status.clone(),
            privilege: Privilege::ReadWrite,
            interface: golden_interface(),
        };
        let stroke =
            WhiteboardStroke { points: vec![(0.25, 0.5), (0.75, 1.0)], color: 0xff00_00ff };
        let chat = FrozenUpdate::new(UpdateBody::Chat {
            app,
            from: vijay.clone(),
            text: "look at well 3".into(),
        });
        $each!([Privilege::ReadOnly, Privilege::ReadWrite, Privilege::Steer]);
        $each!([
            AppPhase::Computing,
            AppPhase::Interacting,
            AppPhase::Paused,
            AppPhase::Terminated,
        ]);
        $each!([
            AppCommand::Pause,
            AppCommand::Resume,
            AppCommand::Checkpoint,
            AppCommand::Rollback,
            AppCommand::Terminate,
        ]);
        $each!([
            ErrorCode::AuthFailed,
            ErrorCode::NoSuchApp,
            ErrorCode::AccessDenied,
            ErrorCode::LockRequired,
            ErrorCode::LockHeld,
            ErrorCode::BadParameter,
            ErrorCode::Unavailable,
            ErrorCode::BadRequest,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Overloaded,
            ErrorCode::SessionExpired,
        ]);
        $each!([MessageKind::Response, MessageKind::Error, MessageKind::Update]);
        $each!([Channel::Main, Channel::Command, Channel::Response, Channel::Control]);
        $each!([
            ControlEventKind::ServerUp,
            ControlEventKind::ServerDown,
            ControlEventKind::AppRegistered,
            ControlEventKind::AppClosed,
            ControlEventKind::RemoteError,
        ]);
        $each!([HttpMethod::Get, HttpMethod::Post]);
        $each!([
            GiopKind::Request { response_expected: false },
            GiopKind::Reply,
            GiopKind::SystemException,
        ]);
        $each!([
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Text("é∑".into()),
            Value::Vector(vec![0.5, -1.0]),
        ]);
        $each!([
            AppOp::GetStatus,
            AppOp::GetParam("dt".into()),
            AppOp::SetParam("dt".into(), Value::Float(0.01)),
            AppOp::GetSensors,
            AppOp::Command(AppCommand::Checkpoint),
        ]);
        $each!([
            OpOutcome::Status(status.clone()),
            OpOutcome::Param("dt".into(), Value::Float(0.01)),
            OpOutcome::ParamSet("dt".into(), Value::Int(3)),
            OpOutcome::Sensors(readings()),
            OpOutcome::CommandDone(AppCommand::Pause),
        ]);
        $each!([
            ClientRequest::Login { user: vijay.clone(), password: "pw".into() },
            ClientRequest::Logout,
            ClientRequest::ListApplications,
            ClientRequest::SelectApp { app },
            ClientRequest::DeselectApp { app },
            ClientRequest::Op { app, op: AppOp::GetParam("dt".into()) },
            ClientRequest::RequestLock { app },
            ClientRequest::ReleaseLock { app },
            ClientRequest::Poll,
            ClientRequest::JoinSubgroup { app, group: "wells".into() },
            ClientRequest::LeaveSubgroup { app, group: "wells".into() },
            ClientRequest::SetCollabMode { app, broadcast: true },
            ClientRequest::ShareView { app, view: "slice z=3".into() },
            ClientRequest::Chat { app, text: "hi".into() },
            ClientRequest::Whiteboard { app, stroke: stroke.clone() },
            ClientRequest::GetHistory { app, since: 5 },
            ClientRequest::GetMyLog { app, since: 6 },
            ClientRequest::Resume { cookie: 0xbeef, cursors: vec![(app, 9)] },
            ClientRequest::Status,
            ClientRequest::CatchUp { app, since: 42 },
        ]);
        $each!([
            UpdateBody::AppStatus { app, status: status.clone(), readings: readings() },
            UpdateBody::ParamChanged {
                app,
                name: "dt".into(),
                value: Value::Float(0.02),
                by: vijay.clone(),
            },
            UpdateBody::CommandApplied { app, command: AppCommand::Resume, by: vijay.clone() },
            UpdateBody::LockChanged { app, holder: Some(vijay.clone()) },
            UpdateBody::Chat { app, from: vijay.clone(), text: "hi".into() },
            UpdateBody::Whiteboard { app, from: vijay.clone(), stroke: stroke.clone() },
            UpdateBody::ViewShared { app, from: vijay.clone(), view: "slice".into() },
            UpdateBody::MemberJoined { app, user: vijay.clone() },
            UpdateBody::MemberLeft { app, user: vijay.clone() },
            UpdateBody::AppClosed { app },
            UpdateBody::InteractionEcho {
                app,
                by: vijay.clone(),
                outcome: OpOutcome::CommandDone(AppCommand::Pause),
            },
        ]);
        $each!([
            ResponseBody::LoginOk { client, apps: vec![descriptor.clone()] },
            ResponseBody::LogoutOk,
            ResponseBody::Accepted,
            ResponseBody::Apps(vec![descriptor.clone()]),
            ResponseBody::AppSelected {
                app,
                interface: golden_interface(),
                privilege: Privilege::Steer,
            },
            ResponseBody::AppDeselected { app },
            ResponseBody::OpDone { app, outcome: OpOutcome::Sensors(readings()) },
            ResponseBody::LockGranted { app },
            ResponseBody::LockDenied { app, holder: None },
            ResponseBody::LockReleased { app },
            ResponseBody::Batch(vec![ClientMessage::Update(chat.clone())]),
            ResponseBody::SubgroupOk { app, group: "wells".into(), joined: true },
            ResponseBody::CollabModeOk { app, broadcast: false },
            ResponseBody::ClientLog { app, records: golden_tail(), next_seq: 130 },
            ResponseBody::History { app, records: golden_tail(), next_seq: 130 },
            ResponseBody::Resumed { client, apps: vec![app] },
            ResponseBody::Status(Box::new(golden_status_report())),
            ResponseBody::CatchUp {
                app,
                snapshot: Some(Arc::new(golden_snapshot())),
                records: golden_tail(),
                next_seq: 130,
            },
        ]);
        $each!([
            ClientMessage::Response(ResponseBody::LogoutOk),
            ClientMessage::Error(error.clone()),
            ClientMessage::Update(chat.clone()),
        ]);
        $each!([
            AppMsg::Register {
                token: AppToken::new("t-17"),
                name: "ipars".into(),
                kind: "oilres".into(),
                acl: vec![(vijay.clone(), Privilege::Steer)],
                interface: golden_interface(),
                slot: Some(7),
            },
            AppMsg::RegisterAck { app },
            AppMsg::RegisterNak { error: error.clone() },
            AppMsg::Update { app, status: status.clone(), readings: readings() },
            AppMsg::PhaseChange { app, phase: AppPhase::Paused },
            AppMsg::Deregister { app },
            AppMsg::Command { req: RequestId(11), op: AppOp::GetSensors },
            AppMsg::Response { req: RequestId(11), result: Ok(OpOutcome::Sensors(readings())) },
        ]);
        $each!([
            PeerMsg::Authenticate { user: vijay.clone(), password: "pw".into() },
            PeerMsg::ListActive,
            PeerMsg::ProxyOp { app, user: vijay.clone(), op: AppOp::GetStatus },
            PeerMsg::LockRequest { app, user: vijay.clone(), via: ServerAddr(1) },
            PeerMsg::LockRelease { app, user: vijay.clone() },
            PeerMsg::SubscribeApp { app, subscriber: ServerAddr(1) },
            PeerMsg::UnsubscribeApp { app, subscriber: ServerAddr(1) },
            PeerMsg::CollabUpdate { update: chat.clone(), origin: ServerAddr(2) },
            PeerMsg::PollUpdates { app, since: 3, requester: ServerAddr(1) },
            PeerMsg::FetchHistory { app, since: 4 },
            PeerMsg::Control(ControlEvent {
                origin: ServerAddr(2),
                kind: ControlEventKind::AppRegistered,
                detail: "ipars".into(),
            }),
            PeerMsg::NamingBind { name: "DISCOVER/apps/2#7".into(), object: object.clone() },
            PeerMsg::NamingResolve { name: "DISCOVER/apps/2#7".into() },
            PeerMsg::NamingUnbind { name: "DISCOVER/apps/2#7".into() },
            PeerMsg::NamingList { prefix: "DISCOVER/".into() },
            PeerMsg::TraderExport { offer: offer.clone() },
            PeerMsg::TraderWithdraw { object: object.clone() },
            PeerMsg::GramSubmit {
                job: JobSpec {
                    name: "ipars".into(),
                    kind: "oilres".into(),
                    stage_bytes: 1 << 20,
                    est_duration_us: 90_000_000,
                },
            },
            PeerMsg::GramQuery,
            PeerMsg::TraderQuery {
                service_type: "DISCOVER".into(),
                constraints: vec![("region".into(), Value::Text("east".into()))],
            },
        ]);
        $each!([
            PeerReply::AuthOk { apps: vec![descriptor.clone()] },
            PeerReply::AuthDenied,
            PeerReply::Active { apps: vec![descriptor.clone()], users: vec![vijay.clone()] },
            PeerReply::OpResult { app, result: Err(error.clone()) },
            PeerReply::LockDecision { app, granted: true, holder: Some(vijay.clone()) },
            PeerReply::SubscribeOk { app },
            PeerReply::Updates { app, updates: vec![chat.clone()], next_seq: 8 },
            PeerReply::History { app, records: golden_tail(), next_seq: 130 },
            PeerReply::DirectoryOk,
            PeerReply::NamingResolved { object: Some(object.clone()) },
            PeerReply::NamingNames { bindings: vec![("DISCOVER/apps/2#7".into(), object.clone())] },
            PeerReply::GramAccepted { job: 3, eta_us: 1_500_000 },
            PeerReply::GramStatus { free_slots: 2, queued: 1, speed: 1.5 },
            PeerReply::TraderOffers { offers: vec![offer.clone()] },
            PeerReply::Exception(error.clone()),
        ]);
        $each!([
            LogEntry::Request(AppOp::GetSensors),
            LogEntry::Response(Rc::new(OpOutcome::Status(status.clone()))),
            LogEntry::Error(error.clone()),
            LogEntry::Status(status.clone()),
            LogEntry::Update(chat.clone()),
        ]);
        $each!([
            GiopBody::Call(PeerMsg::LockRelease { app, user: vijay.clone() }),
            GiopBody::Return(PeerReply::DirectoryOk),
        ]);
        $each!([GiopFrame {
            kind: GiopKind::Request { response_expected: true },
            request_id: 7,
            target: ObjectKey::from_static("DiscoverCorbaServer"),
            operation: Name::from_static("lockRequest"),
            body: GiopBody::Call(PeerMsg::LockRequest {
                app,
                user: vijay.clone(),
                via: ServerAddr(1),
            }),
        }]);
        $each!([HttpRequest {
            method: HttpMethod::Post,
            path: Name::from_static("/discover/command"),
            session: Some(0xabcd),
            body: Some(ClientRequest::Poll),
        }]);
        $each!([HttpResponse {
            status: 200,
            set_session: Some(7),
            body: vec![ClientMessage::Update(chat.clone())],
        }]);
        $each!([TcpFrame::new(
            Channel::Command,
            AppMsg::Command { req: RequestId(11), op: AppOp::GetStatus },
        )]);
        $each!([SessionId { client, app }]);
    }};
}

/// `(encoded_len, digest_fnv1a)` of each [`every_variant!`] value, in
/// order, measured while the codec was still an adapter to a
/// serializer/visitor framework, before [`Dbp`] replaced it.
const PINNED: &[(usize, u64)] = &[
    (4, 0x4d25_767f_9dce_13f5),   // ReadOnly
    (4, 0xad2a_ca77_4798_5764),   // ReadWrite
    (4, 0x8d1a_ce90_4a39_8d17),   // Steer
    (4, 0x4d25_767f_9dce_13f5),   // Computing
    (4, 0xad2a_ca77_4798_5764),   // Interacting
    (4, 0x8d1a_ce90_4a39_8d17),   // Paused
    (4, 0xed20_2287_f403_d086),   // Terminated
    (4, 0x4d25_767f_9dce_13f5),   // Pause
    (4, 0xad2a_ca77_4798_5764),   // Resume
    (4, 0x8d1a_ce90_4a39_8d17),   // Checkpoint
    (4, 0xed20_2287_f403_d086),   // Rollback
    (4, 0xcd3a_c65e_44f7_21b1),   // Terminate
    (4, 0x4d25_767f_9dce_13f5),   // AuthFailed
    (4, 0xad2a_ca77_4798_5764),   // NoSuchApp
    (4, 0x8d1a_ce90_4a39_8d17),   // AccessDenied
    (4, 0xed20_2287_f403_d086),   // LockRequired
    (4, 0xcd3a_c65e_44f7_21b1),   // LockHeld
    (4, 0x2d40_1a55_eec1_6520),   // BadParameter
    (4, 0x0d30_1e6e_f162_9ad3),   // Unavailable
    (4, 0x6d35_7266_9b2c_de42),   // BadRequest
    (4, 0x4cfa_d6c2_4f7b_f87d),   // DeadlineExceeded
    (4, 0xad00_2ab9_f946_3bec),   // Overloaded
    (4, 0x8cf0_2ed2_fbe7_719f),   // SessionExpired
    (4, 0x4d25_767f_9dce_13f5),   // Response
    (4, 0xad2a_ca77_4798_5764),   // Error
    (4, 0x8d1a_ce90_4a39_8d17),   // Update
    (4, 0x4d25_767f_9dce_13f5),   // Main
    (4, 0xad2a_ca77_4798_5764),   // Command
    (4, 0x8d1a_ce90_4a39_8d17),   // Response
    (4, 0xed20_2287_f403_d086),   // Control
    (4, 0x4d25_767f_9dce_13f5),   // ServerUp
    (4, 0xad2a_ca77_4798_5764),   // ServerDown
    (4, 0x8d1a_ce90_4a39_8d17),   // AppRegistered
    (4, 0xed20_2287_f403_d086),   // AppClosed
    (4, 0xcd3a_c65e_44f7_21b1),   // RemoteError
    (4, 0x4d25_767f_9dce_13f5),   // Get
    (4, 0xad2a_ca77_4798_5764),   // Post
    (5, 0xe4bc_4fd9_252b_e94f),   // Request
    (4, 0xad2a_ca77_4798_5764),   // Reply
    (4, 0x8d1a_ce90_4a39_8d17),   // SystemException
    (5, 0xe4bc_4ed9_252b_e79c),   // Bool
    (12, 0x4137_6616_b5ad_2b65),  // Int
    (12, 0x3ee0_e01a_d2a0_dc93),  // Float
    (13, 0x28e5_ba89_807b_4408),  // Text
    (24, 0xf1d8_0459_1907_0813),  // Vector
    (4, 0x4d25_767f_9dce_13f5),   // GetStatus
    (10, 0x09e0_432e_7922_45f6),  // GetParam
    (22, 0xcb3f_f276_9574_ad11),  // SetParam
    (4, 0xed20_2287_f403_d086),   // GetSensors
    (8, 0x6cd2_341e_a8c8_8a63),   // Command
    (24, 0x6574_3f58_c484_c283),  // Status
    (22, 0xb552_d5e4_3410_006e),  // Param
    (22, 0x2eb8_5d9c_7d6e_2cc7),  // ParamSet
    (32, 0x28d5_5ec1_9015_968f),  // Sensors
    (8, 0x2cdc_dc0d_fc5d_1141),   // CommandDone
    (19, 0x9236_3010_1890_c794),  // Login
    (4, 0xad2a_ca77_4798_5764),   // Logout
    (4, 0x8d1a_ce90_4a39_8d17),   // ListApplications
    (12, 0x6bba_fa60_0bca_4c73),  // SelectApp
    (12, 0x5d49_dc73_1deb_d2a4),  // DeselectApp
    (22, 0xdcea_2ee6_1113_2546),  // Op
    (12, 0x4bd0_77b1_00a2_0dc6),  // RequestLock
    (12, 0x9682_4c21_523f_4e37),  // ReleaseLock
    (4, 0x4cfa_d6c2_4f7b_f87d),   // Poll
    (21, 0x322e_891a_1482_02a5),  // JoinSubgroup
    (21, 0xa764_8325_1598_279c),  // LeaveSubgroup
    (13, 0x588e_b706_6c12_8bce),  // SetCollabMode
    (25, 0x6f66_58da_5f08_cce3),  // ShareView
    (18, 0xef0f_f024_ba12_fa84),  // Chat
    (36, 0xbe14_4804_f3fa_cbbd),  // Whiteboard
    (20, 0xd55c_310d_1d2d_4efa),  // GetHistory
    (20, 0xb455_f583_a4e4_f6b6),  // GetMyLog
    (32, 0x28df_9ca5_eecd_b4f8),  // Resume
    (4, 0x8cc5_8f15_ad95_5627),   // Status
    (20, 0xf978_5128_ff86_a6c9),  // CatchUp
    (60, 0x1f31_fbc6_86c2_dcd3),  // AppStatus
    (39, 0xb05e_214b_9d7e_f469),  // ParamChanged
    (25, 0x82e7_c90f_e06f_8e7d),  // CommandApplied
    (22, 0xda50_bf53_8d5e_cd56),  // LockChanged
    (27, 0xfc04_b988_8fb9_05ed),  // Chat
    (45, 0x1903_5711_31d4_3c14),  // Whiteboard
    (30, 0xd138_ef38_fb31_08fb),  // ViewShared
    (21, 0x826a_9124_33bc_cf29),  // MemberJoined
    (21, 0x3d94_f56d_1141_cc74),  // MemberLeft
    (12, 0x2750_7c24_ff85_d6d9),  // AppClosed
    (29, 0x44b1_1209_a867_a956),  // InteractionEcho
    (142, 0x42c8_6387_a1ec_408d), // LoginOk
    (4, 0xad2a_ca77_4798_5764),   // LogoutOk
    (4, 0x8d1a_ce90_4a39_8d17),   // Accepted
    (134, 0x69f0_bc8f_5994_3fcd), // Apps
    (91, 0x47d2_fd86_9217_16d8),  // AppSelected
    (12, 0xa7fb_b0e3_6f89_1315),  // AppDeselected
    (44, 0xb70b_2777_701c_833c),  // OpDone
    (12, 0x9682_4c21_523f_4e37),  // LockGranted
    (13, 0xca2d_6003_8237_92b8),  // LockDenied
    (12, 0x2750_7c24_ff85_d6d9),  // LockReleased
    (51, 0xacd5_5783_7749_2f10),  // Batch
    (22, 0x62d0_3175_8e54_c15e),  // SubgroupOk
    (13, 0xefdf_0f6e_3b09_92c4),  // CollabModeOk
    (119, 0xc7e0_ffc9_1026_63c7), // ClientLog
    (119, 0x3873_99d2_63d0_0c2e), // History
    (24, 0xf65f_3a90_33a5_6ecd),  // Resumed
    (257, 0xf547_43c0_a59f_0b79), // Status
    (287, 0x868b_aa5f_ea1e_5b46), // CatchUp
    (8, 0x08cd_4c29_d1e4_7d34),   // Response
    (25, 0xa6af_3818_1679_c6e8),  // Error
    (43, 0x1189_d5b0_3352_de55),  // Update
    (128, 0x70a7_958b_6ca4_2cd9), // Register
    (12, 0x7d34_5f22_2914_1151),  // RegisterAck
    (25, 0x3d1d_5910_7704_ebad),  // RegisterNak
    (60, 0x80c9_a0b0_3cda_7690),  // Update
    (16, 0x959e_eef3_81a2_3806),  // PhaseChange
    (12, 0xa7fb_b0e3_6f89_1315),  // Deregister
    (16, 0x9465_8a64_037d_850b),  // Command
    (48, 0x56f6_6f84_4eab_4c7b),  // Response
    (19, 0x9236_3010_1890_c794),  // Authenticate
    (4, 0xad2a_ca77_4798_5764),   // ListActive
    (25, 0xfd54_b9a0_baa0_616a),  // ProxyOp
    (25, 0xb4f1_df3c_c38c_7afc),  // LockRequest
    (21, 0xc972_b057_53eb_cb78),  // LockRelease
    (16, 0xa4a6_6324_81ca_7e54),  // SubscribeApp
    (16, 0x3a7d_7c1e_121a_f1b7),  // UnsubscribeApp
    (47, 0xa6e3_c236_2e1e_8410),  // CollabUpdate
    (24, 0x9246_47d9_709b_ab6a),  // PollUpdates
    (20, 0x6d54_d3be_daaf_947d),  // FetchHistory
    (21, 0x6240_cfba_563b_53a5),  // Control
    (41, 0x64e0_069c_d479_32b0),  // NamingBind
    (25, 0xd497_dcf2_5b49_ee87),  // NamingResolve
    (25, 0xafa4_c58b_96dd_418c),  // NamingUnbind
    (17, 0x75e5_3862_1d5f_89de),  // NamingList
    (58, 0x8ebe_0636_05fa_3712),  // TraderExport
    (20, 0xcdfc_b278_d1c2_cfcb),  // TraderWithdraw
    (39, 0x602f_dd67_42c2_fa9c),  // GramSubmit
    (4, 0x8cc5_8f15_ad95_5627),   // GramQuery
    (42, 0x6d6d_9c8c_c2d4_ed0c),  // TraderQuery
    (134, 0x41ad_1e0a_38ba_622e), // AuthOk
    (4, 0xad2a_ca77_4798_5764),   // AuthDenied
    (147, 0xa36a_864d_2a07_d0fb), // Active
    (37, 0x7bfc_2d40_c5a5_8a7e),  // OpResult
    (23, 0xe96e_1ce1_1a72_c122),  // LockDecision
    (12, 0xa7fb_b0e3_6f89_1315),  // SubscribeOk
    (63, 0xb6e5_c3b5_1d51_db9d),  // Updates
    (119, 0x64bb_93b2_0455_637d), // History
    (4, 0x4cfa_d6c2_4f7b_f87d),   // DirectoryOk
    (21, 0x4e23_707d_9f18_bd69),  // NamingResolved
    (45, 0x11a9_a054_ab75_cd00),  // NamingNames
    (20, 0x9ed7_36f4_e906_1dfa),  // GramAccepted
    (20, 0x21bf_b575_a30d_7bfb),  // GramStatus
    (62, 0x1acf_71ff_c638_4d3d),  // TraderOffers
    (25, 0xde0d_850d_ad44_cb39),  // Exception
    (8, 0x48c2_a43a_7e4f_f656),   // Request
    (28, 0xdd3f_9d41_5edf_e3ae),  // Response
    (25, 0x3d1d_5910_7704_ebad),  // Error
    (24, 0x4de8_7e58_d032_9940),  // Status
    (43, 0x05ac_d367_f03e_76fb),  // Update
    (25, 0x9aa9_0e58_edf1_8428),  // Call
    (8, 0x89a2_916b_ced8_d42c),   // Return
    (80, 0xa847_2935_c23b_7d07),  // GiopFrame
    (39, 0x50df_5e2a_ae3e_d8cd),  // HttpRequest
    (58, 0x64d7_a8c2_c4f6_ef8c),  // HttpResponse
    (20, 0x2335_aced_628c_ecb9),  // TcpFrame
    (16, 0x52e8_8d8e_c047_0b63),  // SessionId
];

/// Every variant encodes exactly as it did: a byte that moves here would
/// move a wire size, and with it every schedule and run log.
#[test]
fn every_variant_encodes_as_pinned() {
    let mut pins = PINNED.iter();
    macro_rules! pinned {
        ($values:expr) => {
            for v in $values {
                let got = (encoded_len(&v), digest_fnv1a(&v));
                assert_eq!(Some(&got), pins.next(), "{v:?}");
            }
        };
    }
    every_variant!(pinned);
    assert_eq!(pins.next(), None, "a pin without a value");
}

/// Every strict prefix of `bytes`, the encoding of `v`, is an error and
/// one byte more is `TrailingBytes(1)`; the whole decodes back to `v`.
fn rejects_cut_and_padded<T: PartialEq + std::fmt::Debug>(
    v: &T,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
) {
    for cut in 0..bytes.len() {
        assert!(decode(&bytes[..cut]).is_err(), "{cut} of {} bytes decoded: {v:?}", bytes.len());
    }
    let padded = [bytes, &[0]].concat();
    assert_eq!(decode(&padded), Err(CodecError::TrailingBytes(1)), "{v:?}");
    assert_eq!(decode(bytes).as_ref(), Ok(v));
}

/// Hostile input on every variant: cut short anywhere, or padded by a
/// byte, an encoding is refused with an error, never a panic.
#[test]
fn every_variant_cut_short_or_padded_is_refused() {
    macro_rules! refused {
        ($values:expr) => {
            for v in $values {
                rejects_cut_and_padded(&v, &encode(&v), |bytes| decode(bytes));
            }
        };
    }
    every_variant!(refused);
}

fn golden_status_report() -> StatusReport {
    let app = AppId { server: ServerAddr(2), seq: 7 };
    StatusReport {
        server: ServerAddr(2),
        at_us: 1_234_567,
        sessions_active: 3,
        sessions_parked: 1,
        admission_in_flight: 2,
        fifo_dropped: 5,
        shed_total: 4,
        apps: vec![AppStatusEntry {
            app,
            name: "ipars-oil-reservoir".into(),
            phase: AppPhase::Interacting,
            lock_holder: Some(UserId::new("vijay")),
            buffered: 1,
            shed_total: 4,
            archive_records: 130,
            archive_snapshots: 2,
            archive_compacted: 17,
            db_records: 9,
        }],
        fifos: vec![
            FifoStatusEntry {
                client: ClientId { server: ServerAddr(2), seq: 1 },
                queued: 12,
                peak: 40,
                dropped: 5,
            },
            FifoStatusEntry {
                client: ClientId { server: ServerAddr(2), seq: 2 },
                queued: 0,
                peak: 3,
                dropped: 0,
            },
        ],
        peers: vec![PeerStatusEntry {
            peer: ServerAddr(1),
            health: "up".into(),
            breaker: "closed".into(),
        }],
        recovered_apps: 1,
        recoveries: 1,
        dir_plane: DirPlaneStatus {
            shards: 4,
            ring_epoch: 3,
            cache_hits: 100,
            cache_misses: 7,
            cache_invalidations: 2,
        },
    }
}

fn golden_snapshot() -> ArchiveSnapshot {
    ArchiveSnapshot {
        seq: 128,
        at_us: 9_000_000,
        state: FoldedAppState {
            status: Some(AppStatus { phase: AppPhase::Computing, iteration: 640, progress: 0.5 }),
            readings: vec![
                ("pressure".into(), Value::Float(101.25)),
                ("wells".into(), Value::Int(12)),
            ],
            params: vec![("inject_rate".into(), Value::Float(2.5))],
            lock_holder: Some(UserId::new("vijay")),
            members: vec![UserId::new("manish"), UserId::new("vijay")],
            closed: false,
            event_records: 31,
            event_digest: 0x0123_4567_89ab_cdef,
        },
    }
}

fn golden_tail() -> Vec<LogRecord> {
    let app = AppId { server: ServerAddr(2), seq: 7 };
    vec![
        LogRecord {
            seq: 128,
            at_us: 9_000_100,
            user: Some(UserId::new("vijay")),
            entry: LogEntry::Request(AppOp::GetSensors),
        },
        LogRecord {
            seq: 129,
            at_us: 9_000_200,
            user: None,
            entry: LogEntry::Update(FrozenUpdate::new(UpdateBody::Chat {
                app,
                from: UserId::new("manish"),
                text: "look at well 3".into(),
            })),
        },
    ]
}

fn golden_interface() -> InteractionSpec {
    InteractionSpec {
        params: vec![("inject_rate".into(), "f64".into(), Value::Float(2.5))],
        sensors: vec!["pressure".into(), "wells".into()],
        commands: vec![AppCommand::Pause, AppCommand::Checkpoint],
    }
}

/// Encodings captured at the last commit that held `StatusReport` and
/// `ArchiveSnapshot` inline in `ResponseBody`: moving a payload behind a
/// pointer moved no byte, so no `wire_size()`, cost-model charge or
/// schedule moved either. `AppSelected` is pinned for the day its
/// `InteractionSpec` follows.
#[test]
fn reply_encodings_pinned_from_the_inline_days() {
    const STATUS: (&[u8], u64) = (
        &[
            0, 0, 0, 0, 16, 0, 0, 0, 2, 0, 0, 0, 135, 214, 18, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0,
            0, 2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0,
            7, 0, 0, 0, 19, 0, 0, 0, 105, 112, 97, 114, 115, 45, 111, 105, 108, 45, 114, 101, 115,
            101, 114, 118, 111, 105, 114, 1, 0, 0, 0, 1, 5, 0, 0, 0, 118, 105, 106, 97, 121, 1, 0,
            0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 130, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 17, 0, 0, 0, 0, 0,
            0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 12, 0, 0, 0, 40, 0,
            0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 117, 112, 6, 0, 0, 0, 99, 108, 111,
            115, 101, 100, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
            100, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
        ],
        0x6913_40ec_3acc_6be9,
    );
    const CATCH_UP_WITH_SNAPSHOT: (&[u8], u64) = (
        &[
            0, 0, 0, 0, 17, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 1, 128, 0, 0, 0, 0, 0, 0, 0, 64, 84,
            137, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 128, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63,
            2, 0, 0, 0, 8, 0, 0, 0, 112, 114, 101, 115, 115, 117, 114, 101, 2, 0, 0, 0, 0, 0, 0, 0,
            0, 80, 89, 64, 5, 0, 0, 0, 119, 101, 108, 108, 115, 1, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0,
            0, 1, 0, 0, 0, 11, 0, 0, 0, 105, 110, 106, 101, 99, 116, 95, 114, 97, 116, 101, 2, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 4, 64, 1, 5, 0, 0, 0, 118, 105, 106, 97, 121, 2, 0, 0, 0, 6, 0,
            0, 0, 109, 97, 110, 105, 115, 104, 5, 0, 0, 0, 118, 105, 106, 97, 121, 0, 31, 0, 0, 0,
            0, 0, 0, 0, 239, 205, 171, 137, 103, 69, 35, 1, 2, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0,
            164, 84, 137, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 118, 105, 106, 97, 121, 0, 0, 0, 0, 3, 0,
            0, 0, 129, 0, 0, 0, 0, 0, 0, 0, 8, 85, 137, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0,
            2, 0, 0, 0, 7, 0, 0, 0, 6, 0, 0, 0, 109, 97, 110, 105, 115, 104, 14, 0, 0, 0, 108, 111,
            111, 107, 32, 97, 116, 32, 119, 101, 108, 108, 32, 51, 130, 0, 0, 0, 0, 0, 0, 0,
        ],
        0x567e_49ee_c2fe_a116,
    );
    const CATCH_UP_BARE: (&[u8], u64) = (
        &[
            0, 0, 0, 0, 17, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 0, 2, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0,
            0, 164, 84, 137, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 118, 105, 106, 97, 121, 0, 0, 0, 0, 3,
            0, 0, 0, 129, 0, 0, 0, 0, 0, 0, 0, 8, 85, 137, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0,
            0, 2, 0, 0, 0, 7, 0, 0, 0, 6, 0, 0, 0, 109, 97, 110, 105, 115, 104, 14, 0, 0, 0, 108,
            111, 111, 107, 32, 97, 116, 32, 119, 101, 108, 108, 32, 51, 130, 0, 0, 0, 0, 0, 0, 0,
        ],
        0x6ca5_4c4b_9769_d211,
    );
    const APP_SELECTED: (&[u8], u64) = (
        &[
            0, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 11, 0, 0, 0, 105, 110, 106,
            101, 99, 116, 95, 114, 97, 116, 101, 3, 0, 0, 0, 102, 54, 52, 2, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 4, 64, 2, 0, 0, 0, 8, 0, 0, 0, 112, 114, 101, 115, 115, 117, 114, 101, 5, 0, 0,
            0, 119, 101, 108, 108, 115, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0,
        ],
        0xecba_87ea_3722_fb08,
    );
    let app = AppId { server: ServerAddr(2), seq: 7 };
    let replies = [
        (ResponseBody::Status(Box::new(golden_status_report())), STATUS),
        (
            ResponseBody::CatchUp {
                app,
                snapshot: Some(Arc::new(golden_snapshot())),
                records: golden_tail(),
                next_seq: 130,
            },
            CATCH_UP_WITH_SNAPSHOT,
        ),
        (
            ResponseBody::CatchUp { app, snapshot: None, records: golden_tail(), next_seq: 130 },
            CATCH_UP_BARE,
        ),
        (
            ResponseBody::AppSelected {
                app,
                interface: golden_interface(),
                privilege: Privilege::Steer,
            },
            APP_SELECTED,
        ),
    ];
    for (reply, (bytes, digest)) in replies {
        let message = ClientMessage::Response(reply);
        assert_eq!(&encode(&message)[..], bytes, "{message:?}");
        assert_eq!(encoded_len(&message), bytes.len());
        assert_eq!(digest_fnv1a(&message), digest);
        assert_eq!(decode::<ClientMessage>(bytes).unwrap(), message);
    }
}
