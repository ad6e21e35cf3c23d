//! E18: hot-path delivery — coalesced FIFOs, one-envelope batches and
//! zero-copy ingress under a steering/telemetry storm.
//!
//! The paper worries about exactly this regime: "The poll and pull
//! mechanism makes it necessary to maintain FIFO buffers at the server
//! for each client", with explicit memory/performance overhead concerns
//! at large collaboration groups. Three optimisations are measured
//! together here:
//!
//! 1. **FIFO update coalescing** (`coalesce_fifo`): a view-class update
//!    replaces its still-queued superseded predecessor in place, so a
//!    slow poller receives the freshest state instead of a backlog.
//! 2. **One-envelope batch delivery**: a poll's whole drained batch
//!    ships behind a single framing header (`ResponseBody::Batch`)
//!    rather than one envelope per message.
//! 3. **Zero-copy ingress decode**: a frozen update decoded from a
//!    receive buffer adopts a refcounted slice of that buffer — after
//!    the origin serialization the payload is never copied or re-walked
//!    on the portal → home server → peer server transit.
//!
//! The storm: one hot application emitting 10 status updates/s plus a
//! closed-loop steerer hammering `SetParam`, watched by a viewer group
//! swept over 64/256/512 slow pollers with coalescing enabled. The
//! wire-transit fidelity stage proves (3) at the codec level, where real
//! bytes exist (simulated links carry typed envelopes, so byte-level
//! ingress only happens at codec boundaries).
//!
//! Artifacts: `BENCH_E18.json` at the repo root (stable schema, CI
//! diffs two same-seed runs for byte-identity) and the usual CSV.

use appsim::synthetic_app;
use discover_client::{OpMix, PortalConfig, Workload};
use discover_core::CollaboratoryBuilder;
use simnet::{names, SimDuration, SimTime};
use wire::http::HttpResponse;
use wire::{
    codec, AppId, AppPhase, AppStatus, Envelope, FrozenUpdate, PeerMsg, Privilege, ServerAddr,
    UpdateBody, UserId, Value,
};

use crate::fixtures;
use crate::report::{f2, BenchSummary, Table};

const HOTPATH_SEED: u64 = 1800;
/// Length of the steady-state measurement window.
const MEASURE_SECS: u64 = 30;
/// The viewer-group sweep.
const CONFIGS: [usize; 3] = [64, 256, 512];

/// Warmup until the login/select/MemberJoined storm has drained (the
/// join broadcast is O(N²) in group size; see E14).
fn warmup_secs(collabs: usize) -> u64 {
    if collabs >= 256 {
        60
    } else {
        20
    }
}

/// Slow pollers are the point of this experiment: the longer the poll
/// period, the more superseded telemetry a coalescing slot absorbs.
fn poll_every(collabs: usize) -> SimDuration {
    if collabs >= 256 {
        SimDuration::from_secs(4)
    } else {
        SimDuration::from_secs(2)
    }
}

/// Counter deltas over one storm configuration's measurement window.
#[derive(Clone, Debug, PartialEq)]
struct StormRun {
    collabs: usize,
    enqueued: u64,
    coalesced: u64,
    fifo_dropped: u64,
    polls: u64,
    nonempty: u64,
    delivered: u64,
    http_requests: u64,
    http_responses: u64,
    broadcasts: u64,
    encode_calls: u64,
    encode_copy_bytes: u64,
    drain_reuses: u64,
}

impl StormRun {
    /// Fraction of accepted FIFO messages absorbed by coalescing —
    /// deliveries the poll channel never had to carry.
    fn coalesce_frac(&self) -> f64 {
        self.coalesced as f64 / self.enqueued.max(1) as f64
    }
    /// Envelopes per request: exactly 1.0 means every poll's batch rode
    /// one framing header (HTTP is strictly request-response, and the
    /// poll handler answers with a single `ResponseBody::Batch`).
    fn frames_per_poll(&self) -> f64 {
        self.http_responses as f64 / self.http_requests.max(1) as f64
    }
    /// Messages per delivering envelope — the batching win over a
    /// one-envelope-per-message scheme.
    fn messages_per_envelope(&self) -> f64 {
        self.delivered as f64 / self.nonempty.max(1) as f64
    }
}

/// Framing overhead of one poll-response envelope (status line, cookie
/// slot, empty body vector): what every message beyond the first in a
/// batch does NOT pay again.
fn envelope_overhead_bytes() -> u64 {
    Envelope::http_response(HttpResponse { status: 200, set_session: None, body: Vec::new() })
        .wire_size() as u64
}

/// Wire size of a representative storm status update, for the
/// bytes-saved-by-coalescing estimate.
fn representative_update_bytes() -> u64 {
    let update = UpdateBody::AppStatus {
        app: AppId { server: ServerAddr(1), seq: 0 },
        status: AppStatus { phase: AppPhase::Computing, iteration: 1000, progress: 0.5 },
        readings: vec![
            ("accumulated".to_string(), Value::Float(123.456)),
            ("iteration".to_string(), Value::Int(1000)),
        ],
    };
    codec::encoded_len(&update) as u64
}

fn run_storm(collabs: usize) -> StormRun {
    let mut b = CollaboratoryBuilder::new(HOTPATH_SEED + collabs as u64);
    // The whole point of this experiment: the hot-path delivery
    // optimisations on (the tweak applies to servers created after it).
    // Everything else stays at defaults so the run isolates their effect.
    b.tweak_servers(|cfg| cfg.coalesce_fifo = true);
    let srv = b.server("server0");
    let viewers_acl = fixtures::acl_users(collabs, Privilege::ReadOnly);
    let mut acl: Vec<(&str, Privilege)> =
        viewers_acl.iter().map(|(u, p)| (u.as_str(), *p)).collect();
    acl.push(("steerer", Privilege::Steer));
    let app_cfg = fixtures::hot_app_config("storm0", &acl); // 10 updates/s
    let (_, app) = b.application(srv, synthetic_app(2, u64::MAX), app_cfg);
    // The steering half of the storm: a closed-loop writer whose
    // `ParamChanged` broadcasts coalesce per parameter slot.
    let steer_cfg = PortalConfig::new("steerer")
        .select_app(app)
        .poll_every(SimDuration::from_millis(500))
        .workload(Workload::new(app, OpMix::steering_only(), SimDuration::from_millis(200)));
    b.portal(srv, "steerer", steer_cfg);
    // The telemetry audience: slow pollers, logins spread across the
    // warmup window (see E14's join-storm note).
    let mut viewers = Vec::new();
    for (i, (u, _)) in viewers_acl.iter().enumerate() {
        let mut cfg = PortalConfig::new(u).select_app(app).poll_every(poll_every(collabs));
        cfg.login_delay = SimDuration::from_millis(200 + (i as u64 * 15) % 7800);
        viewers.push(b.portal(srv, &format!("viewer{i}"), cfg));
    }
    let mut c = b.build();

    let warmup = warmup_secs(collabs);
    c.engine.run_until(SimTime::from_secs(warmup));
    let wire0 = codec::stats();
    let at = |key: &str| c.engine.stats().counter(key);
    let base: Vec<u64> = [
        names::WEBSERV_FIFO_ENQUEUED,
        names::WEBSERV_FIFO_COALESCED,
        names::WEBSERV_FIFO_DROPPED,
        names::SERVER_POLL_REQUESTS,
        names::SERVER_POLL_NONEMPTY,
        names::SERVER_POLL_DELIVERED,
        names::SERVER_HTTP_REQUESTS,
        names::SERVER_HTTP_RESPONSES,
        names::SERVER_COLLAB_BROADCASTS,
    ]
    .iter()
    .map(|d| at(d.key()))
    .collect();
    c.engine.run_until(SimTime::from_secs(warmup + MEASURE_SECS));
    let wire1 = codec::stats();
    let stats = c.engine.stats();
    let delta = |i: usize, d: &simnet::CounterDef| stats.counter(d.key()) - base[i];
    StormRun {
        collabs,
        enqueued: delta(0, &names::WEBSERV_FIFO_ENQUEUED),
        coalesced: delta(1, &names::WEBSERV_FIFO_COALESCED),
        fifo_dropped: delta(2, &names::WEBSERV_FIFO_DROPPED),
        polls: delta(3, &names::SERVER_POLL_REQUESTS),
        nonempty: delta(4, &names::SERVER_POLL_NONEMPTY),
        delivered: delta(5, &names::SERVER_POLL_DELIVERED),
        http_requests: delta(6, &names::SERVER_HTTP_REQUESTS),
        http_responses: delta(7, &names::SERVER_HTTP_RESPONSES),
        broadcasts: delta(8, &names::SERVER_COLLAB_BROADCASTS),
        encode_calls: wire1.encode_calls - wire0.encode_calls,
        encode_copy_bytes: wire1.encode_copy_bytes - wire0.encode_copy_bytes,
        drain_reuses: wire1.drain_reuses - wire0.drain_reuses,
    }
}

/// Codec-level wire-transit fidelity: one update crossing
/// portal → home server → peer server as real bytes.
#[derive(Clone, Debug, PartialEq)]
struct Fidelity {
    post_origin_copies: u64,
    ingress_slices: u64,
    payload_reencode_walks: u64,
    byte_identical: bool,
    peer_payload_borrows_ingress: bool,
}

fn wire_transit_fidelity() -> Fidelity {
    let update = FrozenUpdate::new(UpdateBody::ParamChanged {
        app: AppId { server: ServerAddr(1), seq: 0 },
        name: "knob0".to_string(),
        value: Value::Float(0.75),
        by: UserId::new("steerer"),
    });
    let origin_payload = update.bytes().clone();
    // Origin: the home server freezes and frames the push exactly once.
    let origin_frame = codec::encode(&PeerMsg::CollabUpdate { update, origin: ServerAddr(1) });
    let s0 = codec::stats();
    // Hop 1 ingress: the subscribing peer borrow-decodes the frame.
    let at_peer: PeerMsg = codec::decode_borrowed(&origin_frame).expect("peer decode");
    // Relay re-frame: re-encoding the decoded message splices the
    // adopted payload bytes — no serializer walk over the update.
    let relay_frame = codec::encode(&at_peer);
    // Hop 2 ingress: the next server in the chain borrow-decodes again.
    let relayed: PeerMsg = codec::decode_borrowed(&relay_frame).expect("relay decode");
    let s1 = codec::stats();
    let final_payload = match &relayed {
        PeerMsg::CollabUpdate { update, .. } => update.bytes().clone(),
        other => panic!("unexpected {other:?}"),
    };
    Fidelity {
        post_origin_copies: s1.ingress_copies - s0.ingress_copies,
        ingress_slices: s1.ingress_slices - s0.ingress_slices,
        // Every post-origin encode walk beyond the two frame headers
        // would be a payload re-serialization; splices replace them.
        payload_reencode_walks: (s1.encode_calls - s0.encode_calls)
            .saturating_sub(1)
            .saturating_sub(s1.payload_splices - s0.payload_splices),
        byte_identical: relay_frame.as_slice() == origin_frame.as_slice()
            && final_payload.as_slice() == origin_payload.as_slice(),
        peer_payload_borrows_ingress: final_payload.shares_storage(&relay_frame),
    }
}

fn summarize(runs: &[StormRun], fid: &Fidelity) -> BenchSummary {
    let mut s = BenchSummary::new("e18", HOTPATH_SEED);
    let overhead = envelope_overhead_bytes();
    let est_update = representative_update_bytes();
    for r in runs {
        let key = format!("g{}", r.collabs);
        s.metric_u64(format!("{key}.enqueued"), r.enqueued);
        s.metric_u64(format!("{key}.coalesced"), r.coalesced);
        s.metric_u64(format!("{key}.fifo_dropped"), r.fifo_dropped);
        s.metric_u64(format!("{key}.polls"), r.polls);
        s.metric_u64(format!("{key}.nonempty_polls"), r.nonempty);
        s.metric_u64(format!("{key}.delivered"), r.delivered);
        s.metric_u64(format!("{key}.broadcasts"), r.broadcasts);
        s.metric_u64(format!("{key}.drain_reuses"), r.drain_reuses);
        s.metric_u64(format!("{key}.encode_copy_bytes"), r.encode_copy_bytes);
        s.metric_f64(format!("{key}.coalesce_frac"), r.coalesce_frac());
        s.metric_f64(format!("{key}.frames_per_poll"), r.frames_per_poll());
        s.metric_f64(format!("{key}.messages_per_envelope"), r.messages_per_envelope());
        s.metric_u64(
            format!("{key}.batch_header_bytes_saved"),
            r.delivered.saturating_sub(r.nonempty) * overhead,
        );
        s.metric_u64(format!("{key}.est_coalesce_bytes_saved"), r.coalesced * est_update);
    }
    s.metric_u64("fidelity.post_origin_copies", fid.post_origin_copies);
    s.metric_u64("fidelity.ingress_slices", fid.ingress_slices);
    s.metric_u64("fidelity.payload_reencode_walks", fid.payload_reencode_walks);
    s.metric_u64("fidelity.byte_identical", fid.byte_identical as u64);
    s.metric_u64("fidelity.peer_payload_borrows_ingress", fid.peer_payload_borrows_ingress as u64);
    s
}

/// E18: the storm sweep plus the wire-transit fidelity stage.
pub fn e18_hot_path_delivery() -> Table {
    let mut table = Table::new(
        "E18",
        "hot-path delivery: coalesced FIFOs, one-envelope batches, zero-copy ingress",
        "\"maintain FIFO buffers at the server for each client to support slow clients\" (§6.2) — the storm regime where per-client buffering, per-message framing and per-hop payload copies would dominate",
        &[
            "collabs", "enqueued", "coalesced", "frac", "polls", "delivered", "msg/env",
            "frames/poll", "hdr_kB_saved",
        ],
    );
    let runs: Vec<StormRun> = CONFIGS.iter().map(|&g| run_storm(g)).collect();
    let fid = wire_transit_fidelity();
    let overhead = envelope_overhead_bytes();
    for r in &runs {
        table.row(vec![
            r.collabs.to_string(),
            r.enqueued.to_string(),
            r.coalesced.to_string(),
            f2(r.coalesce_frac()),
            r.polls.to_string(),
            r.delivered.to_string(),
            f2(r.messages_per_envelope()),
            f2(r.frames_per_poll()),
            f2((r.delivered.saturating_sub(r.nonempty) * overhead) as f64 / 1024.0),
        ]);
    }
    // Acceptance: the 512-viewer storm coalesces at least 30% of
    // accepted messages, every poll ships one envelope, and the payload
    // is never copied after origin.
    let g512 = runs.iter().find(|r| r.collabs == 512).expect("g512 configured");
    table.note(if g512.coalesce_frac() >= 0.30 {
        format!(
            "coalescing: {:.1}% of accepted messages absorbed at 512 viewers (>= 30% target)",
            g512.coalesce_frac() * 100.0
        )
    } else {
        format!(
            "coalescing VIOLATION: only {:.1}% absorbed at 512 viewers (target 30%)",
            g512.coalesce_frac() * 100.0
        )
    });
    let one_envelope = runs.iter().all(|r| (r.frames_per_poll() - 1.0).abs() < 1e-9);
    table.note(if one_envelope {
        "batching: exactly one response envelope per request in every configuration".to_string()
    } else {
        "batching VIOLATION: some request produced more than one envelope".to_string()
    });
    table.note(
        if fid.post_origin_copies == 0
            && fid.payload_reencode_walks == 0
            && fid.byte_identical
            && fid.peer_payload_borrows_ingress
        {
            format!(
                "zero-copy transit: 0 post-origin payload copies, 0 re-encode walks, {} borrowed ingress slices, frames byte-identical across hops",
                fid.ingress_slices
            )
        } else {
            format!("zero-copy VIOLATION: {fid:?}")
        },
    );
    let no_copy_finalize = runs.iter().all(|r| r.encode_copy_bytes == 0);
    table.note(if no_copy_finalize {
        "encode finalization: zero memcpy'd bytes — every output split off the pooled buffer by refcount".to_string()
    } else {
        "encode finalization VIOLATION: a copying finalizer ran".to_string()
    });
    let summary = summarize(&runs, &fid);
    // Determinism: the sweep re-run under the same seeds must reproduce
    // the summary byte for byte (coalescing must not perturb the event
    // schedule, only the FIFO contents).
    let again: Vec<StormRun> = CONFIGS.iter().map(|&g| run_storm(g)).collect();
    let fid_again = wire_transit_fidelity();
    table.note(if summarize(&again, &fid_again).to_json() == summary.to_json() {
        "determinism: two same-seed sweeps produced byte-identical BENCH_E18.json contents"
            .to_string()
    } else {
        "determinism VIOLATION: same-seed sweeps disagree".to_string()
    });
    summary.write_repo_root(&mut table);
    table
}
