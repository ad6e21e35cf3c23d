//! Every workload's repetition passes its own checks, and recording
//! spans changes nothing a run counts.

use discover_wallbench::rep::Rep;
use discover_wallbench::sim;
use discover_wallbench::spans::{self, Layer};
use discover_wallbench::spec::Workload;
use discover_wallbench::wire_ingress;

const SIMULATED: [Workload; 4] = [
    Workload::SteerLocal,
    Workload::FanoutSteady,
    Workload::StormOverload,
    Workload::MeshRemote,
];

#[test]
fn traced_and_untraced_repetitions_count_the_same() {
    for shape in SIMULATED {
        let plain = sim::run_rep::<false>(shape, 11).unwrap_or_else(|e| panic!("{shape:?}: {e}"));
        spans::reset();
        let traced =
            sim::run_rep::<true>(shape, 11).unwrap_or_else(|e| panic!("{shape:?} traced: {e}"));
        let report = spans::take();
        let counts = |r: &Rep| {
            (
                r.events,
                r.issued,
                r.completed,
                r.failed,
                r.chats,
                r.deliveries,
                r.fifo_enqueued,
            )
        };
        assert_eq!(counts(&plain), counts(&traced), "{shape:?}");
        assert_eq!(plain.failed, 0, "{shape:?}");
        // One root span per slice (an engine run); their children are
        // handler calls, never more than the events the engine popped.
        assert_eq!(report.layer(Layer::Engine).calls, sim::SLICES, "{shape:?}");
        assert!(
            report.handler_calls > 0 && report.handler_calls <= traced.events,
            "{shape:?}"
        );
        assert_eq!(report.self_ns_sum(), report.root_ns, "{shape:?}");
    }
}

#[test]
fn same_seed_same_counts_other_seed_other_inputs() {
    let a = sim::run_rep::<false>(Workload::MeshRemote, 5).unwrap();
    let b = sim::run_rep::<false>(Workload::MeshRemote, 5).unwrap();
    let c = sim::run_rep::<false>(Workload::MeshRemote, 6).unwrap();
    assert_eq!(
        (a.events, a.completed, a.deliveries),
        (b.events, b.completed, b.deliveries)
    );
    assert_ne!(
        (a.events, a.completed, a.deliveries),
        (c.events, c.completed, c.deliveries)
    );
}

#[test]
fn wire_bytes_path_equals_typed_path() {
    wire_ingress::differential_check(21).unwrap();
    assert_ne!(wire_ingress::script(21, 200), wire_ingress::script(22, 200));
    assert_eq!(wire_ingress::script(21, 200), wire_ingress::script(21, 200));
}

#[test]
fn wire_repetition_answers_every_request() {
    let plain = wire_ingress::run_rep::<false>(9).unwrap();
    spans::reset();
    let traced = wire_ingress::run_rep::<true>(9).unwrap();
    let report = spans::take();
    assert_eq!(plain.issued as usize, wire_ingress::REQUESTS_PER_REP);
    assert_eq!((plain.completed, plain.failed), (plain.issued, 0));
    assert_eq!(
        (plain.completed, plain.deliveries, plain.events),
        (traced.completed, traced.deliveries, traced.events)
    );
    assert_eq!(plain.latencies_ns.len(), wire_ingress::REQUESTS_PER_REP);
    // Each request is decoded once per direction it has a body in, and
    // dispatched to the server exactly once.
    assert_eq!(report.layer(Layer::StandaloneDispatch).calls, traced.issued);
    assert!(report.layer(Layer::DecodeBorrowed).calls >= traced.issued);
    assert_eq!(report.self_ns_sum(), report.root_ns);
}
