//! End-to-end tests of the scenario checker itself.
//!
//! The **mutation** tests prove the oracles have teeth: with the
//! test-only double-grant bug seeded, the linearizability checker must
//! reject the run and the shrinker must cut the reproduction to a
//! handful of events — and the same scenarios with the bug disarmed
//! must pass every oracle. (The determinism-and-no-false-positive sweep
//! over every family, and every mutation against its oracle, run in the
//! root package's `tests/scenarios.rs`, so tier-1 covers them.)

use discover_check::lin::LinKind;
use discover_check::oracle::{build_lock_ops, check_run};
use discover_check::run::run;
use discover_check::scenario::Scenario;
use discover_check::shrink::shrink;
use discover_check::Mutation;

#[test]
fn mutation_double_grant_is_detected_and_shrinks_small() {
    let scenario = Scenario::mutation(1);
    assert_eq!(scenario.mutation, Some(Mutation::DoubleGrant));
    let result = run(&scenario);

    // The injected fault hands the lock to a second user while the
    // first still holds it; the history must contain two grants…
    let grants = build_lock_ops(&result).iter().filter(|o| o.kind == LinKind::Granted).count();
    assert!(grants >= 2, "expected both grants to be observed, got {grants}");

    // …and the linearizability oracle must reject it.
    let violations = check_run(&result);
    assert!(
        violations.iter().any(|v| v.oracle == "linearizability"),
        "double grant not detected; violations: {violations:?}"
    );

    // The shrunk reproduction stays tiny and still fails.
    let shrunk =
        shrink(&scenario, |s| check_run(&run(s)).iter().any(|v| v.oracle == "linearizability"));
    assert!(
        shrunk.event_count() <= 10,
        "shrunk to {} events, expected <= 10:\n{}",
        shrunk.event_count(),
        shrunk.describe()
    );
    let confirm = check_run(&run(&shrunk));
    assert!(
        confirm.iter().any(|v| v.oracle == "linearizability"),
        "shrunk scenario no longer reproduces the violation"
    );
}

#[test]
fn mutation_disabled_passes_cleanly() {
    // The same tiny scenario without the fault must satisfy every oracle.
    let mut scenario = Scenario::mutation(1);
    scenario.mutation = None;
    let violations = check_run(&run(&scenario));
    assert!(violations.is_empty(), "clean run flagged: {violations:?}");
}

#[test]
fn mutation_skipped_snapshot_is_detected() {
    // With the skip fault armed the snapshot oracle must fire on the
    // broken cadence…
    let scenario = Scenario::mutation_snapshot(1);
    assert_eq!(scenario.mutation, Some(Mutation::SkipSnapshot));
    let violations = check_run(&run(&scenario));
    assert!(
        violations.iter().any(|v| v.oracle == "snapshot"),
        "skipped snapshots not detected; violations: {violations:?}"
    );

    // …and the identical scenario without the fault must satisfy every
    // oracle, including the cadence equality it just tripped.
    let mut clean = scenario.clone();
    clean.mutation = None;
    let violations = check_run(&run(&clean));
    assert!(violations.is_empty(), "clean snapshotting run flagged: {violations:?}");
}

#[test]
fn mutation_compacted_requests_are_detected_only_when_armed() {
    // Under the production profile the seeded compaction bug drops a
    // request from a closed segment, and the archive no longer folds to
    // its snapshot…
    let scenario = Scenario::mutation_compaction(1);
    assert_eq!(scenario.mutation, Some(Mutation::CompactRequests));
    let violations = check_run(&run(&scenario));
    assert!(
        violations.iter().any(|v| v.oracle == "snapshot"),
        "dropped requests not detected; violations: {violations:?}"
    );

    // …while the same composed scenario without the bug passes every
    // oracle, the differential one against the paper's stack included.
    let mut clean = scenario.clone();
    clean.mutation = None;
    let violations = check_run(&run(&clean));
    assert!(violations.is_empty(), "clean production run flagged: {violations:?}");
}

#[test]
fn mutation_forgotten_ops_are_detected_only_when_armed() {
    // A host that forgets its accepted operations on a restart from the
    // archive never answers the read it had buffered, which the paper's
    // stack answers after the restart…
    let scenario = Scenario::mutation_restart(1);
    assert_eq!(scenario.mutation, Some(Mutation::ForgetAccepted));
    let violations = check_run(&run(&scenario));
    assert!(
        violations.iter().any(|v| v.oracle == "differential"),
        "forgotten operation not detected; violations: {violations:?}"
    );

    // …while the host that keeps them answers it, and passes every oracle.
    let mut clean = scenario.clone();
    clean.mutation = None;
    let result = run(&clean);
    assert_eq!(discover_check::run::op_done(result.portal(0), result.app), 1, "the read");
    let violations = check_run(&result);
    assert!(violations.is_empty(), "clean restart flagged: {violations:?}");
}
