//! Tier-1 smoke run of the scenario checker (`discover-check`): a few
//! seeds of every fuzz family against every oracle, and every seeded
//! mutation against the oracle that exists to catch it, with every
//! family's run log and flight dump pinned byte for byte. The CI
//! `scenario-check` job sweeps 50 seeds and also shrinks; this keeps the
//! root `cargo test` honest in under a second.

use discover_check::features::Features;
use discover_check::oracle::check_run;
use discover_check::run::run;
use discover_check::scenario::{
    Action, ActionKind, CrashSpec, Family, FaultSpec, PartitionSpec, Scenario, UserSpec,
};
use discover_check::{mutation_case, Mutation};
use wire::codec::digest_fnv1a;
use wire::Privilege;

/// `digest_fnv1a` of each (family, seed) run's `run_log` and `flight`,
/// in `Family::ALL` order, seeds 0..3. A change that moves any history
/// event, observation, archive figure or flight-ring line of these runs
/// fails here; a change that means to must say why and update the table.
const RUN_DIGESTS: [(&str, u64, u64, u64); 27] = [
    ("locks", 0, 0x881a_b855_6a8c_32aa, 0x8eb3_4928_88fc_9d85),
    ("locks", 1, 0x8a22_a156_5841_8fc4, 0x263d_320e_92a6_fdb9),
    ("locks", 2, 0x2ffa_1448_b40d_300e, 0xd4b1_eb23_edfc_ce10),
    ("acl", 0, 0x7569_fb09_80b4_5813, 0xcf2f_b010_c714_4d4a),
    ("acl", 1, 0x0e88_cd7c_455d_db65, 0x3782_d14e_b2be_861e),
    ("acl", 2, 0x5bb5_d47d_1759_10d4, 0xe00c_ca0a_d123_5136),
    ("replay", 0, 0x027b_2469_b70f_a960, 0x8a39_02b4_e64b_6d96),
    ("replay", 1, 0xd903_2a5a_b825_093c, 0x4489_10d9_da4f_55ca),
    ("replay", 2, 0xf647_2f21_0da1_2ea7, 0xa280_629b_75ca_940c),
    ("churn", 0, 0x4dab_e944_74f5_4496, 0xad45_c2c0_1261_80b7),
    ("churn", 1, 0x162b_0073_90c7_ef18, 0x4b90_a6a2_c985_a63c),
    ("churn", 2, 0x870d_9529_86b8_8a16, 0x93c6_413a_79e5_701b),
    ("flashcrowd", 0, 0xcdeb_50b1_b848_3970, 0xa288_4bba_c88a_fe07),
    ("flashcrowd", 1, 0x7637_ab87_7bf1_3aaf, 0x561d_78c8_64a7_967c),
    ("flashcrowd", 2, 0x96b1_ab4c_910c_b20e, 0x3556_f988_a6f6_bbd7),
    ("slowconsumer", 0, 0xb683_a706_ce00_9d69, 0x037a_1354_cc64_7631),
    ("slowconsumer", 1, 0x29aa_4653_76b1_f3b6, 0x1577_8b9c_2cb7_9ae6),
    ("slowconsumer", 2, 0x6544_1aab_f2b5_8987, 0x32ae_7ff7_9201_8bef),
    ("recovery", 0, 0x48c4_9759_e48c_14c5, 0x9bdc_c46d_517a_6658),
    ("recovery", 1, 0x7f5b_5241_26c2_8550, 0x2832_7d42_8e9a_a15c),
    ("recovery", 2, 0x9eb4_f5af_d762_201e, 0x82fd_8192_91cc_eeb3),
    ("discovery", 0, 0x4546_81c2_211d_6762, 0x4c70_0208_9610_c418),
    ("discovery", 1, 0x5b16_2ca4_39d1_855a, 0x663b_d950_b045_ea09),
    ("discovery", 2, 0xc583_3d87_dc9d_782d, 0x2e51_aaa5_3393_9237),
    ("composed", 0, 0x02b7_98bf_f14a_f19d, 0x037a_1354_cc64_7631),
    ("composed", 1, 0x1b35_8089_e02a_d9fd, 0x6eca_ae0c_3e40_9426),
    ("composed", 2, 0x6194_609d_861a_914c, 0x61e6_d860_f2a2_a8ee),
];

#[test]
fn every_family_runs_deterministically_and_trips_no_oracle() {
    let mut pinned = RUN_DIGESTS.iter();
    for family in Family::ALL {
        for seed in 0..3u64 {
            let scenario = Scenario::generate(family, seed);
            let first = run(&scenario);
            let second = run(&scenario);
            assert_eq!(
                first.run_log,
                second.run_log,
                "nondeterministic run for {} seed {seed}",
                family.name()
            );
            let &(name, pinned_seed, log, flight) = pinned.next().expect("a digest per run");
            assert_eq!((name, pinned_seed), (family.name(), seed), "table order");
            assert_eq!(
                (digest_fnv1a(&first.run_log), digest_fnv1a(&first.flight)),
                (log, flight),
                "{name} seed {seed}: run log or flight dump differs from the pinned bytes"
            );
            let violations = check_run(&first);
            assert!(
                violations.is_empty(),
                "oracle fired on clean stack, {} seed {seed}: {violations:?}",
                family.name()
            );
        }
    }
}

#[test]
fn every_mutation_trips_its_oracle() {
    for mutation in Mutation::ALL {
        let (scenario, oracle) = mutation_case(mutation);
        assert_eq!(scenario.mutation, Some(mutation), "the table arms what it names");
        let violations = check_run(&run(&scenario));
        assert!(
            violations.iter().any(|v| v.oracle == oracle),
            "{mutation:?} not detected by the {oracle} oracle; violations: {violations:?}"
        );
        for v in &violations {
            assert!(
                !v.detail.contains("  "),
                "{} detail has a run of spaces: {:?}",
                v.oracle,
                v.detail
            );
        }
    }
}

/// A scripted user's request survives a restart from the archive,
/// whether it waited in the restarting server's Daemon buffer, in a FIFO
/// the restart emptied, or went out just after the restart on a cookie
/// the server no longer knows. Each case is a shrunk `composed` seed
/// whose request the paper's stack answered and the restarting one lost.
#[test]
fn a_request_outlives_a_restart_from_the_archive() {
    use ActionKind::{Acquire, GetSensors, GetStatus, SetParam};
    let features = Features { recover_from_archive: true, ..Features::paper() };
    // (seed, servers, user's grant, home, script, crash, horizon)
    let cases = [
        // Relayed and buffered at the host when the host went down.
        (374, 3, Privilege::ReadWrite, 1, vec![(8566, GetSensors)], (0, 8787, 11975), 18_533),
        // Answered into the FIFO of a home server that then went down.
        (
            205,
            3,
            Privilege::Steer,
            2,
            vec![(7008, Acquire), (8585, SetParam)],
            (2, 9037, 11454),
            21_024,
        ),
        // Sent 35 ms after the home server came back without its sessions.
        (320, 2, Privilege::Steer, 1, vec![(9566, GetStatus)], (1, 7528, 9531), 20_510),
    ];
    for (seed, n_servers, grant, home, script, (server, at_ms, restart_ms), horizon_ms) in cases {
        let actions = script.into_iter().map(|(at_ms, kind)| Action { at_ms, kind }).collect();
        let user = UserSpec {
            name: "u".into(),
            privilege: Some(grant),
            server: home,
            actions,
            closed_loop: false,
        };
        let scenario = Scenario {
            n_servers,
            users: vec![user],
            admin: Vec::new(),
            faults: FaultSpec {
                crashes: vec![CrashSpec { server, at_ms, restart_ms }],
                ..FaultSpec::default()
            },
            horizon_ms,
            latecomer: None,
            app_iterations: None,
            features,
            ..Scenario::generate(Family::Composed, seed)
        };
        let result = run(&scenario);
        let answered = &result.portal(0).script_answered;
        assert!(answered.iter().all(Option::is_some), "seed {seed}: unanswered in {answered:?}");
        let violations = check_run(&result);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// A lock request relayed under a deadline is answered by that deadline,
/// not by the 10 s call timeout. Shrunk `composed` seed 742: the home
/// server restarts from its archive, the portal re-posts its owed
/// acquire, and the relay to the host leaves as a partition between the
/// two servers begins; the paper's stack had answered it before the
/// partition.
#[test]
fn a_relayed_lock_request_is_answered_by_its_deadline() {
    let generated = Scenario::generate(Family::Composed, 742);
    let user = UserSpec {
        name: "u1".into(),
        privilege: Some(Privilege::Steer),
        server: 1,
        actions: vec![Action { at_ms: 7589, kind: ActionKind::Acquire }],
        closed_loop: false,
    };
    let scenario = Scenario {
        n_servers: 2,
        users: vec![user],
        admin: Vec::new(),
        faults: FaultSpec {
            crashes: vec![CrashSpec { server: 1, at_ms: 7798, restart_ms: 10_399 }],
            partitions: vec![PartitionSpec { a: 1, b: 0, from_ms: 10_659, until_ms: 13_374 }],
            ..FaultSpec::default()
        },
        horizon_ms: 22_040,
        latecomer: None,
        app_iterations: None,
        ..generated
    };
    assert!(scenario.features.deadline.is_some(), "the seed keeps the portal deadline");
    let result = run(&scenario);
    let answered = &result.portal(0).script_answered;
    assert!(answered.iter().all(Option::is_some), "unanswered in {answered:?}");
    let violations = check_run(&result);
    assert!(violations.is_empty(), "{violations:?}");
}
