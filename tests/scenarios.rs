//! Tier-1 smoke run of the scenario checker (`discover-check`): a few
//! seeds of every fuzz family against every oracle, and every seeded
//! mutation against the oracle that exists to catch it. The CI
//! `scenario-check` job sweeps 50 seeds and also shrinks; this keeps the
//! root `cargo test` honest in under a second.

use discover_check::oracle::check_run;
use discover_check::run::run;
use discover_check::scenario::{Family, Scenario};
use discover_check::{mutation_case, Mutation};

#[test]
fn every_family_runs_deterministically_and_trips_no_oracle() {
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
            assert!(!v.detail.contains("  "), "{} detail has a run of spaces: {:?}", v.oracle, v.detail);
        }
    }
}
