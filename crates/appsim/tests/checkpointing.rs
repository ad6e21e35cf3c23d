//! Property tests across all four application kernels: checkpoint →
//! perturb → rollback restores bit-identical observables, steering
//! always clamps into the declared range, and the interface echoes the
//! kernel's state.

#![cfg(feature = "proptest")]

use appsim::{cfd_app, oil_reservoir_app, relativity_app, seismic_app, Kernel, SteerableApp};
use proptest::prelude::*;
use wire::{AppCommand, AppOp, AppPhase, OpOutcome, Value};

/// Run the checkpoint/rollback property against one app instance.
fn check_roundtrip<S: Kernel>(
    mut app: SteerableApp<S>,
    param: &str,
    perturb: f64,
    pre_steps: usize,
    post_steps: usize,
) -> Result<(), TestCaseError> {
    for _ in 0..pre_steps {
        app.step();
    }
    let before = app.readings();
    let before_iter = app.kernel().iteration();
    app.apply(&AppOp::Command(AppCommand::Checkpoint), AppPhase::Interacting).unwrap();

    // Perturb: steer and advance.
    app.apply(&AppOp::SetParam(param.to_string(), Value::Float(perturb)), AppPhase::Interacting)
        .unwrap();
    for _ in 0..post_steps {
        app.step();
    }
    prop_assert!(app.kernel().iteration() > before_iter || post_steps == 0);

    // Rollback: observables return exactly.
    app.apply(&AppOp::Command(AppCommand::Rollback), AppPhase::Interacting).unwrap();
    prop_assert_eq!(app.kernel().iteration(), before_iter);
    let after = app.readings();
    prop_assert_eq!(before, after);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn oilres_checkpoint_rollback(pre in 0usize..6, post in 1usize..6, v in 0.5f64..5.0) {
        check_roundtrip(oil_reservoir_app(12), "injection_rate", v, pre, post)?;
    }

    #[test]
    fn cfd_checkpoint_rollback(pre in 0usize..6, post in 1usize..6, v in 50.0f64..500.0) {
        check_roundtrip(cfd_app(12), "reynolds", v, pre, post)?;
    }

    #[test]
    fn seismic_checkpoint_rollback(pre in 0usize..6, post in 1usize..6, v in 1.0f64..3.0) {
        check_roundtrip(seismic_app(16), "layer_velocity", v, pre, post)?;
    }

    #[test]
    fn relativity_checkpoint_rollback(pre in 0usize..6, post in 1usize..6, v in 0.5f64..4.0) {
        check_roundtrip(relativity_app(64), "mass", v, pre, post)?;
    }

    /// Steering any float parameter of any app with any finite value
    /// either errors or clamps into a finite applied value that reads
    /// back identically.
    #[test]
    fn steering_clamps_and_reads_back(raw in prop::num::f64::NORMAL) {
        let mut app = oil_reservoir_app(12);
        let spec = app.interface();
        for (name, ty, _) in &spec.params {
            if ty != "float" {
                continue;
            }
            let out = app.apply(
                &AppOp::SetParam(name.clone(), Value::Float(raw)),
                AppPhase::Interacting,
            );
            if let Ok(OpOutcome::ParamSet(_, Value::Float(applied))) = out {
                prop_assert!(applied.is_finite());
                let back = app
                    .apply(&AppOp::GetParam(name.clone()), AppPhase::Interacting)
                    .unwrap();
                prop_assert_eq!(back, OpOutcome::Param(name.clone(), Value::Float(applied)));
            }
        }
    }
}
