//! One cluster's batch executor: dispatch under the shared step
//! recovery policy ([`mod@distconv_core::recover`]).
//!
//! An injected crash mid-batch triggers a bounded number of
//! **replays** (transient faults are cleared, the batch re-runs
//! bitwise-identically on the same grid — the batch is a pure function
//! of its seed); a *persistent* crash survives the clearing, exhausts
//! the replays, and drives a **degraded re-plan**: the network is
//! re-tuned ([`NetworkPlan::plan_tuned`]) over the survivors and the
//! batch re-routed onto the shrunken grid.

use distconv_core::batch::{dispatch_batch, BatchRun};
use distconv_core::{recover, CoreError, NetworkPlan, Recovery};
use distconv_simnet::MachineConfig;

/// How a batch finally completed.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The successful run (on the original or the degraded plan).
    pub run: BatchRun,
    /// What recovery cost the batch: replays, their wasted traffic,
    /// and the degraded re-plan's details.
    pub recovery: Recovery,
    /// Replay attempts consumed by injected crashes
    /// (`recovery.retries`).
    pub replays: u32,
    /// `Some(new_p)` when the batch finished on a degraded grid over
    /// `new_p` ranks (`recovery.degrade`'s new grid size).
    pub degraded_to: Option<usize>,
}

/// Execute one batch with recovery. `plan` is the model's tuned
/// layout (its layers and machine are the re-planning inputs when
/// degrading), `seed` the folded batch seed.
pub fn execute_batch(
    plan: &NetworkPlan,
    seed: u64,
    cfg: MachineConfig,
) -> Result<BatchOutcome, CoreError> {
    let (mut run, recovery) = recover(plan, cfg, Some(NetworkPlan::plan_tuned), |plan, cfg| {
        dispatch_batch::<f64>(plan, seed, cfg)
    })?;
    recovery.mark(&mut run.report.trace);
    Ok(BatchOutcome {
        run,
        replays: recovery.retries,
        degraded_to: recovery.degrade.as_ref().map(|d| d.new_grid.total()),
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_core::MAX_STEP_RETRIES;
    use distconv_cost::{Conv2dProblem, MachineSpec};
    use distconv_simnet::FaultPlan;

    fn chain() -> Vec<Conv2dProblem> {
        vec![
            Conv2dProblem::new(2, 8, 4, 8, 8, 3, 3, 1, 1),
            Conv2dProblem::new(2, 8, 8, 6, 6, 3, 3, 1, 1),
        ]
    }

    /// Crash detection on the thread backend waits out `recv_timeout`
    /// in wall-clock time — shorten it so the retry loop is fast.
    fn fast_cfg() -> MachineConfig {
        MachineConfig {
            recv_timeout: std::time::Duration::from_millis(300),
            ..MachineConfig::default()
        }
    }

    #[test]
    fn transient_crash_replays_bitwise() {
        let problems = chain();
        let machine = MachineSpec::new(4, 1 << 20);
        let plan = NetworkPlan::plan_tuned(&problems, machine).unwrap();
        let clean = execute_batch(&plan, 99, fast_cfg()).expect("fault-free");
        assert_eq!(clean.replays, 0);

        let mut faulty = fast_cfg();
        faulty.faults = FaultPlan::default().with_crash(1, 3);
        let recovered = execute_batch(&plan, 99, faulty).expect("recovers via replay");
        assert!(recovered.replays >= 1);
        assert_eq!(recovered.degraded_to, None);
        assert_eq!(
            recovered.run.digests, clean.run.digests,
            "replayed batch must be bitwise identical to the fault-free run"
        );
    }

    #[test]
    fn persistent_crash_degrades_and_completes() {
        let problems = chain();
        let machine = MachineSpec::new(4, 1 << 20);
        let plan = NetworkPlan::plan_tuned(&problems, machine).unwrap();
        let mut faulty = fast_cfg();
        faulty.faults = FaultPlan::default().with_persistent_crash(2, 2);
        let out = execute_batch(&plan, 41, faulty).expect("degrades");
        let new_p = out.degraded_to.expect("must re-plan over survivors");
        assert!(new_p < 4, "degraded grid must shrink");
        assert_eq!(out.replays, MAX_STEP_RETRIES + 1);
        // The degraded run is itself deterministic: the same batch on
        // the same degraded plan fault-free matches bitwise.
        let degraded_plan =
            NetworkPlan::plan_tuned(&problems, MachineSpec::new(new_p, machine.mem)).unwrap();
        let clean = execute_batch(&degraded_plan, 41, fast_cfg()).unwrap();
        assert_eq!(out.run.digests, clean.run.digests);
    }
}
