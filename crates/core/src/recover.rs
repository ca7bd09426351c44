//! Step-level fault recovery: the one retry → degrade policy every
//! distributed caller (a single layer, a training step, a served
//! batch) runs under.
//!
//! A step is a pure function of its seed, so its last consistent state
//! — the checkpoint — is the step input, regenerable on any rank. On a
//! detected fault-injected rank crash, [`recover`] restarts the step
//! with transient rank faults cleared, modelling a replaced process on
//! the same faulty network; link faults and stragglers persist. A
//! *persistent* crash survives the clearing, so [`MAX_STEP_RETRIES`] is
//! eventually exhausted. Callers that can re-plan then **degrade**: the
//! network is re-planned over the surviving ranks (scanning downward
//! past survivor counts the problem cannot factor), the checkpoint is
//! redistributed onto the shrunken grid, and the step finishes there.

use crate::distribution::shard_geometry;
use crate::exec::CoreError;
use crate::network::{NetworkError, NetworkPlan};
use distconv_cost::planner::GridShape;
use distconv_cost::{Conv2dProblem, MachineSpec};
use distconv_simnet::MachineConfig;
use distconv_tensor::Range4;
use distconv_trace::{RunTrace, SpanEvent, SpanKind};

/// Maximum checkpoint/restart attempts for a crash-injected step.
pub const MAX_STEP_RETRIES: u32 = 3;

/// A network planner over the survivors: [`NetworkPlan::plan`] or
/// [`NetworkPlan::plan_tuned`].
pub type Replan = fn(&[Conv2dProblem], MachineSpec) -> Result<NetworkPlan, NetworkError>;

/// What degraded-grid recovery did: the grid shrink and the checkpoint
/// redistribution it required.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradeInfo {
    /// The grid the run started on (the first layer's).
    pub old_grid: GridShape,
    /// The shrunken grid the run finished on (the first layer's).
    pub new_grid: GridShape,
    /// Ranks declared dead (crashed / OOM'd — *not* merely starved).
    pub dead_ranks: Vec<usize>,
    /// Elements of checkpoint state a survivor had to fetch from peers
    /// because its new shard is not covered by its old one. Accounted
    /// separately from both the algorithmic counters and `retry_elems`
    /// (aborted-attempt traffic), like ARQ overhead.
    pub redist_elems: u64,
}

/// What recovery cost one step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Aborted attempts before the successful one (on a degraded run:
    /// every attempt on the full grid).
    pub retries: u32,
    /// Elements moved by the aborted attempts — the retry cost, kept
    /// out of the run's counters so volume tables still match the
    /// fault-free run.
    pub retry_elems: u64,
    /// Degraded-recovery details (`None` unless the step finished on a
    /// shrunken grid).
    pub degrade: Option<DegradeInfo>,
}

impl Recovery {
    /// Whether a crashed attempt was detected and the step re-run.
    pub fn recovered(&self) -> bool {
        self.retries > 0
    }

    /// Append the recovery timeline to rank 0 of `trace`: one
    /// `CheckpointRestore` per aborted attempt (the wasted traffic on
    /// the last) and, when degraded, one `FailureDetect` per dead rank
    /// and a `Redistribute` carrying the redistribution volume.
    pub fn mark(&self, trace: &mut RunTrace) {
        let marker = |kind, step: u32, peer, elems| SpanEvent {
            kind,
            step: step as u64,
            peer,
            tag: 0,
            elems,
            start_ns: 0,
            dur_ns: 0,
        };
        for attempt in 0..self.retries {
            let elems = if attempt + 1 == self.retries {
                self.retry_elems
            } else {
                0
            };
            trace.push(0, marker(SpanKind::CheckpointRestore, attempt, None, elems));
        }
        if let Some(info) = &self.degrade {
            for &d in &info.dead_ranks {
                trace.push(0, marker(SpanKind::FailureDetect, self.retries, Some(d), 0));
            }
            trace.push(
                0,
                marker(
                    SpanKind::Redistribute,
                    self.retries,
                    None,
                    info.redist_elems,
                ),
            );
        }
    }
}

/// Run `attempt` on `plan` under the recovery policy (module docs).
///
/// `replan` is the planner a degraded run re-plans the network's
/// layers with; `None` keeps the step on its grid, so a persistent
/// crash surfaces as [`CoreError::Machine`] once the retries are
/// exhausted. Errors other than an injected crash are returned as-is.
pub fn recover<R>(
    plan: &NetworkPlan,
    cfg: MachineConfig,
    replan: Option<Replan>,
    mut attempt: impl FnMut(&NetworkPlan, MachineConfig) -> Result<R, CoreError>,
) -> Result<(R, Recovery), CoreError> {
    let mut cfg = cfg;
    let mut rec = Recovery::default();
    let err = loop {
        match attempt(plan, cfg) {
            Ok(r) => return Ok((r, rec)),
            Err(CoreError::Machine(e)) if e.has_injected_crash() => {
                rec.retries += 1;
                rec.retry_elems += e.wasted_elems;
                if rec.retries > MAX_STEP_RETRIES {
                    break e;
                }
                cfg.faults = cfg.faults.without_rank_faults();
            }
            Err(e) => return Err(e),
        }
    };

    // Retries exhausted with the crash still firing: the rank is
    // permanently gone. Re-plan over P' survivors; P' itself may be
    // unfactorable for this problem (e.g. a prime), so scan downward
    // and idle the remainder — a smaller feasible grid beats no run.
    let Some(replan) = replan else {
        return Err(CoreError::Machine(err));
    };
    let dead = err.dead_ranks();
    let survivors: Vec<usize> = (0..plan.layers[0].grid.total())
        .filter(|r| !dead.contains(r))
        .collect();
    let problems: Vec<Conv2dProblem> = plan.layers.iter().map(|l| l.problem).collect();
    let mem = plan.layers[0].machine.mem;
    let Some(new_plan) = (1..=survivors.len())
        .rev()
        .find_map(|p| replan(&problems, MachineSpec::new(p, mem)).ok())
    else {
        return Err(CoreError::Machine(err));
    };

    // The dead rank no longer exists on the shrunken machine: drop its
    // faults rather than crash a (re-numbered) innocent rank.
    let new_p = new_plan.layers[0].grid.total();
    cfg.faults.crash = None;
    if cfg.faults.straggler.is_some_and(|s| s.rank >= new_p) {
        cfg.faults.straggler = None;
    }

    rec.degrade = Some(DegradeInfo {
        old_grid: plan.layers[0].grid,
        new_grid: new_plan.layers[0].grid,
        redist_elems: checkpoint_redistribution(plan, &new_plan, &survivors),
        dead_ranks: dead,
    });
    attempt(&new_plan, cfg).map(|r| (r, rec))
}

/// Checkpoint redistribution volume from `old` onto `new`: survivor `j`
/// restarts as new rank `j`. The checkpoint is the step input — the
/// first layer's `In` and every layer's `Ker` — and survivor `j`'s old
/// shards cover their *old* global regions; whatever its new shards
/// need beyond that overlap must be fetched from peers (every element
/// is held by some survivor — shards are pure functions of seed and
/// global coordinates).
fn checkpoint_redistribution(old: &NetworkPlan, new: &NetworkPlan, survivors: &[usize]) -> u64 {
    let new_p = new.layers[0].grid.total();
    let mut elems = 0u64;
    for (new_rank, &old_rank) in survivors.iter().enumerate().take(new_p) {
        for (li, (o, n)) in old.layers.iter().zip(&new.layers).enumerate() {
            let (o, n) = (shard_geometry(o, old_rank), shard_geometry(n, new_rank));
            let missing = |need: Range4, have: Range4| {
                (need.len() - need.intersect(&have).map_or(0, |r| r.len())) as u64
            };
            if li == 0 {
                elems += missing(n.in_region, o.in_region);
            }
            elems += missing(n.ker_region, o.ker_region);
        }
    }
    elems
}
