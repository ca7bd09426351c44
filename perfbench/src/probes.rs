//! Calls into the layers shared by the workloads: the verified network
//! forward with its gates, and the traced per-layer probe loop of
//! `serve-mixed` and `net-p256`.

use crate::metrics::Outcome;
use crate::nets::{nets, MEM};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted};
use distconv_conv::kernels::{in_shape, ker_shape};
use distconv_conv::{conv2d_direct_par, conv2d_fast};
use distconv_core::{
    dispatch_batch, expected_volumes, run_network, DistConv, DistConvReport, NetworkPlan,
    NetworkReport,
};
use distconv_cost::{Conv2dProblem, DistPlan, MachineSpec};
use distconv_par::rng::SplitMix64;
use distconv_simnet::{Backend, ComputeModel, MachineConfig};
use distconv_tensor::{Scalar, Tensor4};
use distconv_trace::{RunTrace, SpanKind, TraceConfig};
use std::time::Instant;

/// The simulated machine every workload runs on: event backend,
/// compute free in virtual time, tracing as asked.
pub fn sim_cfg(trace: bool) -> MachineConfig {
    MachineConfig {
        backend: Backend::Event,
        compute: ComputeModel::Off,
        trace: if trace {
            TraceConfig::default()
        } else {
            TraceConfig::off()
        },
        ..MachineConfig::default()
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sum of span durations of `kind` over all ranks, in milliseconds.
pub fn kind_ms(trace: &RunTrace, kind: SpanKind) -> f64 {
    let ns: u64 = trace
        .per_rank
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| e.kind == kind)
        .map(|e| e.dur_ns)
        .sum();
    ns as f64 / 1e6
}

/// Exact counters of one forward, identical on every call of a net.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Counts {
    /// Algorithmic plus redistribution elements.
    pub elems: u128,
    /// Algorithmic plus redistribution messages.
    pub msgs: u64,
    /// Virtual Lamport makespan, seconds.
    pub makespan: f64,
    /// Largest per-rank peak memory.
    pub peak: u64,
    /// Redistribution elements.
    pub redist: u64,
}

impl Counts {
    /// Counters of a network forward.
    pub fn of_network(r: &NetworkReport) -> Self {
        Counts {
            elems: r.measured_total(),
            msgs: r.stats.total_msgs() + r.stats.redist.msgs,
            makespan: r.makespan,
            peak: r.max_peak_mem,
            redist: r.stats.redist.elems,
        }
    }

    /// Counters of a single-layer run.
    pub fn of_layer(r: &DistConvReport) -> Self {
        Counts {
            elems: r.stats.total_elems() as u128 + r.stats.redist.elems as u128,
            msgs: r.stats.total_msgs() + r.stats.redist.msgs,
            makespan: r.makespan,
            peak: r.max_peak_mem(),
            redist: r.stats.redist.elems,
        }
    }
}

/// Write `comm_elems`, `msgs` and `makespan_us` summed over one forward
/// of each net, `peak_mem_elems` as the largest, and
/// `simnet.redist_elems`; nothing when a net never completed.
pub fn set_counts(out: &mut Outcome, per_net: &[Option<Counts>]) {
    let Some(c) = per_net.iter().copied().collect::<Option<Vec<Counts>>>() else {
        return;
    };
    let elems: u128 = c.iter().map(|c| c.elems).sum();
    out.values.set("comm_elems", elems as f64);
    out.values
        .set("msgs", c.iter().map(|c| c.msgs).sum::<u64>() as f64);
    out.values.set(
        "makespan_us",
        c.iter().map(|c| c.makespan).sum::<f64>() * 1e6,
    );
    out.values.set(
        "peak_mem_elems",
        c.iter().map(|c| c.peak).max().unwrap_or(0) as f64,
    );
    out.values.set(
        "simnet.redist_elems",
        c.iter().map(|c| c.redist).sum::<u64>() as f64,
    );
}

/// Write `forward_ms` (the mean over nets of each net's median call
/// time, so the nets weigh equally whatever their speed) and
/// `forward_p90_ms` (over all calls) from per-net call times.
pub fn set_forward(out: &mut Outcome, per_net_ms: &[Vec<f64>]) {
    let means = per_net_ms.iter().map(|v| median(v)).sum::<f64>() / per_net_ms.len() as f64;
    let all: Vec<f64> = per_net_ms.iter().flatten().copied().collect();
    out.values.set("forward_ms", means);
    out.values
        .set("forward_p90_ms", percentile(&sorted(&all), 90.0));
}

/// Write `<layer>.self_ms` for every layer the recorder saw.
pub fn set_self_times(out: &mut Outcome, rec: &Recorder) {
    for (layer, v) in rec.self_ms_by_layer() {
        out.values.set(format!("{layer}.self_ms"), v);
    }
}

/// The network forward a workload calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Forward {
    /// `dispatch_batch`: `run_network` plus one digest per sample, as
    /// the serving layer calls it.
    Dispatch,
    /// `run_network`.
    RunNetwork,
}

/// One verified network forward, timed as a `core` call. Applies the
/// gates — verified against the chained reference, exact conformance,
/// measured volume equal to the expected layer plus redistribution
/// volume, counters equal to the net's `first` call, and (for
/// `dispatch_batch`) one digest per sample — and returns the wall time.
#[allow(clippy::too_many_arguments)]
pub fn forward(
    kind: Forward,
    plan: &NetworkPlan,
    name: &str,
    seed: u64,
    traced: bool,
    first: &mut Option<Counts>,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<f64> {
    let label = match kind {
        Forward::Dispatch => "dispatch_batch",
        Forward::RunNetwork => "run_network",
    };
    let (res, d, _) = rec.time("core", format!("{label}/{name}"), None, seed, || {
        let cfg = sim_cfg(traced);
        match kind {
            Forward::Dispatch => {
                dispatch_batch::<f64>(plan, seed, cfg).map(|b| (b.digests.len(), b.report))
            }
            Forward::RunNetwork => {
                run_network::<f64>(plan, seed, cfg).map(|r| (plan.layers[0].problem.nb, r))
            }
        }
    });
    let (digests, r) = match res {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("{name}: {label}: {e}"));
            return None;
        }
    };
    let c = Counts::of_network(&r);
    let conf = r.conformance();
    let fine = r.verified
        && conf.pass()
        && c.elems == r.expected_total()
        && digests == plan.layers[0].problem.nb
        && *first.get_or_insert(c) == c;
    if fine {
        out.ok();
    } else {
        out.fail(format!(
            "{name}: {label} not verified or not exact: {c:?}, {:?}",
            conf.failures()
        ));
    }
    Some(ms(d))
}

/// Plan every net at `procs` ranks `reps` times, writing
/// `cost.plan_ms.<net>`.
pub fn time_plans(
    procs: usize,
    reps: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Option<Vec<NetworkPlan>> {
    let mut plans = Vec::new();
    for (name, layers) in nets() {
        let mut times = Vec::new();
        let mut plan = None;
        for _ in 0..reps {
            let (p, d, _) = rec.time("cost", format!("plan_tuned/{name}"), None, 0, || {
                NetworkPlan::plan_tuned(&layers, MachineSpec::new(procs, MEM))
            });
            times.push(ms(d));
            plan = Some(p);
        }
        match plan.expect("reps >= 1") {
            Ok(p) => plans.push(p),
            Err(e) => {
                out.fail(format!("{name}: plan_tuned at P={procs}: {e}"));
                return None;
            }
        }
        out.values
            .set(format!("cost.plan_ms.{name}"), median(&times));
    }
    Some(plans)
}

/// Seeded input and per-layer kernels for a chain of layers.
fn chain_tensors<T: Scalar>(layers: &[Conv2dProblem], seed: u64) -> (Tensor4<T>, Vec<Tensor4<T>>) {
    let input = Tensor4::random(in_shape(&layers[0]), seed);
    let kers = layers
        .iter()
        .enumerate()
        .map(|(i, p)| Tensor4::random(ker_shape(p), seed ^ ((i as u64 + 1) << 40)))
        .collect();
    (input, kers)
}

/// Run a chain of layers with the reference (`conv2d_direct_par`) or
/// the fast (`conv2d_fast`) kernel.
fn run_chain<T: Scalar>(
    layers: &[Conv2dProblem],
    input: &Tensor4<T>,
    kers: &[Tensor4<T>],
    fast: bool,
) -> Tensor4<T> {
    let mut act = input.clone();
    for (p, k) in layers.iter().zip(kers) {
        act = if fast {
            conv2d_fast(p, &act, k)
        } else {
            conv2d_direct_par(p, &act, k)
        };
    }
    act
}

/// What one traced simulated run of a single layer showed.
pub struct LayerRun {
    /// Wall time of the call.
    pub wall_ms: f64,
    /// Compute sections, summed over ranks.
    pub compute_ms: f64,
    /// Blocking receive waits, summed over ranks.
    pub comm_wait_ms: f64,
    /// The run's report.
    pub report: DistConvReport,
}

/// One traced `DistConv::run_with_outputs` call on `plan`.
fn run_layer(
    plan: &DistPlan,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<usize>,
    name: String,
) -> Result<LayerRun, String> {
    let dc = DistConv::<f64>::new(*plan).with_config(sim_cfg(true));
    let (res, wall, span) = rec.time("core", name, parent, seed, || dc.run_with_outputs(seed));
    let (report, _) = res.map_err(|e| e.to_string())?;
    rec.add_compute_child(span, &report.trace);
    if report.trace.total_dropped() > 0 {
        return Err("trace ring wrapped; compute sums undercount".into());
    }
    Ok(LayerRun {
        wall_ms: ms(wall),
        compute_ms: kind_ms(&report.trace, SpanKind::Compute),
        comm_wait_ms: kind_ms(&report.trace, SpanKind::CommWait),
        report,
    })
}

/// Virtual makespan over the α–β prediction `α·msgs + β·cost_C`, with
/// the busiest rank's message count and Eq. 10's per-processor
/// collective volume.
fn pred_ratio(report: &DistConvReport, cfg: &MachineConfig) -> f64 {
    let msgs = report
        .stats
        .per_rank_msgs
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    let pred = cfg.cost.alpha * msgs as f64 + cfg.cost.beta * report.plan.predicted.cost_c;
    report.makespan / pred
}

/// Everything the probe loop measured for one net, one entry per round.
#[derive(Default)]
pub struct NetProbe {
    /// Untraced forward calls.
    pub plain_ms: Vec<f64>,
    /// Traced forward calls.
    pub traced_ms: Vec<f64>,
    /// Reference (`conv2d_direct_par`) chains.
    pub reference_ms: Vec<f64>,
    /// Fast (`conv2d_fast`) chains.
    pub fast_ms: Vec<f64>,
    /// Traced `DistConv` runs, per layer.
    pub layers: Vec<Vec<LayerRun>>,
    /// Counters of the net's forward.
    pub counts: Option<Counts>,
}

/// The traced per-layer probe loop. Each round, for each net in turn:
/// an untraced and a traced forward of the same batch (alternating
/// which goes first), the reference and fast chains on the net's
/// shapes, and one traced `DistConv` call per layer. Every quantity is
/// sampled once per round, so quantities that are compared or
/// subtracted were measured next to each other. Runs until `until`,
/// at least two rounds.
pub fn probe_loop(
    kind: Forward,
    plans: &[NetworkPlan],
    until: Instant,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Vec<NetProbe> {
    let named = nets();
    let mut rng = SplitMix64::new(seed ^ 0x009e_0be5);
    let mut probes: Vec<NetProbe> = plans
        .iter()
        .map(|p| NetProbe {
            layers: p.layers.iter().map(|_| Vec::new()).collect(),
            ..NetProbe::default()
        })
        .collect();
    let mut round = 0usize;
    while Instant::now() < until || round < 2 {
        for (t, plan) in plans.iter().enumerate() {
            let (name, layers) = &named[t];
            let probe = &mut probes[t];
            let span = rec.open("core", format!("probe/{name}/round{round}"), None);
            let batch = rng.next_u64();
            let order = if round.is_multiple_of(2) {
                [false, true]
            } else {
                [true, false]
            };
            for traced in order {
                if let Some(d) =
                    forward(kind, plan, name, batch, traced, &mut probe.counts, rec, out)
                {
                    if traced {
                        &mut probe.traced_ms
                    } else {
                        &mut probe.plain_ms
                    }
                    .push(d);
                }
            }
            let (input, kers) = chain_tensors::<f64>(layers, batch);
            let (want, d, _) = rec.time("conv", format!("reference_chain/{name}"), span, 0, || {
                run_chain(layers, &input, &kers, false)
            });
            probe.reference_ms.push(ms(d));
            let (got, d, _) = rec.time("conv", format!("fast_chain/{name}"), span, 0, || {
                run_chain(layers, &input, &kers, true)
            });
            probe.fast_ms.push(ms(d));
            if got.as_slice() == want.as_slice() {
                out.ok();
            } else {
                out.fail(format!(
                    "{name}: conv2d_fast chain differs from the reference"
                ));
            }
            for (i, lp) in plan.layers.iter().enumerate() {
                match run_layer(lp, batch, rec, span, format!("DistConv/{name}/L{i}")) {
                    Ok(r) => {
                        let expected = expected_volumes(lp).total();
                        let measured = r.report.stats.total_elems() as u128;
                        let same = probe.layers[i].first().is_none_or(|f| {
                            f.report.stats == r.report.stats
                                && f.report.makespan == r.report.makespan
                        });
                        if measured == expected && same {
                            out.ok();
                        } else {
                            out.fail(format!(
                                "{name} L{i}: measured {measured} elems (Eq.-exact model {expected}), same as first call: {same}"
                            ));
                        }
                        probe.layers[i].push(r);
                    }
                    Err(e) => out.fail(format!("{name} L{i}: {e}")),
                }
            }
            rec.close(span);
        }
        round += 1;
    }
    probes
}

/// The headline numbers of a probe loop, for the predicted-split check.
pub struct ProbeSummary {
    /// Σ over nets of the median traced forward.
    pub forward_ms: f64,
    /// Σ over nets of the median reference chain.
    pub reference_ms: f64,
    /// Mean over nets of the per-forward `simnet.overhead_ms`.
    pub overhead_ms: f64,
}

/// Write the per-layer metrics of a probe loop: `trace.overhead_pct`,
/// `core.{dispatch,forward}_ms.<net>` (by `kind`, traced),
/// `core.executor_ms.<net>`, `conv.{reference,kernel}_ms.<net>`,
/// `core.L<i>.wall_ms.<net>`, `simnet.L<i>.*`, `cost.L<i>.*`, and the
/// `simnet.*` per-forward split as the mean over nets.
pub fn set_probe_metrics(kind: Forward, probes: &[NetProbe], out: &mut Outcome) -> ProbeSummary {
    let cfg = sim_cfg(true);
    set_counts(out, &probes.iter().map(|p| p.counts).collect::<Vec<_>>());
    let names: Vec<&str> = nets().iter().map(|(n, _)| *n).collect();
    let forward_metric = match kind {
        Forward::Dispatch => "core.dispatch_ms",
        Forward::RunNetwork => "core.forward_ms",
    };
    let (mut traced, mut plain, mut reference) = (0.0, 0.0, 0.0);
    let (mut compute, mut wait, mut overhead, mut sim_time) = (0.0, 0.0, 0.0, 0.0);
    for (p, name) in probes.iter().zip(&names) {
        traced += median(&p.traced_ms);
        plain += median(&p.plain_ms);
        reference += median(&p.reference_ms);
        out.values
            .set(format!("{forward_metric}.{name}"), median(&p.traced_ms));
        out.values
            .set(format!("conv.reference_ms.{name}"), median(&p.reference_ms));
        out.values
            .set(format!("conv.kernel_ms.{name}"), median(&p.fast_ms));
        out.values.set(
            format!("core.executor_ms.{name}"),
            crate::derived::executor_ms(&p.traced_ms, &p.reference_ms),
        );
        let mut wall_compute = Vec::new();
        for (i, runs) in p.layers.iter().enumerate() {
            let Some(first) = runs.first() else { continue };
            let r = &first.report;
            let pick = |f: fn(&LayerRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
            out.values
                .set(format!("core.L{i}.wall_ms.{name}"), pick(|r| r.wall_ms));
            let measured = r.stats.total_elems() as f64;
            out.values
                .set(format!("simnet.L{i}.elems.{name}"), measured);
            out.values.set(
                format!("simnet.L{i}.msgs.{name}"),
                r.stats.total_msgs() as f64,
            );
            out.values
                .set(format!("simnet.L{i}.makespan_us.{name}"), r.makespan * 1e6);
            out.values.set(
                format!("cost.L{i}.vol_ratio.{name}"),
                measured / expected_volumes(&r.plan).total() as f64,
            );
            out.values
                .set(format!("cost.L{i}.pred_ratio.{name}"), pred_ratio(r, &cfg));
            compute += pick(|r| r.compute_ms);
            wait += pick(|r| r.comm_wait_ms);
            sim_time += r.sim_time * 1e6;
            wall_compute.push(runs.iter().map(|r| (r.wall_ms, r.compute_ms)).collect());
        }
        overhead += crate::derived::overhead_ms(&wall_compute);
    }
    let n = probes.len().max(1) as f64;
    out.values
        .set("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
    out.values.set("simnet.compute_ms", compute / n);
    out.values.set("simnet.comm_wait_ms", wait / n);
    out.values.set("simnet.overhead_ms", overhead / n);
    out.values.set("simnet.sim_time_us", sim_time / n);
    ProbeSummary {
        forward_ms: traced,
        reference_ms: reference,
        overhead_ms: overhead / n,
    }
}
