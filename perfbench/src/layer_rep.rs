//! `layer-rep`: `DistConv::run_with_outputs` on the ResNet
//! representative layer at P=4, f32, closed loop with one caller. The
//! local kernel does most of the work and the serving layer is not
//! called. One `run_verified` call per run checks the layer against the
//! reference outside the timed loop; every timed call must then return
//! outputs bitwise equal to an untimed call of the same seed.

use crate::metrics::Outcome;
use crate::nets::{rep_layer, MEM, REP_P};
use crate::probes::{kind_ms, ms, set_counts, set_forward, set_self_times, sim_cfg, Counts};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted, supported_tail};
use distconv_conv::kernels::{in_shape, ker_shape, out_shape};
use distconv_conv::{conv_tile_fast, ConvScratch};
use distconv_core::exec::RankOut;
use distconv_core::{expected_volumes, DistConv};
use distconv_cost::{Conv2dProblem, DistPlan, MachineSpec, Planner};
use distconv_tensor::Tensor4;
use distconv_trace::SpanKind;
use std::time::{Duration, Instant};

/// Latency limit for `goodput_rps`: one forward call.
pub const LIMIT_MS: f64 = 1000.0;
/// Times the layer is planned for `setup_s`.
const SETUP_REPS: usize = 21;

/// Direct-convolution flops of a problem.
fn flops(p: &Conv2dProblem) -> f64 {
    2.0 * (p.nb * p.nk * p.nw * p.nh * p.nc * p.nr * p.ns) as f64
}

/// True when two runs' outputs are bitwise equal.
fn same_outputs(a: &[RankOut<f32>], b: &[RankOut<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.coords == y.coords
                && x.out_origin == y.out_origin
                && match (&x.slice, &y.slice) {
                    (Some(s), Some(t)) => {
                        s.shape() == t.shape()
                            && s.as_slice()
                                .iter()
                                .zip(t.as_slice())
                                .all(|(u, v)| u.to_bits() == v.to_bits())
                    }
                    (None, None) => true,
                    _ => false,
                }
        })
}

/// One rank's whole work partition as a single `conv_tile_fast` call,
/// outside the simulator.
struct RankTile {
    tile: Conv2dProblem,
    input: Tensor4<f32>,
    ker: Tensor4<f32>,
    out: Tensor4<f32>,
    scratch: ConvScratch<f32>,
}

impl RankTile {
    fn new(plan: &DistPlan) -> Self {
        let (p, w) = (plan.problem, plan.w);
        let tile = Conv2dProblem::new(w.wb, w.wk, w.wc, w.ww, w.wh, p.nr, p.ns, p.sw, p.sh);
        RankTile {
            input: Tensor4::random(in_shape(&tile), 1),
            ker: Tensor4::random(ker_shape(&tile), 2),
            out: Tensor4::zeros(out_shape(&tile)),
            scratch: ConvScratch::new(),
            tile,
        }
    }

    /// Time one call, in seconds.
    fn run(&mut self, rec: &mut Recorder) -> f64 {
        let (_, d, _) = rec.time("conv", "conv_tile_fast/rank-tile", None, 0, || {
            conv_tile_fast(
                &self.tile,
                &mut self.out,
                &self.input,
                &self.ker,
                &mut self.scratch,
            );
            std::hint::black_box(self.out.as_slice()[0])
        });
        d.as_secs_f64()
    }
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let problem = rep_layer();
    let planner = Planner::new(problem, MachineSpec::new(REP_P, MEM));
    let mut setup = Vec::new();
    let mut plan = None;
    for _ in 0..SETUP_REPS {
        let (res, d, _) = rec.time("cost", "plan/rep", None, 0, || planner.plan());
        setup.push(d.as_secs_f64());
        plan = Some(res);
    }
    let plan = match plan.expect("SETUP_REPS >= 1") {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("plan: {e:?}"));
            return out;
        }
    };

    let plain_dc = DistConv::<f32>::new(plan).with_config(sim_cfg(false));
    let traced_dc = DistConv::<f32>::new(plan).with_config(sim_cfg(true));
    match rec
        .time("core", "run_verified/rep", None, seed, || {
            plain_dc.run_verified(seed)
        })
        .0
    {
        Ok(r) if r.verified => out.ok(),
        Ok(_) => out.fail("run_verified returned unverified"),
        Err(e) => out.fail(format!("run_verified: {e}")),
    }
    let (base_report, base_outs) = match plain_dc.run_with_outputs(seed) {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("run_with_outputs: {e}"));
            return out;
        }
    };
    let expected = expected_volumes(&plan).total();
    out.gate(base_report.stats.total_elems() as u128 == expected, || {
        format!(
            "measured {} elems, Eq.-exact model {expected}",
            base_report.stats.total_elems()
        )
    });
    let base = Counts::of_layer(&base_report);

    let begin = Instant::now();
    let loop_for = Duration::from_secs(seconds).mul_f64(if trace { 0.6 } else { 1.0 });
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut compute, mut wait, mut wall_compute) = (Vec::new(), Vec::new(), Vec::new());
    let mut sim_time = 0.0;
    let mut rank_tile = RankTile::new(&plan);
    let mut tile_s = Vec::new();
    let mut round = 0usize;
    while begin.elapsed() < loop_for || round == 0 {
        // The traced run pairs an untraced and a traced call,
        // alternating which goes first, then times the standalone tile.
        let order: &[bool] = match (trace, round % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        if trace {
            tile_s.push(rank_tile.run(rec));
        }
        for &tr in order {
            let dc = if tr { &traced_dc } else { &plain_dc };
            let (res, d, span) = rec.time("core", "run_with_outputs/rep", None, seed, || {
                dc.run_with_outputs(seed)
            });
            match res {
                Ok((r, outs)) => {
                    if same_outputs(&outs, &base_outs) && Counts::of_layer(&r) == base {
                        out.ok();
                    } else {
                        out.fail("timed call differs from the verified seed's outputs");
                    }
                    if tr {
                        rec.add_compute_child(span, &r.trace);
                        let c = kind_ms(&r.trace, SpanKind::Compute);
                        compute.push(c);
                        wait.push(kind_ms(&r.trace, SpanKind::CommWait));
                        wall_compute.push((ms(d), c));
                        sim_time = r.sim_time;
                        traced.push(ms(d));
                    } else {
                        plain.push(ms(d));
                    }
                }
                Err(e) => out.fail(format!("run_with_outputs: {e}")),
            }
        }
        round += 1;
    }
    let wall = begin.elapsed().as_secs_f64();
    set_counts(&mut out, &[Some(base)]);

    if !trace {
        let s = sorted(&plain);
        out.values.set("setup_s", median(&setup));
        set_forward(&mut out, std::slice::from_ref(&plain));
        out.values.set("lat_p50_ms", percentile(&s, 50.0));
        out.values.set("lat_p95_ms", percentile(&s, 95.0));
        let good = plain.iter().filter(|&&l| l <= LIMIT_MS).count();
        out.values.set("goodput_rps", good as f64 / wall);
        out.values
            .set("sat_rps", (plain.len() * problem.nb) as f64 / wall);
        println!(
            "layer-rep: {} forwards in {wall:.1} s, median {:.1} ms, p90 {:.1} ms, highest percentile with 10 samples beyond: {:?}",
            plain.len(),
            percentile(&s, 50.0),
            percentile(&s, 90.0),
            supported_tail(&s).map(|t| t.q)
        );
        return out;
    }

    out.values.set(
        "trace.overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
    );
    let compute_ms = median(&compute);
    out.values.set("simnet.compute_ms", compute_ms);
    out.values.set("simnet.comm_wait_ms", median(&wait));
    out.values.set(
        "simnet.overhead_ms",
        crate::derived::overhead_ms(&[wall_compute]),
    );
    out.values.set("simnet.sim_time_us", sim_time * 1e6);
    out.values.set("conv.rep.flops", flops(&problem));
    let elems = in_shape(&problem).len() + ker_shape(&problem).len() + out_shape(&problem).len();
    out.values.set(
        "conv.rep.bytes",
        (elems * std::mem::size_of::<f32>()) as f64,
    );
    out.values.set(
        "conv.rep.gflops",
        flops(&problem) / (compute_ms / 1e3) / 1e9,
    );
    out.values.set(
        "conv.rep.standalone_gflops",
        flops(&rank_tile.tile) / median(&tile_s) / 1e9,
    );
    set_self_times(&mut out, rec);
    let forward = median(&traced);
    println!(
        "split: simnet.compute_ms {compute_ms:.1} of forward {forward:.1} ms = {:.0}% (predicted > 50%: {})",
        100.0 * compute_ms / forward,
        if compute_ms > forward / 2.0 { "holds" } else { "does not hold" }
    );
    out
}
