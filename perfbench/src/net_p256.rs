//! `net-p256`: back-to-back verified `run_network` calls over the three
//! E17 nets at P=256, f64, closed loop with one caller. Rank scheduling
//! and message passing dominate; the reference oracle does little.

use crate::metrics::Outcome;
use crate::nets::{nets, MEM, NET_P};
use crate::probes::{
    forward, probe_loop, set_counts, set_forward, set_probe_metrics, set_self_times, time_plans,
    Forward,
};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted, supported_tail};
use distconv_core::NetworkPlan;
use distconv_cost::MachineSpec;
use distconv_par::rng::SplitMix64;
use std::time::{Duration, Instant};

/// Latency limit for `goodput_rps`: one forward call.
pub const LIMIT_MS: f64 = 1000.0;
/// Times the three nets are planned for `setup_s`.
const SETUP_REPS: usize = 5;

/// Plan the three nets `SETUP_REPS` times; returns the plans and the
/// median planning time of one set.
fn setup(rec: &mut Recorder, out: &mut Outcome) -> Option<(Vec<NetworkPlan>, f64)> {
    let mut times = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..SETUP_REPS {
        let (res, d, _) = rec.time("cost", "plan_tuned/all", None, 0, || {
            nets()
                .iter()
                .map(|(_, l)| NetworkPlan::plan_tuned(l, MachineSpec::new(NET_P, MEM)))
                .collect::<Result<Vec<_>, _>>()
        });
        times.push(d.as_secs_f64());
        match res {
            Ok(p) => plans = p,
            Err(e) => {
                out.fail(format!("plan_tuned at P={NET_P}: {e}"));
                return None;
            }
        }
    }
    Some((plans, median(&times)))
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    if trace {
        let begin = Instant::now();
        let Some(plans) = time_plans(NET_P, 2, rec, &mut out) else {
            return out;
        };
        let until = begin + Duration::from_secs(seconds).mul_f64(0.9);
        let probes = probe_loop(Forward::RunNetwork, &plans, until, seed, rec, &mut out);
        let summary = set_probe_metrics(Forward::RunNetwork, &probes, &mut out);
        set_self_times(&mut out, rec);
        let forward_mean = summary.forward_ms / probes.len() as f64;
        println!(
            "split: simnet.overhead_ms {:.1} of forward {forward_mean:.1} ms = {:.0}% (predicted > 50%: {})",
            summary.overhead_ms,
            100.0 * summary.overhead_ms / forward_mean,
            if summary.overhead_ms > forward_mean / 2.0 {
                "holds"
            } else {
                "does not hold"
            }
        );
        return out;
    }

    let names = nets();
    let Some((plans, setup_s)) = setup(rec, &mut out) else {
        return out;
    };
    let mut rng = SplitMix64::new(seed ^ 0x256);
    let mut times = vec![Vec::new(); plans.len()];
    let mut first = vec![None; plans.len()];
    // One untimed forward of each net first: the first calls pay
    // thread and allocator start-up that later calls do not.
    for (t, plan) in plans.iter().enumerate() {
        forward(
            Forward::RunNetwork,
            plan,
            names[t].0,
            rng.next_u64(),
            false,
            &mut first[t],
            rec,
            &mut out,
        );
    }
    let begin = Instant::now();
    let loop_for = Duration::from_secs(seconds);
    let mut round = 0usize;
    let mut samples = 0usize;
    while begin.elapsed() < loop_for || round == 0 {
        for (t, plan) in plans.iter().enumerate() {
            let s = rng.next_u64();
            if let Some(d) = forward(
                Forward::RunNetwork,
                plan,
                names[t].0,
                s,
                false,
                &mut first[t],
                rec,
                &mut out,
            ) {
                times[t].push(d);
                samples += names[t].1[0].nb;
            }
        }
        round += 1;
    }
    let wall = begin.elapsed().as_secs_f64();
    set_counts(&mut out, &first);
    let all: Vec<f64> = times.iter().flatten().copied().collect();
    let s = sorted(&all);
    out.values.set("setup_s", setup_s);
    set_forward(&mut out, &times);
    out.values.set("lat_p50_ms", percentile(&s, 50.0));
    out.values.set("lat_p95_ms", percentile(&s, 95.0));
    let good = all.iter().filter(|&&l| l <= LIMIT_MS).count();
    out.values.set("goodput_rps", good as f64 / wall);
    out.values.set("sat_rps", samples as f64 / wall);
    println!(
        "net-p256: {} forwards in {wall:.1} s, median {:.1} ms, p90 {:.1} ms, highest percentile with 10 samples beyond: {:?}",
        all.len(),
        percentile(&s, 50.0),
        percentile(&s, 90.0),
        supported_tail(&s).map(|t| t.q)
    );
    out
}
