//! `serve-mixed`: three tenants (the E17 nets) at P=4 behind one
//! server with `clusters = nproc`, a 25 ms batching budget and f64.
//!
//! A run has three phases, in this order:
//!
//! 1. **dispatch** — isolated `dispatch_batch` calls, one tenant after
//!    another, closed loop: the forward passes behind every request;
//! 2. **open loop** — seeded Poisson arrivals at [`RATE`], below the
//!    knee, each request timed from its due time; partial batches form
//!    on the deadline;
//! 3. **saturation** — rounds that pre-fill every queue with whole
//!    batches and drain it; only full batches form.
//!
//! The traced run replaces phase 1 with the per-layer probe loop and
//! skips phase 3.

use crate::derived::queue_wait_ms;
use crate::loadgen::{backlog_growth, poisson_schedule};
use crate::metrics::Outcome;
use crate::nets::{nets, MEM, SERVE_P};
use crate::probes::{
    forward, ms, probe_loop, set_counts, set_forward, set_probe_metrics, set_self_times, sim_cfg,
    time_plans, Counts, Forward,
};
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted, supported_tail};
use distconv_core::NetworkPlan;
use distconv_cost::MachineSpec;
use distconv_par::rng::SplitMix64;
use distconv_serve::{ModelSpec, RequestId, ServeConfig, Server};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second (below the knee on a
/// 2-core host; at 60 req/s the backlog grows without bound).
pub const RATE: f64 = 10.0;
/// Fewest open-loop requests: p95 needs ten samples beyond it.
pub const MIN_REQUESTS: usize = 200;
/// Latency limit for `goodput_rps`.
pub const LIMIT_MS: f64 = 250.0;
/// Batching budget.
const BUDGET: Duration = Duration::from_millis(25);
/// Queue bound per tenant; far above any backlog below the knee, so a
/// reject is a failure.
const QUEUE: usize = 1024;
/// Whole batches per tenant in each saturation round.
const SAT_BATCHES: usize = 8;
/// Server starts timed for `setup_s` besides the two used.
const EXTRA_STARTS: usize = 9;
/// A run whose open loop shows a backlog growing past this factor, or
/// a generator later than [`MAX_LATE_MS`], is past the knee and its
/// latencies are not reported as such.
const MAX_BACKLOG_GROWTH: f64 = 3.0;
const MAX_LATE_MS: f64 = 50.0;

fn tenants() -> Vec<ModelSpec> {
    nets()
        .into_iter()
        .map(|(name, layers)| ModelSpec {
            name: name.to_string(),
            layers,
            machine: MachineSpec::new(SERVE_P, MEM),
        })
        .collect()
}

fn serve_cfg(trace: bool) -> ServeConfig {
    ServeConfig {
        latency_budget: BUDGET,
        queue_capacity: QUEUE,
        clusters: std::thread::available_parallelism().map_or(1, |n| n.get()),
        machine: sim_cfg(trace),
    }
}

/// Start a server, timing the start for `setup_s`.
fn start(trace: bool, setup: &mut Vec<f64>, out: &mut Outcome) -> Option<Server> {
    let t = Instant::now();
    let server = Server::start(tenants(), serve_cfg(trace));
    setup.push(t.elapsed().as_secs_f64());
    match server {
        Ok(s) => Some(s),
        Err(e) => {
            out.fail(format!("Server::start: {e}"));
            None
        }
    }
}

/// Stop a server and apply the serving gates: no errors and exact
/// volume conformance. (Rejects fail at `submit`.)
fn stop(
    server: Server,
    out: &mut Outcome,
) -> (
    distconv_serve::ServeReport,
    Vec<distconv_serve::RequestResult>,
) {
    let (report, results, errors) = server.shutdown();
    for e in errors {
        out.fail(format!("serve error: {e}"));
    }
    let conf = report.conformance();
    out.gate(conf.pass(), || {
        format!("ServeReport::conformance: {:?}", conf.failures())
    });
    (report, results)
}

/// Phase 1: isolated `dispatch_batch` calls, tenants in turn, until
/// `until`, after one untimed call per tenant (the first calls pay
/// thread and allocator start-up that later calls do not). Returns
/// per-tenant call times and counters.
fn dispatch_phase(
    plans: &[NetworkPlan],
    until: Instant,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> (Vec<Vec<f64>>, Vec<Option<Counts>>) {
    let names = nets();
    let mut rng = SplitMix64::new(seed ^ 0xd15_9a7c);
    let mut times = vec![Vec::new(); plans.len()];
    let mut first = vec![None; plans.len()];
    for (t, plan) in plans.iter().enumerate() {
        forward(
            Forward::Dispatch,
            plan,
            names[t].0,
            rng.next_u64(),
            false,
            &mut first[t],
            rec,
            out,
        );
    }
    let mut round = 0usize;
    while Instant::now() < until || round == 0 {
        for (t, plan) in plans.iter().enumerate() {
            let batch = rng.next_u64();
            if let Some(d) = forward(
                Forward::Dispatch,
                plan,
                names[t].0,
                batch,
                false,
                &mut first[t],
                rec,
                out,
            ) {
                times[t].push(d);
            }
        }
        round += 1;
    }
    (times, first)
}

/// What the open-loop phase measured.
struct OpenLoop {
    /// Latency from due time, per request, in due order.
    lat_ms: Vec<f64>,
    /// Tenant of each request, in due order.
    tenant: Vec<usize>,
    /// How late the generator sent each request.
    late_ms: Vec<f64>,
    /// Duration of each `submit` call.
    submit_us: Vec<f64>,
    /// From the phase start to the last completion.
    window_s: f64,
    report: distconv_serve::ServeReport,
    /// Mean batch fill per tenant.
    fill: Vec<f64>,
}

/// Phase 2: send the seeded schedule open loop, then drain.
fn open_loop(
    server: Server,
    count: usize,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> OpenLoop {
    let n_tenants = nets().len();
    let schedule = poisson_schedule(seed, RATE, count, n_tenants);
    let phase = rec.open("serve", "open_loop", None);
    let t0 = Instant::now();
    let mut sent: Vec<(Option<RequestId>, Instant, f64)> = Vec::with_capacity(count);
    let mut submit_us = Vec::with_capacity(count);
    for a in &schedule {
        let due = t0 + a.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let before = Instant::now();
        let id = server.submit(a.tenant, a.seed);
        let after = Instant::now();
        submit_us.push((after - before).as_secs_f64() * 1e6);
        match &id {
            Ok(id) => sent.push((Some(*id), due, ms(before - due))),
            Err(e) => {
                out.fail(format!("submit rejected: {e}"));
                sent.push((None, due, ms(before - due)));
            }
        }
        rec.push(
            "serve",
            format!("submit/{}", a.tenant),
            before,
            after,
            phase,
            id.as_ref().map_or(0, |i| i.0),
        );
    }
    if !server.drain(Duration::from_secs(60)) {
        out.gate(false, || "open loop: drain timed out".into());
    }
    rec.close(phase);
    let (report, results) = stop(server, out);
    let by_id: BTreeMap<u64, &distconv_serve::RequestResult> =
        results.iter().map(|r| (r.id.0, r)).collect();
    let mut ol = OpenLoop {
        lat_ms: Vec::new(),
        tenant: Vec::new(),
        late_ms: sent.iter().map(|s| s.2).collect(),
        submit_us,
        window_s: 0.0,
        fill: vec![0.0; n_tenants],
        report,
    };
    let mut fills = vec![Vec::new(); n_tenants];
    for (a, (id, due, late)) in schedule.iter().zip(&sent) {
        let Some(id) = id else { continue };
        match by_id.get(&id.0) {
            Some(r) if r.digest != 0 => {
                out.ok();
                let lat = late + ms(r.latency);
                ol.lat_ms.push(lat);
                ol.tenant.push(a.tenant);
                let nb = nets()[a.tenant].1[0].nb as f64;
                fills[a.tenant].push(r.batch_fill as f64 / nb);
                let done = *due + Duration::from_secs_f64(lat / 1e3);
                ol.window_s = ol.window_s.max((done - t0).as_secs_f64());
                rec.push(
                    "serve",
                    format!("request/{}", a.tenant),
                    *due,
                    done,
                    phase,
                    id.0,
                );
            }
            _ => out.fail(format!("request {} has no digest", id.0)),
        }
    }
    for (t, f) in fills.iter().enumerate() {
        ol.fill[t] = f.iter().sum::<f64>() / f.len().max(1) as f64;
    }
    // Validity: a generator running late, or a backlog that grows
    // through the phase, means the rate is past the knee.
    let growth = backlog_growth(&ol.lat_ms);
    let late_p95 = percentile(&sorted(&ol.late_ms), 95.0);
    out.gate(growth <= MAX_BACKLOG_GROWTH, || {
        format!("open loop past the knee: backlog growth {growth:.2}")
    });
    out.gate(late_p95 <= MAX_LATE_MS, || {
        format!("open loop generator late: p95 {late_p95:.1} ms")
    });
    ol
}

/// Phase 3: rounds of pre-fill then drain; returns requests per second
/// of each round.
fn saturation(server: &Server, until: Instant, seed: u64, out: &mut Outcome) -> (Vec<f64>, usize) {
    let nbs: Vec<usize> = nets().iter().map(|(_, l)| l[0].nb).collect();
    let mut rng = SplitMix64::new(seed ^ 0x5a7);
    let mut rps = Vec::new();
    let mut admitted = 0;
    while Instant::now() < until || rps.len() < 2 {
        let t = Instant::now();
        let mut n = 0usize;
        for b in 0..SAT_BATCHES {
            for (tenant, nb) in nbs.iter().enumerate() {
                for _ in 0..*nb {
                    match server.submit(tenant, rng.next_u64()) {
                        Ok(_) => n += 1,
                        Err(e) => out.fail(format!("saturation batch {b}: {e}")),
                    }
                }
            }
        }
        if !server.drain(Duration::from_secs(120)) {
            out.gate(false, || "saturation: drain timed out".into());
            break;
        }
        rps.push(n as f64 / t.elapsed().as_secs_f64());
        admitted += n;
    }
    (rps, admitted)
}

/// Run the workload for `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let total = Duration::from_secs(seconds);
    let begin = Instant::now();
    let mut setup = Vec::new();
    for _ in 0..EXTRA_STARTS {
        if let Some(s) = start(false, &mut setup, &mut out) {
            stop(s, &mut out);
        }
    }
    let plans = if trace {
        time_plans(SERVE_P, 3, rec, &mut out)
    } else {
        nets()
            .iter()
            .map(|(_, l)| NetworkPlan::plan_tuned(l, MachineSpec::new(SERVE_P, MEM)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| out.fail(format!("plan_tuned: {e}")))
            .ok()
    };
    let Some(plans) = plans else { return out };

    // Phase 1; in the traced run, the per-layer probe loop.
    let names: Vec<&str> = nets().iter().map(|(n, _)| *n).collect();
    let (plain, counts, probes) = if trace {
        let until = begin + total.mul_f64(0.3);
        let probes = probe_loop(Forward::Dispatch, &plans, until, seed, rec, &mut out);
        (Vec::new(), Vec::new(), probes)
    } else {
        let (t, c) = dispatch_phase(&plans, begin + total.mul_f64(0.15), seed, rec, &mut out);
        (t, c, Vec::new())
    };
    // The tenant's isolated dispatch time, with the tracing the served
    // dispatches run under.
    let isolated: Vec<f64> = if trace {
        probes.iter().map(|p| median(&p.traced_ms)).collect()
    } else {
        plain.iter().map(|v| median(v)).collect()
    };

    // Phase 2.
    let count = MIN_REQUESTS.max((RATE * total.as_secs_f64() * 0.6).round() as usize);
    let ol = match start(trace, &mut setup, &mut out) {
        Some(server) => open_loop(server, count, seed, rec, &mut out),
        None => return out,
    };

    if !trace {
        set_counts(&mut out, &counts);
        set_forward(&mut out, &plain);
        let lat = sorted(&ol.lat_ms);
        out.values.set("lat_p50_ms", percentile(&lat, 50.0));
        out.values.set("lat_p95_ms", percentile(&lat, 95.0));
        let good = ol.lat_ms.iter().filter(|&&l| l <= LIMIT_MS).count();
        out.values.set("goodput_rps", good as f64 / ol.window_s);
        println!(
            "open loop: {} requests at {RATE} req/s, p50 {:.1} ms, p95 {:.1} ms (n={}, supported tail {:?}), {} within {LIMIT_MS} ms",
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 95.0),
            lat.len(),
            supported_tail(&lat).map(|t| t.q),
            good
        );

        // Phase 3.
        let Some(server) = start(false, &mut setup, &mut out) else {
            return out;
        };
        let (rps, admitted) = saturation(&server, begin + total, seed, &mut out);
        let (_, results) = stop(server, &mut out);
        for r in &results {
            if r.digest != 0 {
                out.ok();
            } else {
                out.fail(format!("saturation request {} has no digest", r.id.0));
            }
        }
        out.gate(results.len() == admitted, || {
            format!(
                "saturation: {} results for {admitted} admitted requests",
                results.len()
            )
        });
        out.values.set("sat_rps", median(&rps));
        println!(
            "saturation: {} rounds, median {:.1} req/s",
            rps.len(),
            median(&rps)
        );
        out.values.set("setup_s", median(&setup));
        return out;
    }

    // Traced run: serving-layer metrics from the open loop.
    out.values.set("serve.submit_us", median(&ol.submit_us));
    let m = &ol.report.models;
    let batches: usize = m.iter().map(|m| m.batches).sum();
    let partial: usize = m.iter().map(|m| m.partial_flushes).sum();
    out.values
        .set("serve.partial_frac", partial as f64 / batches.max(1) as f64);
    for (t, name) in names.iter().enumerate() {
        out.values.set(format!("serve.fill.{name}"), ol.fill[t]);
    }
    out.values.set(
        "serve.queue_wait_ms",
        queue_wait_ms(&ol.lat_ms, &ol.tenant, &isolated),
    );
    out.values
        .set("serve.backlog_growth", backlog_growth(&ol.lat_ms));
    out.values.set(
        "serve.rejected",
        m.iter().map(|m| m.rejected).sum::<usize>() as f64,
    );
    out.values.set(
        "serve.replays",
        m.iter().map(|m| m.replays).sum::<u32>() as f64,
    );
    out.values.set(
        "loadgen.late_p95_ms",
        percentile(&sorted(&ol.late_ms), 95.0),
    );
    let summary = set_probe_metrics(Forward::Dispatch, &probes, &mut out);
    set_self_times(&mut out, rec);
    println!(
        "split: conv.reference_ms is {:.0}% of core.dispatch_ms (predicted > 50%: {})",
        100.0 * summary.reference_ms / summary.forward_ms,
        if summary.reference_ms > summary.forward_ms / 2.0 {
            "holds"
        } else {
            "does not hold"
        }
    );
    out
}
