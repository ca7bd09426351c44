//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mixed|net-p256|layer-rep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, human-readable progress, and as its last
//! line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 when a correctness gate fails and
//! 2 on bad arguments or a set `DISTCONV_*` knob. See `README.md`.

mod derived;
mod layer_rep;
mod loadgen;
mod metrics;
mod net_p256;
mod nets;
mod probes;
mod provenance;
mod serve_mixed;
mod spans;
mod stats;

use spans::Recorder;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve-mixed", "net-p256", "layer-rep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; want one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
    };
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of 1..=600"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let knobs = provenance::set_knobs();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {knobs:?} set; the program reads them mid-run");
        std::process::exit(2);
    }
    let dtype = if args.workload == "layer-rep" {
        "f32"
    } else {
        "f64"
    };
    println!(
        "{}",
        provenance::block(&args.workload, args.seed, args.seconds, args.trace, dtype)
    );

    let mut rec = Recorder::new(args.trace);
    let run = match args.workload.as_str() {
        "serve-mixed" => serve_mixed::run,
        "net-p256" => net_p256::run,
        _ => layer_rep::run,
    };
    let mut outcome = run(args.seed, args.seconds, args.trace, &mut rec);

    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, rec.to_json())) {
            Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let metrics = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    if !args.trace {
        let ok = outcome.attempted.saturating_sub(outcome.failed) as f64
            / outcome.attempted.max(1) as f64;
        outcome.values.set("ok_frac", ok);
    }
    let line = outcome.result_line(&metrics, !args.trace);
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!("{line}");
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
