//! Where a result came from: host, resolved kernel and comm paths,
//! thread budget, backend, dtype and source revision.

use distconv_par::{CommMode, LocalKernel};

/// Prefix of the environment knobs the program reads. Rank bodies read
/// some of them in the middle of a run, so a run with any of them set
/// does not measure the configuration it reports.
pub const KNOB_PREFIX: &str = "DISTCONV_";

/// Names of the set `DISTCONV_*` environment variables.
pub fn set_knobs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect()
}

/// Source revision: `git rev-parse HEAD` of `./.git` when run from the
/// root of a git checkout, else `"unknown"`. Naming the directory stops
/// git from searching the directories above the working directory.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance block as one JSON object.
pub fn block(workload: &str, seed: u64, seconds: u64, trace: bool, dtype: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"provenance\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
\"nproc\":{nproc},\"simd\":\"{}\",\"local_kernel\":\"{}\",\"comm_mode\":\"{}\",\"threads\":{},\
\"backend\":\"event\",\"compute_model\":\"off\",\"dtype\":\"{dtype}\",\"git_rev\":\"{}\"}}}}",
        distconv_tensor::simd::active().name(),
        LocalKernel::from_env().name(),
        CommMode::from_env().name(),
        distconv_par::pool::num_threads(),
        git_revision(),
    )
}
