//! The host stamp and the per-run record written beside each result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::{json_num, Outcome, RunConfig};

/// Where and on what a run happened.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Cores available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory's `.git`, or
    /// `unknown` outside a git checkout.
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

impl Stamp {
    /// Reads the stamp from the running host.
    #[must_use]
    pub fn collect() -> Stamp {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Stamp {
            nproc: crate::nproc(),
            cpu_model: cpuinfo
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map_or_else(|| "unknown".to_owned(), |(_, model)| model.trim().to_owned()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
            // Only the checkout's own `.git`, never a parent repository.
            git_commit: command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The full record of one run: stamp, configuration, the reported
/// metrics, and the raw per-sample series behind them.
#[must_use]
pub fn record(workload: &str, config: &RunConfig, stamp: &Stamp, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \
         \"git_commit\": {}}},\n  \"attempted\": {},\n  \"failed\": {},\n  \"digest\": {},\n  \
         \"metrics\": {{",
        json_str(workload),
        config.seed,
        json_num(config.seconds),
        config.trace,
        stamp.nproc,
        json_str(&stamp.cpu_model),
        json_str(&stamp.kernel),
        json_str(&stamp.rustc),
        json_str(&stamp.git_commit),
        outcome.attempted,
        outcome.failed,
        outcome.digest.map_or_else(|| "null".to_owned(), |d| json_str(&format!("{d:#018x}"))),
    );
    for (i, (name, (value, unit))) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    out.push_str("\n  },\n  \"raw\": {");
    for (i, (series, values)) in outcome.raw.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let values: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
        let _ = write!(out, "{sep}\n    {}: [{}]", json_str(series), values.join(", "));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Writes `record` to `dir/<workload>-seed<seed>-trace<0|1>.json`.
///
/// # Errors
///
/// I/O errors creating the directory or writing the file.
pub fn write_record(
    dir: &Path,
    workload: &str,
    config: &RunConfig,
    record: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path =
        dir.join(format!("{workload}-seed{}-trace{}.json", config.seed, u8::from(config.trace)));
    std::fs::write(&path, record)?;
    Ok(path)
}
