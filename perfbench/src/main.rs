//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>]`
//!
//! Runs one workload and prints, as its last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. The full record —
//! host stamp, configuration and raw per-sample values — goes to
//! `<work-dir>/results/`. Exits 1 when an output fails its correctness
//! check and 2 when the run cannot complete.

use std::path::PathBuf;
use std::process::ExitCode;

use paydemand_perfbench::stamp::{self, Stamp};
use paydemand_perfbench::{run_workload, BenchError, RunConfig, Scale, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <paper_sweep|city_round|serve_mixed> --seed <n> \
                     --seconds <s> --trace <0|1> [--work-dir <dir>]";

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--work-dir" => config.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    Ok((workload, config))
}

fn main() -> ExitCode {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp::collect();
    eprintln!(
        "perfbench: {workload} seed {} trace {} on {} cores ({}), kernel {}, {}, commit {}",
        config.seed,
        u8::from(config.trace),
        stamp.nproc,
        stamp.cpu_model,
        stamp.kernel,
        stamp.rustc,
        stamp.git_commit
    );
    match run_workload(&workload, &config) {
        Ok(outcome) => {
            let record = stamp::record(&workload, &config, &stamp, &outcome);
            match stamp::write_record(&config.work_dir.join("results"), &workload, &config, &record)
            {
                Ok(path) => eprintln!("perfbench: record written to {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write the run record: {e}"),
            }
            println!("{}", outcome.result_line(&workload, config.trace));
            ExitCode::SUCCESS
        }
        Err(BenchError::Incorrect(msg)) => {
            eprintln!("perfbench: {workload}: INCORRECT OUTPUT: {msg}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}
