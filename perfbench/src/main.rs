//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Prints human-readable lines, then one JSON object as the last line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::process::ExitCode;
use std::time::Duration;

use uprob_perfbench::{run, RunConfig, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        measure: Duration::from_secs(10),
        trace: false,
        quick: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--quick" {
            config.quick = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = number()?,
            "--seconds" => config.measure = Duration::from_secs(number()?),
            "--trace" => {
                config.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
        i += 2;
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, &config) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("{workload}: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(message) = report.validate(config.trace) {
        eprintln!("{workload}: {message}");
        return ExitCode::FAILURE;
    }
    println!(
        "workload={workload} seed={} trace={} cores={} checks={}",
        config.seed,
        u8::from(config.trace),
        uprob_core::available_workers(),
        report.checks
    );
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
