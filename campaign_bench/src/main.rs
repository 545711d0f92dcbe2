//! Runs one benchmark workload and prints its result line.
//!
//! ```text
//! campaign_bench --workload <anneal-2host|random-2host-long|fabric>
//!                --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Per-campaign digests and a summary go to standard output before the
//! result line, which is always the last line. The exit code is 0 when
//! every campaign passed the output check, 1 when one failed, and 2 for a
//! usage error, a set `COLLIE_*` hook, or missing golden fixtures.
#![forbid(unsafe_code)]

use campaign_bench::digest::GoldenFixtures;
use campaign_bench::run::{timed_run, traced_run};
use campaign_bench::workload::Workload;
use campaign_bench::{hooks_set, result_line};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: campaign_bench --workload <anneal-2host|random-2host-long|fabric> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a u64"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(n) if n > 0 => seconds = Some(n),
                _ => return Err(bad("expected a positive whole number")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("campaign_bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = hooks_set(|name| std::env::var_os(name).is_some());
    if !set.is_empty() {
        eprintln!(
            "campaign_bench: refusing to run with {} set: each hook changes how \
             campaigns execute and so what is measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let fixture_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/fixtures");
    let fixtures = match GoldenFixtures::load(&fixture_dir) {
        Ok(fixtures) => fixtures,
        Err(message) => {
            eprintln!("campaign_bench: golden fixtures: {message}");
            return ExitCode::from(2);
        }
    };

    let seconds = args.seconds as f64;
    let report = if args.trace {
        traced_run(args.workload, args.seed, seconds, &fixtures)
    } else {
        timed_run(args.workload, args.seed, seconds, &fixtures)
    };
    for digest in report.checker.digests() {
        println!("digest {digest}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    for error in &report.checker.errors {
        eprintln!("campaign_bench: {error}");
    }
    let checker = &report.checker;
    let correct = checker.failed == 0 && checker.attempted > 0;
    println!(
        "{}",
        result_line(correct, checker.attempted, checker.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
