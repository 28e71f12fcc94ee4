//! Wall-clock benchmark of the encrypted collective runtime.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One operation is one collective: spec in, outputs verified on every
//! rank. `--trace 0` measures the end-to-end metrics with nothing but the
//! operation's own wall clock around each call; `--trace 1` stamps every
//! layer boundary visible from outside the program, runs the twins the
//! derived layer metrics need, writes its spans to
//! `wallbench/out/spans-<workload>-seed<n>.jsonl`, and reports the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any operation failed or any check did not hold.

mod measure;
mod spans;
mod stats;
mod sys;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
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
    let name = get("--workload")?;
    let workload = workload::by_name(&name).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {names:?})")
    })?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    eag_runtime::quiet_expected_panics();
    let w = &args.workload;
    println!(
        "workload {} | seed {} | {} s | trace {} | {} cores\n  why: {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.why
    );
    let outcome = if args.trace {
        let path = format!("wallbench/out/spans-{}-seed{}.jsonl", w.name, args.seed);
        measure::traced(w, args.seed, args.seconds, std::path::Path::new(&path))
    } else {
        measure::untraced(w, args.seed, args.seconds)
    };
    for line in &outcome.info {
        println!("  {line}");
    }
    let mut failed = outcome.failures.len() as u64;
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("failure: metric {} is not finite", m.name);
            failed += 1;
            0.0
        };
        println!("  {:<30} {value:>16.4} {}", m.name, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    let attempted = outcome.attempted.max(1);
    let failed = failed.min(attempted);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
