//! `bench_e2e`: one closed-loop workload, end to end or traced.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <batch_fig13|calib_sweep|stream_turntable|stream_portal> \
//!     --seed <u64> [--seconds 20] [--trace 0|1]
//! ```
//!
//! Prints a detail line (environment fingerprint, inputs digest, sample
//! counts, the wall-clock timings before probe normalization, failed
//! checks) and then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an output
//! check fails and 2 on a usage error.

use std::process::ExitCode;

use lion_bench::benv::BenchEnv;
use lion_bench_e2e::inputs::Workload;
use lion_bench_e2e::probe::PROBE_REFERENCE_NS;
use lion_bench_e2e::run::{nproc, run, Metric, Options, Report};
use lion_obs::json::escape;

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds,
        trace,
    ))
}

fn detail_line(opts: &Options, report: &Report) -> String {
    let checks = report
        .check_failures
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"workers\":{},\"env\":{},\"inputs_digest\":\"{:016x}\",\"latency_samples\":{},\
         \"probe_reference_ns\":{},\"wall\":{{{}}},\"failed_checks\":[{}]}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        nproc(),
        opts.workers,
        BenchEnv::current().to_json(),
        report.digest,
        report.latency_samples,
        PROBE_REFERENCE_NS,
        metrics_json(&report.wall),
        checks,
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    println!("{}", detail_line(&opts, &report));
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        for check in &report.check_failures {
            eprintln!("bench_e2e: output check failed: {check}");
        }
        ExitCode::from(1)
    }
}
