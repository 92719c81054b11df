//! End-to-end and per-layer benchmark of the noc-deploy workspace.
//!
//! ```text
//! e2ebench --workload <exact-proof|serve-online> --seed N --seconds S --trace 0|1
//! e2ebench pin EXACT SERVE > e2ebench/pins.tsv
//! ```
//!
//! A run measures one workload (about `S` seconds of work at the pinned
//! speed), checks every answer, and prints a metric table followed by one
//! JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same inputs with
//! spans around every layer call and reports the per-layer metrics. See
//! `README.md` in this directory for the workloads and the metric map.

mod cpus;
mod exact;
mod instances;
mod pin;
mod report;
mod serve;
mod trace;
mod workloads;

use workloads::RunArgs;

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin") {
        if let Err(e) = pin::run(&args[1..]) {
            eprintln!("e2ebench pin: {e}");
            std::process::exit(2);
        }
        return;
    }
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let pins = instances::Pins::load();
    let result = match run.workload.as_str() {
        "exact-proof" => exact::run(&run, &pins),
        "serve-online" => serve::run(&run, &pins),
        other => {
            eprintln!("e2ebench: unknown workload {other:?} (exact-proof, serve-online)");
            std::process::exit(2);
        }
    };
    result.print(run.trace);
}
