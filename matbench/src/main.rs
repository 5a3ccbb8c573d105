//! `matbench`: host wall-clock of the Matryoshka pipeline, from `.mat` source
//! text to a checked result, end to end and per layer.
//!
//! ```text
//! matbench --workload bounce_rate|group_fixpoint|service_mix
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. The
//! exit status is 0 when every output matched its reference, 1 when one did
//! not, and 2 on a usage error. See `README.md` in this directory.

mod batch;
mod bounce;
mod corpus;
mod fixpoint;
mod pipeline;
mod report;
mod service_mix;
mod stats;

use std::process::ExitCode;

const USAGE: &str = "usage: matbench --workload bounce_rate|group_fixpoint|service_mix \
--seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("matbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, traced) = (args.seed, args.seconds, args.traced);
    let report = match args.workload.as_str() {
        "bounce_rate" => batch::run::<bounce::BounceRate>(seed, seconds, traced),
        "group_fixpoint" => batch::run::<fixpoint::GroupFixpoint>(seed, seconds, traced),
        "service_mix" => match service_mix::run(seed, seconds, traced) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("matbench: service_mix: {e}");
                return ExitCode::from(1);
            }
        },
        other => {
            eprintln!("matbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let header = format!(
        "matbench {} seed={seed} seconds={seconds} trace={}",
        args.workload,
        u8::from(traced)
    );
    if report.print(&header) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
