//! `ddabench --workload <augment|agent|serve> --seed N --seconds S --trace 0|1`
//!
//! Prints a context line, then as the last line the result object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any op or
//! check failed, 2 on bad arguments.

use ddabench::{agent, augment, serve, Args, Report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ddabench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args);
    match args.workload.as_str() {
        "augment" => augment::run(&args, &mut report),
        "agent" => agent::run(&args, &mut report),
        "serve" => serve::run(&args, &mut report),
        other => {
            eprintln!("ddabench: unknown workload {other} (augment, agent, serve)");
            return ExitCode::from(2);
        }
    }
    if report.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
