//! `perfbench --workload <fanout|scan|overload> --seed N --seconds S --trace 0|1`
//!
//! Prints human-readable notes, then one JSON object as the last line of
//! standard output. A failed correctness check prints no result and
//! exits with a non-zero code.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match scalewall_perfbench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match scalewall_perfbench::run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for (name, value, unit, measured) in &report.metrics {
                let flag = if *measured { "" } else { "  (not exercised)" };
                println!("# {name} = {value} {unit}{flag}");
            }
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            ExitCode::FAILURE
        }
    }
}
