//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root and prints, as its last
//! line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. Earlier lines carry
//! the host fingerprint and human-readable notes. Scratch files (traces,
//! daemon data, the traced run's span file) go under `.perfbench/`.

use std::path::PathBuf;
use std::process::ExitCode;

use cppc_perfbench::{publish, report, run, Opts, Scale};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        cppc_perfbench::WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".perfbench"),
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {flag} value '{value}' ({what})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::fingerprint());
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    match run(&workload, &opts) {
        Ok(out) => {
            let out = publish(out, opts.trace);
            for note in &out.notes {
                println!("{}", note.trim_end());
            }
            for m in &out.metrics {
                println!("  {:<30} {:>18.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", out.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
