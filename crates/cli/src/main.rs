//! `cppc-cli` — command-line driver for the CPPC reproduction.
//!
//! ```console
//! $ cppc-cli help
//! $ cppc-cli simulate --bench mcf --ops 200000
//! $ cppc-cli inject --config paper --fault 4x4 --trials 500
//! $ cppc-cli mttf --level l1
//! $ cppc-cli sweep --what pairs
//! $ cppc-cli benchmarks
//! $ cppc-cli repro --all --threads 1
//! $ cppc-cli serve --data-dir /var/lib/cppc --socket /tmp/cppc.sock
//! $ cppc-cli submit --kind mbe --trials 2000 --watch
//! ```

mod args;
mod commands;
mod serve_cmd;

use args::ParsedArgs;

/// The options each subcommand accepts. Anything else is rejected up
/// front with an error naming the flag, so a typo'd `--trails` cannot
/// silently run a default campaign.
const COMMAND_OPTIONS: &[(&str, &[&str])] = &[
    ("benchmarks", &[]),
    ("simulate", &["bench", "ops", "seed"]),
    ("inject", &["config", "fault", "trials"]),
    (
        "campaign",
        &[
            "kind",
            "scheme",
            "trials",
            "seed",
            "threads",
            "shard-size",
            "batch",
            "checkpoint",
            "checkpoint-every-ms",
            "resume",
            "json",
            "config",
            "fault",
            "rate",
            "domains",
            "tavg",
            "sleep-ms",
            "trace",
        ],
    ),
    ("mttf", &["level", "fit", "avf"]),
    ("sweep", &["what"]),
    // Bare `trace` stays a `trace record` alias, so existing scripts
    // keep working.
    ("trace", &["bench", "ops", "out", "seed", "format"]),
    ("trace record", &["bench", "ops", "out", "seed", "format"]),
    ("trace convert", &["in", "out", "from", "to"]),
    ("trace info", &["in"]),
    ("trace bench", &["in", "reps"]),
    ("montecarlo", &["rate", "domains", "tavg", "trials"]),
    ("coherence", &["cores", "ops"]),
    (
        "repro",
        &[
            "artifact",
            "all",
            "check",
            "update-goldens",
            "render",
            "threads",
            "quick",
            "root",
        ],
    ),
    (
        "explore",
        &[
            "quick",
            "check",
            "render",
            "threads",
            "checkpoint-dir",
            "include",
            "exclude",
            "out",
            "root",
        ],
    ),
    (
        "stats",
        &[
            "bench", "ops", "seed", "trials", "format", "all", "events", "describe",
        ],
    ),
    (
        "serve",
        &[
            "data-dir",
            "socket",
            "tcp",
            "queue-cap",
            "max-threads",
            "checkpoint-every-ms",
        ],
    ),
    (
        "submit",
        &[
            "socket",
            "tcp",
            "tenant",
            "priority",
            "watch",
            "kind",
            "scheme",
            "trials",
            "seed",
            "threads",
            "shard-size",
            "batch",
            "config",
            "fault",
            "rate",
            "domains",
            "tavg",
            "sleep-ms",
            "trace",
            "quick",
        ],
    ),
    ("status", &["socket", "tcp", "id"]),
    ("result", &["socket", "tcp", "id"]),
    ("cancel", &["socket", "tcp", "id"]),
    ("list", &["socket", "tcp", "tenant"]),
    ("watch", &["socket", "tcp", "id"]),
    ("metrics", &["socket", "tcp"]),
    ("shutdown", &["socket", "tcp"]),
];

/// Folds a `trace <subcommand>` pair into the single composite command
/// token the parser expects (`["trace", "convert", ...]` becomes
/// `["trace convert", ...]`). A bare `trace` — or `trace` followed by
/// an option — is left alone and keeps its historical record meaning.
fn merge_composite(mut argv: Vec<String>) -> Vec<String> {
    const TRACE_SUBCOMMANDS: &[&str] = &["record", "convert", "info", "bench"];
    if argv.first().is_some_and(|c| c == "trace")
        && argv
            .get(1)
            .is_some_and(|s| TRACE_SUBCOMMANDS.contains(&s.as_str()))
    {
        let sub = argv.remove(1);
        argv[0] = format!("trace {sub}");
    }
    argv
}

fn main() {
    let argv = merge_composite(std::env::args().skip(1).collect());
    let parsed = match ParsedArgs::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            commands::print_help();
            std::process::exit(2);
        }
    };
    if let Some((_, allowed)) = COMMAND_OPTIONS
        .iter()
        .find(|(name, _)| *name == parsed.command())
    {
        if let Err(e) = parsed.reject_unknown(allowed) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let result = match parsed.command() {
        "help" | "-h" | "--help" => {
            commands::print_help();
            Ok(())
        }
        "benchmarks" => commands::benchmarks(),
        "simulate" => commands::simulate(&parsed),
        "inject" => commands::inject(&parsed),
        "campaign" => commands::campaign(&parsed),
        "mttf" => commands::mttf(&parsed),
        "sweep" => commands::sweep(&parsed),
        "trace" | "trace record" => commands::trace(&parsed),
        "trace convert" => commands::trace_convert(&parsed),
        "trace info" => commands::trace_info(&parsed),
        "trace bench" => commands::trace_bench(&parsed),
        "montecarlo" => commands::montecarlo(&parsed),
        "coherence" => commands::coherence(&parsed),
        "repro" => commands::repro(&parsed),
        "explore" => commands::explore(&parsed),
        "stats" => commands::stats(&parsed),
        "serve" => serve_cmd::serve_daemon(&parsed),
        "submit" => serve_cmd::submit(&parsed),
        "status" => serve_cmd::status(&parsed),
        "result" => serve_cmd::result(&parsed),
        "cancel" => serve_cmd::cancel(&parsed),
        "list" => serve_cmd::list(&parsed),
        "watch" => serve_cmd::watch(&parsed),
        "metrics" => serve_cmd::metrics(&parsed),
        "shutdown" => serve_cmd::shutdown(&parsed),
        other => {
            eprintln!("error: unknown subcommand '{other}'");
            commands::print_help();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(items: &[&str]) -> Vec<String> {
        items.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn composite_trace_commands_merge() {
        for sub in ["record", "convert", "info", "bench"] {
            let merged = merge_composite(words(&["trace", sub, "--in", "t.cppct"]));
            assert_eq!(merged[0], format!("trace {sub}"));
            assert_eq!(&merged[1..], &words(&["--in", "t.cppct"])[..]);
        }
    }

    #[test]
    fn bare_trace_and_other_commands_pass_through() {
        // Historical form: `trace --bench gcc` still means record.
        let bare = merge_composite(words(&["trace", "--bench", "gcc"]));
        assert_eq!(bare, words(&["trace", "--bench", "gcc"]));
        let other = merge_composite(words(&["campaign", "--kind", "trace"]));
        assert_eq!(other, words(&["campaign", "--kind", "trace"]));
        assert!(merge_composite(Vec::new()).is_empty());
    }

    #[test]
    fn trace_subcommands_have_option_allowlists() {
        for cmd in [
            "trace",
            "trace record",
            "trace convert",
            "trace info",
            "trace bench",
        ] {
            assert!(
                COMMAND_OPTIONS.iter().any(|(name, _)| *name == cmd),
                "missing COMMAND_OPTIONS entry for '{cmd}'"
            );
        }
    }

    #[test]
    fn checkpoint_cadence_flag_is_in_milliseconds_only() {
        // The shard-count flag is gone: a stale `--checkpoint-every 4`
        // must fail instead of being read as 4 ms.
        for cmd in ["campaign", "serve"] {
            let (_, allowed) = COMMAND_OPTIONS
                .iter()
                .find(|(name, _)| *name == cmd)
                .unwrap();
            let stale = ParsedArgs::parse(words(&[cmd, "--checkpoint-every", "4"])).unwrap();
            let err = stale.reject_unknown(allowed).unwrap_err();
            assert!(err.to_string().contains("--checkpoint-every"), "{err}");
            let ms = ParsedArgs::parse(words(&[cmd, "--checkpoint-every-ms", "250"])).unwrap();
            assert!(ms.reject_unknown(allowed).is_ok());
        }
    }

    #[test]
    fn trace_subcommands_reject_unknown_options() {
        let argv = merge_composite(words(&["trace", "convert", "--input", "t.txt"]));
        let parsed = ParsedArgs::parse(argv).unwrap();
        assert_eq!(parsed.command(), "trace convert");
        let (_, allowed) = COMMAND_OPTIONS
            .iter()
            .find(|(name, _)| *name == "trace convert")
            .unwrap();
        let err = parsed.reject_unknown(allowed).unwrap_err();
        assert!(err.to_string().contains("--input"), "{err}");

        let ok = ParsedArgs::parse(merge_composite(words(&[
            "trace", "convert", "--in", "a", "--out", "b", "--from", "din", "--to", "bin",
        ])))
        .unwrap();
        assert!(ok.reject_unknown(allowed).is_ok());
    }

    #[test]
    fn campaign_and_submit_accept_trace_kind_flags() {
        for cmd in ["campaign", "submit"] {
            let (_, allowed) = COMMAND_OPTIONS
                .iter()
                .find(|(name, _)| *name == cmd)
                .unwrap();
            assert!(allowed.contains(&"trace"), "'{cmd}' lacks --trace");
        }
    }
}
