//! `cppc-cli` — command-line driver for the CPPC reproduction.
//!
//! ```console
//! $ cppc-cli help
//! $ cppc-cli simulate --bench mcf --ops 200000
//! $ cppc-cli campaign --scheme cppc --config paper --fault 4x4 --trials 500
//! $ cppc-cli mttf --level l1
//! $ cppc-cli repro --artifact ablations
//! $ cppc-cli benchmarks
//! $ cppc-cli repro --all --threads 1
//! $ cppc-cli docs --check
//! $ cppc-cli serve --data-dir /var/lib/cppc --socket /tmp/cppc.sock
//! $ cppc-cli submit --kind mbe --trials 2000 --watch
//! ```

mod args;
mod commands;
mod docs;
mod serve_cmd;

use args::ParsedArgs;

/// The options each subcommand accepts. Anything else is rejected up
/// front with an error naming the flag, so a typo'd `--trails` cannot
/// silently run a default campaign.
const COMMAND_OPTIONS: &[(&str, &[&str])] = &[
    ("benchmarks", &[]),
    ("simulate", &["bench", "ops", "seed"]),
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
            "quick",
        ],
    ),
    ("mttf", &["level", "fit", "avf"]),
    // Bare `trace` stays a `trace record` alias, so existing scripts
    // keep working.
    ("trace", &["bench", "ops", "out", "seed", "format"]),
    ("trace record", &["bench", "ops", "out", "seed", "format"]),
    ("trace convert", &["in", "out", "from", "to"]),
    ("trace info", &["in"]),
    ("trace bench", &["in", "reps"]),
    (
        "repro",
        &[
            "artifact",
            "all",
            "check",
            "update-goldens",
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
            "threads",
            "checkpoint-dir",
            "include",
            "exclude",
            "out",
            "root",
        ],
    ),
    ("docs", &["check"]),
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
        "campaign" => commands::campaign(&parsed),
        "mttf" => commands::mttf(&parsed),
        "trace" | "trace record" => commands::trace(&parsed),
        "trace convert" => commands::trace_convert(&parsed),
        "trace info" => commands::trace_info(&parsed),
        "trace bench" => commands::trace_bench(&parsed),
        "repro" => commands::repro(&parsed),
        "explore" => commands::explore(&parsed),
        "docs" => docs::docs(&parsed),
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

    /// The command names the help's COMMANDS list documents: two-space
    /// indented top-level commands plus the four-space `trace <sub>`
    /// lines.
    fn help_commands() -> std::collections::BTreeSet<String> {
        let list = commands::HELP
            .split_once("COMMANDS:\n")
            .expect("help has a COMMANDS list")
            .1;
        list.lines()
            .filter_map(|line| {
                let words: Vec<&str> = line.split_whitespace().collect();
                if line.starts_with("    trace ") {
                    Some(format!("trace {}", words[1]))
                } else if line.starts_with("  ") && !line.starts_with("   ") {
                    Some(words[0].to_string())
                } else {
                    None
                }
            })
            .collect()
    }

    #[test]
    fn help_documents_exactly_the_allowlisted_commands() {
        let mut allowlisted: std::collections::BTreeSet<String> = COMMAND_OPTIONS
            .iter()
            .map(|(name, _)| (*name).to_string())
            .collect();
        // `help` takes no options, so it has no allowlist row.
        allowlisted.insert("help".into());
        assert_eq!(help_commands(), allowlisted);
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
        const SPEC_FLAGS: &[&str] = &[
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
        ];
        for cmd in ["campaign", "submit"] {
            let (_, allowed) = COMMAND_OPTIONS
                .iter()
                .find(|(name, _)| *name == cmd)
                .unwrap();
            for flag in SPEC_FLAGS {
                assert!(allowed.contains(flag), "'{cmd}' lacks --{flag}");
            }
        }
    }

    #[test]
    fn every_kind_parses_into_a_spec_that_roundtrips_the_wire() {
        use cppc_campaign::json::Json;
        use cppc_serve::JobSpec;

        let kinds: &[&[&str]] = &[
            &[
                "--kind",
                "scheme",
                "--scheme",
                "secded-interleaved",
                "--fault",
                "single",
            ],
            &[
                "--kind",
                "montecarlo",
                "--rate",
                "30.5",
                "--domains",
                "4",
                "--tavg",
                "0.002",
            ],
            &["--kind", "mbe", "--batch", "64"],
            &["--kind", "sleep", "--sleep-ms", "7"],
            &["--kind", "trace", "--trace", "/data/gcc.cppct"],
            &["--kind", "explore", "--quick"],
        ];
        let mut names = Vec::new();
        for flags in kinds {
            let mut argv = words(&[
                "campaign",
                "--trials",
                "96",
                "--seed",
                "5",
                "--shard-size",
                "8",
            ]);
            argv.extend(words(flags));
            let args = ParsedArgs::parse(argv).unwrap();
            let spec = serve_cmd::spec_from_args(&args, 0).unwrap();
            assert_eq!((spec.trials, spec.seed, spec.shard_size), (96, 5, 8));
            let wire = Json::parse(&spec.to_json().to_string_compact()).unwrap();
            assert_eq!(JobSpec::from_json(&wire).unwrap(), spec, "{flags:?}");
            names.push(spec.kind.name());
        }
        assert_eq!(
            names,
            ["scheme", "montecarlo", "mbe", "sleep", "trace", "explore"]
        );

        let unknown = ParsedArgs::parse(words(&["campaign", "--kind", "nope"])).unwrap();
        let err = serve_cmd::spec_from_args(&unknown, 0)
            .unwrap_err()
            .to_string();
        for name in names {
            assert!(
                err.contains(name),
                "unknown-kind error omits '{name}': {err}"
            );
        }
    }

    #[test]
    fn seed_accepts_the_hex_form_the_banner_prints() {
        let spec = |seed: &str| {
            let args = ParsedArgs::parse(words(&["campaign", "--seed", seed])).unwrap();
            serve_cmd::spec_from_args(&args, 0)
        };
        assert_eq!(spec("0xc11").unwrap(), spec("3089").unwrap());
        assert_eq!(spec("0XC11").unwrap().seed, 3089);
        let err = spec("0xzz").unwrap_err().to_string();
        assert!(err.contains("'0xzz' for --seed"), "{err}");
    }

    #[test]
    fn default_kind_is_the_cppc_scheme_campaign() {
        let spec = |argv: &[&str]| {
            serve_cmd::spec_from_args(&ParsedArgs::parse(words(argv)).unwrap(), 0).unwrap()
        };
        let explicit = spec(&[
            "campaign", "--kind", "scheme", "--scheme", "cppc", "--config", "paper", "--fault",
            "4x4",
        ]);
        assert_eq!(spec(&["campaign"]), explicit);
        assert_eq!(spec(&["campaign", "--kind", "scheme"]), explicit);
    }

    #[test]
    fn spec_defaults_differ_only_in_threads() {
        let args = ParsedArgs::parse(words(&["campaign", "--kind", "mbe"])).unwrap();
        let direct = serve_cmd::spec_from_args(&args, 0).unwrap();
        let submitted = serve_cmd::spec_from_args(&args, 1).unwrap();
        assert_eq!((direct.threads, submitted.threads), (0, 1));
        assert_eq!(
            cppc_serve::JobSpec {
                threads: 0,
                ..submitted
            },
            direct
        );
    }

    #[test]
    fn campaign_and_submit_reject_the_same_bad_specs() {
        for bad in [
            &["--kind", "montecarlo", "--rate", "0"][..],
            &["--kind", "montecarlo", "--tavg", "-1"],
            &["--kind", "inject"],
            &["--config", "nine-pairs"],
            &["--kind", "scheme", "--scheme", "hamming"],
            &["--fault", "3x3"],
            &["--trials", "0"],
        ] {
            let mut argv = words(&["campaign"]);
            argv.extend(words(bad));
            let args = ParsedArgs::parse(argv).unwrap();
            let direct = serve_cmd::spec_from_args(&args, 0).unwrap_err().to_string();
            let submitted = serve_cmd::spec_from_args(&args, 1).unwrap_err().to_string();
            assert_eq!(direct, submitted, "{bad:?}");
        }
    }
}
