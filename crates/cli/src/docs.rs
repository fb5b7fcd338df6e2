//! `cppc-cli docs [--check]` — the one renderer of the generated books.
//!
//! Each book in [`BOOKS`] is a pure function of the code and the
//! committed `docs/results/*.json` documents, so rendering runs no
//! simulation. `docs` writes all of them; `docs --check` renders them
//! in memory and fails naming every file whose committed bytes differ
//! (the freshness gate of `ci.sh` and of `cargo test`). `repro` and
//! canonical `explore` runs call [`write_all`] after refreshing their
//! documents, so a result and the books that show it never disagree.

use std::error::Error;
use std::path::{Path, PathBuf};

use crate::args::ParsedArgs;

type CliResult = Result<(), Box<dyn Error>>;

/// One generated file: its path under the repository root and the
/// function that renders it from that root.
pub struct Book {
    /// Path relative to the repository root.
    pub path: &'static str,
    /// Renders the file's full contents.
    pub render: fn(&Path) -> String,
}

/// Every generated book.
pub const BOOKS: &[Book] = &[
    Book {
        path: "docs/RESULTS.md",
        render: cppc_repro::render_book,
    },
    Book {
        path: "docs/SCHEMES.md",
        render: schemes,
    },
    Book {
        path: "docs/EXPLORER.md",
        render: explorer,
    },
    Book {
        path: "docs/METRICS.md",
        render: |_| crate::commands::metrics_reference(),
    },
];

/// The scheme catalog, with the committed `scheme_comparison` tables.
fn schemes(root: &Path) -> String {
    let comparison = cppc_repro::load_doc(&cppc_repro::json_path(root, "scheme_comparison"));
    cppc_repro::schemes_md::render(comparison.as_ref())
}

/// The explorer book, from the committed quick- and full-tier sweeps.
fn explorer(root: &Path) -> String {
    let tier = |name| cppc_repro::load_doc(&crate::commands::explore_json_path(root, name));
    cppc_explore::doc::render(tier("quick").as_ref(), tier("full").as_ref())
}

/// Renders and writes every book under `root`, returning their paths.
///
/// # Errors
///
/// Fails naming the first file that cannot be written.
pub fn write_all(root: &Path) -> Result<Vec<PathBuf>, Box<dyn Error>> {
    BOOKS
        .iter()
        .map(|book| {
            let path = root.join(book.path);
            std::fs::write(&path, (book.render)(root))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// The books under `root` whose bytes differ from a fresh render (a
/// missing or unreadable file is stale too).
#[must_use]
pub fn stale(root: &Path) -> Vec<&'static str> {
    BOOKS
        .iter()
        .filter(|book| {
            std::fs::read_to_string(root.join(book.path)).ok() != Some((book.render)(root))
        })
        .map(|book| book.path)
        .collect()
}

/// `docs` — write every book under the current directory, or with
/// `--check` verify them and fail naming each stale one.
pub fn docs(args: &ParsedArgs) -> CliResult {
    let root = Path::new(".");
    if !args.get_flag("check") {
        for path in write_all(root)? {
            println!("wrote {}", path.display());
        }
        return Ok(());
    }
    let stale = stale(root);
    if stale.is_empty() {
        println!("docs check: {} generated files up to date", BOOKS.len());
        return Ok(());
    }
    for path in &stale {
        eprintln!("  stale: {path}");
    }
    Err(format!(
        "{} generated file(s) out of date ({}); regenerate with \
         `cargo run --release -p cppc-cli -- docs`",
        stale.len(),
        stale.join(", ")
    )
    .into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_books_are_fresh() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(
            stale(&root),
            Vec::<&str>::new(),
            "regenerate with `cargo run --release -p cppc-cli -- docs`"
        );
        // `stats --describe` prints the same render: every group
        // `register_all_metrics` lists, the snapshot store's included.
        let metrics = crate::commands::metrics_reference();
        assert!(
            metrics.contains("\n## `snapshot` —"),
            "snapshot group missing"
        );
    }

    #[test]
    fn check_names_exactly_the_edited_book() {
        let root = std::env::temp_dir().join(format!("cppc-docs-test-{}", std::process::id()));
        std::fs::create_dir_all(root.join("docs")).unwrap();
        write_all(&root).unwrap();
        assert!(stale(&root).is_empty());
        for book in BOOKS {
            let path = root.join(book.path);
            let fresh = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, format!("{fresh}hand edit\n")).unwrap();
            assert_eq!(stale(&root), [book.path]);
            std::fs::write(&path, fresh).unwrap();
        }
        std::fs::remove_file(root.join(BOOKS[0].path)).unwrap();
        assert_eq!(stale(&root), [BOOKS[0].path]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
