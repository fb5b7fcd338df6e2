//! The artifact registry: one module per paper artifact.
//!
//! Adding an artifact is three steps (see `docs/ARCHITECTURE.md` for
//! the walkthrough): write a module exposing an [`Artifact`] constant
//! builder, append it to [`registry`], then run
//! `cppc-cli repro --artifact <name> --update-goldens` to bless the
//! first golden and regenerate the book.

mod ablations;
mod drives;
mod energy;
mod explore;
mod fig10;
pub mod mbe;
mod schemes;
mod section7;
mod table2;
mod table3;

use crate::artifact::Artifact;

/// Every registered artifact, in book order.
#[must_use]
pub fn registry() -> &'static [Artifact] {
    static REGISTRY: std::sync::OnceLock<Vec<Artifact>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| {
        vec![
            table2::artifact(),
            table3::artifact(),
            fig10::artifact(),
            energy::artifact(),
            section7::artifact(),
            ablations::artifact(),
            schemes::artifact(),
            mbe::artifact(),
            explore::artifact(),
        ]
    })
}

/// Looks an artifact up by registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Artifact> {
    registry().iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|a| a.name).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate artifact name");
        for name in names {
            assert!(find(name).is_some());
        }
        assert!(find("no_such_artifact").is_none());
    }

    #[test]
    fn artifact_configs_render() {
        let cfg = crate::artifact::RunConfig::default();
        for a in registry() {
            let kv = (a.config)(&cfg);
            assert!(!kv.is_empty(), "{} has an empty config block", a.name);
        }
    }
}
