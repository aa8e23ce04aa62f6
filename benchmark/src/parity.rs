//! Build parity: the root crates are path dependencies, so they are
//! compiled under *this* package's `[profile.release]`.  If the root
//! manifest's block drifts from ours, the benchmark would measure a build
//! nobody ships — refuse to start instead.

/// The settings of a manifest's `[profile.release]` table, normalised:
/// comments and blank lines dropped, whitespace removed, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut settings: Vec<String> = manifest
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty())
        .map(|line| line.split_whitespace().collect())
        .collect();
    settings.sort();
    settings
}

/// `Err` names both blocks when the root manifest's `[profile.release]`
/// differs from the benchmark's.
pub fn check() -> Result<(), String> {
    let ours = release_profile(include_str!("../Cargo.toml"));
    let root_path = crate::package_dir().join("../Cargo.toml");
    let root = std::fs::read_to_string(&root_path)
        .map_err(|e| format!("cannot read the root manifest {}: {e}", root_path.display()))?;
    let theirs = release_profile(&root);
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: root Cargo.toml has {theirs:?}, benchmark/Cargo.toml has {ours:?}; \
             repeat the root block in benchmark/Cargo.toml so the benchmark measures the shipped build"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_block_is_normalised() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto   = \"thin\"  # trailing\n\ncodegen-units=1\n[profile.dev]\nopt-level = 2\n";
        assert_eq!(
            release_profile(manifest),
            vec!["codegen-units=1".to_string(), "lto=\"thin\"".to_string()]
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn this_checkout_is_in_parity() {
        check().expect("benchmark/Cargo.toml repeats the root [profile.release]");
    }
}
