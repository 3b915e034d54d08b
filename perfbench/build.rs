//! Captures the run metadata every result carries: the rustc that built
//! the benchmark and, when the sources are a git checkout, the commit.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // A `rerun-if-changed` path that does not exist reruns the script,
    // and so rebuilds the benchmark, on every build: outside a git
    // checkout watch only this script.
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    if git.join("HEAD").exists() {
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git.join("refs").display());
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit(&git).unwrap_or_else(|| "unknown".to_string())
    );
}

/// Resolves `HEAD` by reading the git directory (no `git` process, so
/// nothing outside the checkout is searched).
fn commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_string()))
}
