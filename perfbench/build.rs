//! Stamps the build with the git commit, the compiler version and the profile, which every
//! result line is printed beside.

use std::path::Path;
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default();
    let repo = Path::new(&manifest).join("..");
    // Only ask git inside the repository itself: an exported source tree has no `.git`, and
    // git would otherwise report the commit of whatever repository encloses it.
    let commit = if repo.join(".git").exists() {
        output(
            Command::new("git")
                .arg("-C")
                .arg(&repo)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.unwrap_or_else(|| "unknown".into())
    );
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
