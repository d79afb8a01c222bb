//! Standalone certificate checker: `cert-check <file-or-dir>...`
//!
//! Reads every argument (directories are scanned for `*.cert` files,
//! sorted by name), parses and re-verifies each certificate with the
//! `ksa-cert` checkers, and exits nonzero if any certificate fails to
//! parse or is rejected. CI runs this over the files emitted by
//! `experiments all --certs <dir>` (DESIGN.md §11).

use ksa_cert::Cert;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn collect(path: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "cert"))
            .collect();
        entries.sort();
        files.extend(entries);
    } else {
        files.push(path.to_path_buf());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: cert-check <file-or-dir>...");
        return ExitCode::FAILURE;
    }
    let mut files = Vec::new();
    for arg in &args {
        if let Err(err) = collect(Path::new(arg), &mut files) {
            eprintln!("cert-check: cannot read {arg}: {err}");
            return ExitCode::FAILURE;
        }
    }
    if files.is_empty() {
        eprintln!("cert-check: no .cert files found under {args:?}");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for file in &files {
        let name = file.display();
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(err) => {
                println!("REJECTED {name}: unreadable: {err}");
                failures += 1;
                continue;
            }
        };
        match Cert::parse(&text).and_then(|cert| cert.check().map(|()| cert)) {
            Ok(cert) => println!("OK {name} ({} `{}`)", cert.kind(), cert.label()),
            Err(err) => {
                println!("REJECTED {name}: {err}");
                failures += 1;
            }
        }
    }
    println!(
        "cert-check: {} certificate(s), {} rejected",
        files.len(),
        failures
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
