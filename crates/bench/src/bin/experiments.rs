//! The experiment harness: regenerates every figure and in-text numerical
//! claim of the paper (see EXPERIMENTS.md for the index).
//!
//! Usage:
//!
//! ```text
//! experiments all            # run everything
//! experiments fig1 stars …   # run selected experiments
//! experiments --list         # list experiment ids
//! experiments --list-models  # list the builtin model registry
//! experiments --list-models --models 'stars*,ring*'
//!                            # list a registry selection
//! experiments hunt --models 'random{n=3*'
//!                            # hunt over a registry selection
//! experiments all --json BENCH_results.json
//!                            # also write machine-readable results
//! experiments all --certs certs/
//!                            # export every emitted certificate for an
//!                            # out-of-process `cert-check` pass
//! ```
//!
//! `--json <path>` writes per-experiment timings, every shape assertion,
//! a per-experiment check-count summary (`counts`) and the run's
//! instrumentation counters (`metrics`, see DESIGN.md §9) as JSON, so
//! the perf trajectory is tracked across PRs (`BENCH_results.json` at
//! the repo root is the committed baseline) and CI can diff the
//! deterministic payload across thread counts. Of the two per-experiment
//! times, `wall_ms` (on-task elapsed) is the one the committed baseline
//! tracks; `queued_ms` adds the wait for a worker (see
//! `ksa_bench::ExperimentTiming`).
//!
//! `--trace <path>` records a chrome://tracing-compatible trace of the
//! run (experiment, round, rank-reduction, CSP spans): open the file via
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! `--certs <dir>` writes every certificate the experiments emitted
//! (shelling / homology / solvability verdicts, DESIGN.md §11) as
//! `<experiment>-<idx>-<label>.cert` files under `<dir>`, so the
//! standalone `cert-check` binary can re-verify the whole run without
//! sharing a process — the CI determinism job does exactly that.
//!
//! `--models <glob>` selects models from the builtin registry by
//! canonical name (`*`/`?` wildcards; comma-separated patterns respect
//! braces). Repeatable — occurrences are joined with `,`. It filters
//! `--list-models` and overrides the default ensemble of the
//! registry-driven experiments (`hunt`).
//!
//! Exit code 0 iff every executed experiment's shape assertions held.

use ksa_bench::{
    run_experiments_with_models, ExperimentOutcome, ExperimentTiming, ALL_EXPERIMENTS,
};
use std::process::ExitCode;

/// Filesystem-safe slug of a certificate label (`--certs` file names).
fn cert_slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the run as the `BENCH_results.json` document (schema 2:
/// two timing fields per experiment, the folded `counts` summary and
/// the `metrics` section — the old side file is gone). Hand-rolled: the
/// build environment has no serde; the shape is flat enough that string
/// assembly is clearer than a vendored serializer.
fn render_json(results: &[(ExperimentOutcome, ExperimentTiming)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"ksa-bench-results/2\",\n");
    out.push_str(&format!(
        "  \"ksa_threads\": \"{}\",\n",
        json_escape(&std::env::var("KSA_THREADS").unwrap_or_else(|_| "auto".into()))
    ));
    out.push_str("  \"experiments\": [\n");
    for (i, (outcome, timing)) in results.iter().enumerate() {
        let checks_failed = outcome.checks.iter().filter(|(_, ok)| !ok).count();
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": \"{}\",\n", json_escape(outcome.id)));
        out.push_str(&format!("      \"passed\": {},\n", outcome.passed));
        // Deterministic at any KSA_THREADS (part of the CI diff):
        // null ⇔ the experiment emits no certificates.
        out.push_str(&format!(
            "      \"certified\": {},\n",
            match outcome.certified {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            }
        ));
        // `wall_ms` (on-task elapsed) is the tracked series; `queued_ms`
        // adds the wait for a worker (see ksa_bench::ExperimentTiming).
        out.push_str(&format!("      \"wall_ms\": {:.1},\n", timing.wall_ms));
        out.push_str(&format!("      \"queued_ms\": {:.1},\n", timing.queued_ms));
        out.push_str(&format!(
            "      \"checks_passed\": {},\n",
            outcome.checks.len() - checks_failed
        ));
        out.push_str(&format!("      \"checks_failed\": {checks_failed},\n"));
        out.push_str(&format!(
            "      \"skipped_models\": [{}],\n",
            outcome
                .skipped_models
                .iter()
                .map(|m| format!("\"{}\"", json_escape(m)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("      \"checks\": [\n");
        for (j, (what, ok)) in outcome.checks.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"what\": \"{}\", \"ok\": {}}}{}\n",
                json_escape(what),
                ok,
                if j + 1 < outcome.checks.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    // The per-experiment check-count summary (the former
    // `BENCH_results.json.counts` side file, folded in).
    out.push_str("  \"counts\": {\n");
    for (i, (outcome, _)) in results.iter().enumerate() {
        let failed = outcome.checks.iter().filter(|(_, ok)| !ok).count();
        out.push_str(&format!(
            "    \"{}\": \"{}/{}\"{}\n",
            json_escape(outcome.id),
            outcome.checks.len() - failed,
            outcome.checks.len(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");

    // Instrumentation counters for the whole run (DESIGN.md §9). The
    // deterministic tier is part of the cross-thread determinism
    // contract and is diffed by CI; everything under "perf" is
    // scheduling-dependent and must be stripped first.
    let metrics = ksa_obs::snapshot();
    out.push_str("  \"metrics\": {\n    \"deterministic\": {\n");
    for (i, (name, value)) in metrics.det.iter().enumerate() {
        out.push_str(&format!(
            "      \"{name}\": {value}{}\n",
            if i + 1 < metrics.det.len() { "," } else { "" }
        ));
    }
    out.push_str("    },\n    \"perf\": {\n      \"counters\": {\n");
    for (i, (name, value)) in metrics.perf.iter().enumerate() {
        out.push_str(&format!(
            "        \"{name}\": {value}{}\n",
            if i + 1 < metrics.perf.len() { "," } else { "" }
        ));
    }
    out.push_str("      }\n    }\n  }\n}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    // Pull out `--json <path>` / `--trace <path>` / `--models <glob>` /
    // `--list-models` before interpreting the rest as ids.
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut certs_dir: Option<String> = None;
    let mut model_globs: Vec<String> = Vec::new();
    let mut list_models = false;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            match it.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path argument");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--certs" {
            match it.next() {
                Some(dir) => certs_dir = Some(dir),
                None => {
                    eprintln!("--certs requires a directory argument");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--trace" {
            match it.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace requires a path argument");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--models" {
            match it.next() {
                Some(glob) => model_globs.push(glob),
                None => {
                    eprintln!("--models requires a glob argument (e.g. 'stars*,ring*')");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg == "--list-models" {
            list_models = true;
        } else {
            selected.push(arg);
        }
    }
    let models: Option<String> = if model_globs.is_empty() {
        None
    } else {
        Some(model_globs.join(","))
    };

    if list_models {
        let reg = ksa_models::registry::builtin();
        let names: Vec<&str> = match &models {
            Some(glob) => reg.select(glob),
            None => reg.names().collect(),
        };
        for name in &names {
            println!("{name}");
        }
        eprintln!("{} of {} builtin models", names.len(), reg.len());
        return ExitCode::SUCCESS;
    }

    let ids: Vec<&str> = if selected.is_empty() || selected.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        selected.iter().map(|s| s.as_str()).collect()
    };

    if trace_path.is_some() {
        ksa_obs::trace_start();
    }

    // Whole experiments fan out over `KSA_THREADS` workers; results come
    // back in input order, so the printed reports and the JSON payload
    // are independent of the thread count.
    let mut all_ok = true;
    let mut results: Vec<(ExperimentOutcome, ExperimentTiming)> = Vec::new();
    for (id, (result, timing)) in ids
        .iter()
        .zip(run_experiments_with_models(&ids, models.as_deref()))
    {
        match result {
            Ok(outcome) => {
                println!("================================================================");
                println!(
                    "experiment: {} ({:.0} ms on-task)",
                    outcome.id, timing.wall_ms
                );
                println!("================================================================");
                println!("{}", outcome.report);
                println!(
                    "result: {}\n",
                    if outcome.passed { "PASSED" } else { "FAILED" }
                );
                all_ok &= outcome.passed;
                results.push((outcome, timing));
            }
            Err(e) => {
                eprintln!("experiment {id}: error: {e}");
                all_ok = false;
            }
        }
    }

    if let Some(dir) = certs_dir {
        let dir = std::path::Path::new(&dir);
        match std::fs::create_dir_all(dir) {
            Err(e) => {
                eprintln!("failed to create {}: {e}", dir.display());
                all_ok = false;
            }
            Ok(()) => {
                let mut written = 0usize;
                for (outcome, _) in &results {
                    for (i, (label, text)) in outcome.certs.iter().enumerate() {
                        let path =
                            dir.join(format!("{}-{i:02}-{}.cert", outcome.id, cert_slug(label)));
                        if let Err(e) = std::fs::write(&path, text) {
                            eprintln!("failed to write {}: {e}", path.display());
                            all_ok = false;
                        } else {
                            written += 1;
                        }
                    }
                }
                println!("wrote {written} certificate(s) to {}", dir.display());
            }
        }
    }

    if let Some(path) = trace_path {
        let doc = ksa_obs::trace_stop();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            all_ok = false;
        } else {
            println!("wrote chrome://tracing trace to {path}");
        }
    }

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_json(&results)) {
            eprintln!("failed to write {path}: {e}");
            all_ok = false;
        } else {
            println!("wrote {} experiment results to {path}", results.len());
        }
    }

    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
