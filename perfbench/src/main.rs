//! End-to-end and per-layer benchmark of the k-set agreement workspace.
//!
//! ```text
//! perfbench --workload <rounds_certified|hunt_ensemble|serve_mix>
//!           --seed N --seconds N --trace <0|1> [--server-bin PATH]
//! ```
//!
//! With `--trace 0` the run times untraced passes and prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics,
//! writes a chrome trace and the per-layer self-time table. The last line
//! of standard output is the result object. See `perfbench/README.md`.

mod hostref;
mod inproc;
mod layers;
mod report;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use hostref::HostRef;
use report::{Ctx, Outcome, TracedLayers, Workload};

/// Fresh processes timed for `setup_s`; the median is reported.
const SETUP_PROBES: usize = 5;

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Args {
    ctx: Ctx,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut server_bin = None;
    let mut setup_probe = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("missing value for {arg}"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        ctx: Ctx {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            run_dir: PathBuf::from(".bench_run"),
            server_bin,
        },
        setup_probe,
    })
}

fn run() -> Result<String, String> {
    let Args { ctx, setup_probe } = parse_args()?;
    std::fs::create_dir_all(&ctx.run_dir).map_err(|e| format!("{}: {e}", ctx.run_dir.display()))?;
    if setup_probe {
        // The parent times this process and reads the peak memory of the
        // process that did the warm-up work.
        let rss = match setup(&ctx)? {
            Ready::InProcess(_) => peak_rss_mb("/proc/self/status"),
            Ready::Serve(setup) => Some(setup.warm_up_rss_mb()),
        };
        return rss
            .map(|mb| mb.to_string())
            .ok_or_else(|| "cannot read VmHWM".into());
    }
    if ctx.trace {
        traced(&ctx)
    } else {
        untraced(&ctx)
    }
}

/// A workload after its set-up.
enum Ready {
    InProcess(inproc::Setup),
    Serve(serve::Setup),
}

fn setup(ctx: &Ctx) -> Result<Ready, String> {
    Ok(match ctx.workload {
        Workload::RoundsCertified => Ready::InProcess(inproc::setup(inproc::Kind::Rounds)?),
        Workload::HuntEnsemble => Ready::InProcess(inproc::setup(inproc::Kind::Hunt)?),
        Workload::ServeMix => Ready::Serve(serve::setup(ctx)?),
    })
}

/// Set-up time and peak memory: each probe is a fresh process of this
/// program that sets the workload up, prints the peak resident set of the
/// process that ran the warm-up pass, and exits. Lazily built process
/// state is paid every time, and one warm-up pass is a fixed amount of
/// work, so its memory peak repeats where a long run's would not.
fn probe_setups(ctx: &Ctx) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut seconds, mut rss) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_PROBES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--setup-probe", "--workload", ctx.workload.name()])
            .args(["--seed", &ctx.seed.to_string()])
            .stdout(Stdio::piped());
        if let Some(bin) = &ctx.server_bin {
            cmd.arg("--server-bin").arg(bin);
        }
        let start = Instant::now();
        let out = cmd.output().map_err(|e| format!("setup probe: {e}"))?;
        seconds.push(start.elapsed().as_secs_f64());
        if !out.status.success() {
            return Err(format!("setup probe failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        rss.push(
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("setup probe said {text:?}: {e}"))?,
        );
    }
    match (stats::median(&seconds), stats::median(&rss)) {
        (Some(s), Some(mb)) => Ok((s, mb)),
        _ => Err("no setup probe ran".into()),
    }
}

fn untraced(ctx: &Ctx) -> Result<String, String> {
    let (setup_s, peak_rss_mb) = probe_setups(ctx)?;
    let ready = setup(ctx)?;
    let host = HostRef::new(ctx.seed);
    let outcome = match ready {
        Ready::InProcess(setup) => inproc::run(ctx, &setup, &host),
        Ready::Serve(mut setup) => serve::run(ctx, &mut setup, &host)?,
    };
    let values = report::end_to_end(&outcome.timing, setup_s, peak_rss_mb);
    let measured = values
        .as_ref()
        .is_some_and(|v| v.iter().all(|x| x.is_finite() && *x > 0.0));
    describe(ctx, &outcome);
    let values = values.unwrap_or_else(|| vec![0.0; report::END_TO_END.len()]);
    let correct = measured && outcome.failed == 0;
    Ok(report::result_json(
        correct,
        &outcome,
        &report::END_TO_END,
        &values,
    ))
}

fn traced(ctx: &Ctx) -> Result<String, String> {
    let ready = setup(ctx)?;
    let host = HostRef::new(ctx.seed);
    let (outcome, layers): (Outcome, TracedLayers) = match ready {
        Ready::InProcess(setup) => inproc::run_traced(ctx, &setup, &host),
        Ready::Serve(mut setup) => serve::run_traced(ctx, &mut setup, &host)?,
    };
    let name = ctx.workload.name();
    let trace_path = ctx.run_dir.join(format!("trace-{name}.json"));
    let table_path = ctx.run_dir.join(format!("layers-{name}.txt"));
    let table = layers.table();
    write(&trace_path, &layers.chrome_trace)?;
    write(&table_path, &table)?;
    eprintln!("{table}chrome trace: {}", trace_path.display());
    describe(ctx, &outcome);
    let values = report::per_layer(&layers, &outcome);
    let correct = outcome.failed == 0 && values.iter().all(|x| x.is_finite());
    Ok(report::result_json(
        correct,
        &outcome,
        &report::PER_LAYER,
        &values,
    ))
}

fn describe(ctx: &Ctx, outcome: &Outcome) {
    let timing = &outcome.timing;
    for (slot, ms) in timing.ms.iter().enumerate() {
        let mut sorted = ms.clone();
        sorted.sort_by(f64::total_cmp);
        if let (Some(lo), Some(hi), Some(med)) = (sorted.first(), sorted.last(), stats::median(ms))
        {
            eprintln!(
                "t{}: {} passes, median {med:.1} ms (min {lo:.1}, max {hi:.1}), {:.3} ref",
                slot + 1,
                ms.len(),
                stats::median(&timing.per_ref[slot]).unwrap_or(0.0)
            );
            let samples: Vec<String> = ms.iter().map(|x| format!("{x:.1}")).collect();
            eprintln!("t{} samples: {}", slot + 1, samples.join(" "));
        }
    }
    if let Some(med) = stats::median(&timing.ref_ms) {
        let spread = stats::iqr_ratio(&timing.ref_ms).unwrap_or(0.0);
        eprintln!("host reference kernel: median {med:.2} ms, spread {spread:.3}");
    }
    eprintln!(
        "{}: {} operations, {} failed{}",
        ctx.workload.name(),
        outcome.attempted,
        outcome.failed,
        outcome
            .first_error
            .as_ref()
            .map_or(String::new(), |e| format!(" (first: {e})"))
    );
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set size (`VmHWM`) in MB from a `/proc/<pid>/status` file.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
