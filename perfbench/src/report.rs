//! Run context, pass bookkeeping, and the metrics the benchmark prints.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ksa_obs::Counter;

use crate::inproc::det_value;
use crate::layers::{Recorder, Site};
use crate::stats::{iqr_ratio, median};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RoundsCertified,
    HuntEnsemble,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RoundsCertified,
        Workload::HuntEnsemble,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RoundsCertified => "rounds_certified",
            Workload::HuntEnsemble => "hunt_ensemble",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for sockets, caches and the chrome trace.
    pub run_dir: PathBuf,
    /// The `ksa-server` executable (`serve_mix` only).
    pub server_bin: Option<PathBuf>,
}

/// Operations attempted and failed, and the untraced pass times.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub timing: PassTiming,
}

impl Outcome {
    /// Counts one operation; an error marks it failed.
    pub fn record<T>(&mut self, result: Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Untraced pass times per concurrency level (slot 0: one worker or
/// client, slot 1: two), raw and over the host reference kernel.
#[derive(Debug, Default)]
pub struct PassTiming {
    pub ms: [Vec<f64>; 2],
    pub per_ref: [Vec<f64>; 2],
    pub ref_ms: Vec<f64>,
}

impl PassTiming {
    pub fn push(&mut self, slot: usize, ms: f64, ref_ms: f64) {
        self.ms[slot].push(ms);
        self.per_ref[slot].push(ms / ref_ms);
        self.ref_ms.push(ref_ms);
    }

    /// Whether either level still lacks a sample.
    pub fn is_empty(&self) -> bool {
        self.ms.iter().any(Vec::is_empty)
    }
}

/// Everything a traced run measures.
#[derive(Debug, Default)]
pub struct TracedLayers {
    /// Per-pass (or per-probe) milliseconds of each site.
    pub site_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Traced passes: (wall ms, ms attributed to layer sites).
    pub passes: Vec<(f64, f64)>,
    /// Untraced pass times at one and two workers or clients; the first
    /// are the overhead baseline.
    pub untraced_pass_ms: [Vec<f64>; 2],
    /// Traced passes comparable to `untraced_pass_ms`, when they are not
    /// the attributed passes themselves.
    pub traced_pass_ms: Vec<f64>,
    pub ref_ms: Vec<f64>,
    pub steals: Vec<f64>,
    pub parks: Vec<f64>,
    /// Deterministic work counts of one pass.
    pub det: Vec<(&'static str, u64)>,
    pub materializations: u64,
    /// Summed CSP (searched, seeded, pruned).
    pub csp: (usize, usize, usize),
    /// `server.*` metrics (measured by `serve_mix` only).
    pub server: BTreeMap<&'static str, f64>,
    pub chrome_trace: String,
}

impl TracedLayers {
    /// Records one pass's (or probe's) total for `site`.
    pub fn push_site(&mut self, rec: &Recorder, site: Site) {
        self.site_ms
            .entry(site.name())
            .or_default()
            .push(rec.ms(site));
    }

    /// Records a traced pass: its wall time and every layer's total.
    pub fn push_pass(&mut self, rec: &Recorder, wall_ms: f64) {
        for site in [
            Site::RoundsBuild,
            Site::ChainSweep,
            Site::CertProduce,
            Site::CertCheck,
            Site::BoundsLower,
            Site::CspSweep,
        ] {
            self.push_site(rec, site);
        }
        self.passes.push((wall_ms, rec.attributed_ms()));
    }

    fn site(&self, site: Site) -> f64 {
        self.site_ms
            .get(site.name())
            .and_then(|v| median(v))
            .unwrap_or(0.0)
    }

    fn count(&self, c: Counter) -> f64 {
        det_value(&self.det, c) as f64
    }

    /// The per-layer self-time table of the median traced pass.
    pub fn table(&self) -> String {
        let wall = median(&self.passes.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap_or(0.0);
        let mut out = format!("{:<22} {:>12} {:>8}\n", "layer", "self ms", "share");
        let mut attributed = 0.0;
        for site in Site::ALL {
            let ms = self.site(site);
            if ms > 0.0 && site != Site::Experiment {
                out += &format!("{:<22} {ms:>12.3} {:>7.1}%\n", site.name(), share(ms, wall));
                if !matches!(
                    site,
                    Site::Materialize | Site::ChainClosure | Site::ChainRank
                ) {
                    attributed += ms;
                }
            }
        }
        out += &format!(
            "{:<22} {:>12.3} {:>7.1}%\n{:<22} {wall:>12.3}\n",
            "(unattributed)",
            (wall - attributed).max(0.0),
            share((wall - attributed).max(0.0), wall),
            "traced pass"
        );
        out += "models.materialize, chain.closure and chain.rank are timed outside the pass.\n";
        out
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_ref_t1", "ref"),
    ("pass_ref_t2", "ref"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("pass_ms_t1", "ms"),
    ("pass_ms_t2", "ms"),
    ("models.materialize_ms", "ms"),
    ("models.materializations", "count"),
    ("rounds.build_ms", "ms"),
    ("rounds.facets", "count"),
    ("rounds.views", "count"),
    ("chain.closure_ms", "ms"),
    ("chain.faces", "count"),
    ("chain.boundary_nnz", "count"),
    ("chain.rank_ms", "ms"),
    ("chain.ranks", "count"),
    ("chain.early_exits", "count"),
    ("chain.sweep_ms", "ms"),
    ("cert.produce_ms", "ms"),
    ("cert.check_ms", "ms"),
    ("cert.checked", "count"),
    ("cert.check_per_produce", "ratio"),
    ("bounds.lower_ms", "ms"),
    ("bounds.domination_queries", "count"),
    ("csp.sweep_ms", "ms"),
    ("csp.verdicts", "count"),
    ("csp.symmetries", "count"),
    ("csp.decided_without_search", "ratio"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("server.connect_ms", "ms"),
    ("server.roundtrip_ms", "ms"),
    ("server.cache_get_ms", "ms"),
    ("server.cache_put_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_writes", "count"),
    ("server.requests_shed", "count"),
    ("server.response_bytes", "bytes"),
    ("server.miss_ms_p50", "ms"),
    ("server.miss_ms_p90", "ms"),
    ("server.hit_ms_p50", "ms"),
    ("server.hit_ms_p90", "ms"),
    ("server.requests_per_s", "1/s"),
    ("host.ref_ms", "ms"),
    ("host.ref_spread", "ratio"),
    ("trace.pass_ms", "ms"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// The end-to-end metrics of an untraced run. `None` when a value could
/// not be measured (the run then reports itself incorrect).
pub fn end_to_end(timing: &PassTiming, setup_s: f64, peak_rss_mb: f64) -> Option<Vec<f64>> {
    Some(vec![
        setup_s,
        median(&timing.per_ref[0])?,
        median(&timing.per_ref[1])?,
        peak_rss_mb,
    ])
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(t: &TracedLayers, outcome: &Outcome) -> Vec<f64> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (searched, seeded, pruned) = t.csp;
    let wall = median(&t.passes.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap_or(0.0);
    let unattributed: Vec<f64> = t
        .passes
        .iter()
        .map(|&(wall, attributed)| ratio((wall - attributed).max(0.0), wall))
        .collect();
    let untraced = median(&t.untraced_pass_ms[0]).unwrap_or(0.0);
    let traced = median(&t.traced_pass_ms).unwrap_or(wall);
    let server = |name: &str| t.server.get(name).copied().unwrap_or(0.0);
    vec![
        untraced,
        median(&t.untraced_pass_ms[1]).unwrap_or(0.0),
        t.site(Site::Materialize),
        t.materializations as f64,
        t.site(Site::RoundsBuild),
        t.count(Counter::FacetsEnumerated),
        t.count(Counter::ViewsInterned),
        t.site(Site::ChainClosure),
        t.count(Counter::FacesClosed),
        t.count(Counter::BoundaryNnz),
        t.site(Site::ChainRank),
        t.count(Counter::RanksComputed),
        t.count(Counter::ConnectivityEarlyExits),
        t.site(Site::ChainSweep),
        t.site(Site::CertProduce),
        t.site(Site::CertCheck),
        t.count(Counter::CertsChecked),
        ratio(t.site(Site::CertCheck), t.site(Site::CertProduce)),
        t.site(Site::BoundsLower),
        t.count(Counter::DominationQueries),
        t.site(Site::CspSweep),
        t.count(Counter::CspVerdicts),
        t.count(Counter::CspSymmetries),
        ratio(
            (seeded + pruned) as f64,
            (searched + seeded + pruned) as f64,
        ),
        median(&t.steals).unwrap_or(0.0),
        median(&t.parks).unwrap_or(0.0),
        server("server.connect_ms"),
        server("server.roundtrip_ms"),
        server("server.cache_get_ms"),
        server("server.cache_put_ms"),
        server("server.cache_hit_ratio"),
        server("server.cache_writes"),
        server("server.requests_shed"),
        server("server.response_bytes"),
        server("server.miss_ms_p50"),
        server("server.miss_ms_p90"),
        server("server.hit_ms_p50"),
        server("server.hit_ms_p90"),
        server("server.requests_per_s"),
        median(&t.ref_ms).unwrap_or(0.0),
        iqr_ratio(&t.ref_ms).unwrap_or(0.0),
        wall,
        median(&unattributed).unwrap_or(0.0),
        ratio(traced, untraced),
        ratio(outcome.failed as f64, outcome.attempted as f64),
    ]
}

/// The result line: one JSON object with the run's verdict and metrics.
pub fn result_json(
    correct: bool,
    outcome: &Outcome,
    metrics: &[(&str, &str)],
    values: &[f64],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the metrics the program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = ksa_server::json::parse(text.as_bytes()).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(ksa_server::json::Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field =
                            |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks `{key}`"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match json.get("workloads") {
            Some(ksa_server::json::Value::Arr(items)) => items
                .iter()
                .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
                .collect(),
            _ => panic!("BENCHMARK.json lacks `workloads`"),
        };
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let line = result_json(true, &outcome, &[("setup_s", "s")], &[0.25]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }
}
