//! The smv serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <adhoc|scan|durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed and sets up
//! [`SETUPS`] times, measuring each set-up for an equal share of
//! `--seconds`; samples are pooled and `setup_s` is the median set-up
//! time. Every answer is checked against an oracle outside the timed
//! region. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`E2E`]); with `--trace 1` the run
//! records spans around the harness's calls into each layer and reports
//! the per-layer ones ([`LAYERS`]), writing the spans to
//! `.perfbench/trace-<workload>-<seed>.json`.

mod durable;
mod gen;
mod serve_wl;
mod stats;
mod trace;
mod vfs;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with tracing off.
/// Queries are `QueryService::query` calls, except on `durable`, where a
/// query is a restart: `DiskStore::open` plus the mix's four queries on
/// the reopened catalog.
///
/// Query latency is gated at one fixed upper percentile, [`TAIL`], and
/// not at the median. On a shared host the program runs in speed states
/// up to about 1.45x apart that switch after seconds to minutes, and the
/// share of a run spent in each varies from run to run. The median, the
/// fastest decile and throughput (the inverse of the mean) sit wherever
/// that share puts them: over ten runs of the same code the median and
/// throughput spread by 0.06-0.34 of their median and the p90 by
/// 0.03-0.10 (interquartile ranges; `PROPERTIES.json` has the sets),
/// and a gate needs a spread well inside its 0.25 bound. The p90 reads
/// the slow state whenever it holds a tenth of a run's requests; the p95
/// does too, but in runs spent wholly in the slow state it also catches
/// that state's contention spikes (five runs: adhoc p95 51-74 ms, p90
/// 50-61 ms). The p10, median and throughput are printed as run
/// properties.
pub const E2E: &[(&str, &str)] = &[
    ("query_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The fixed percentile `query_tail_us` and every per-layer `*_tail_us`
/// report.
pub const TAIL: f64 = 0.90;

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer a workload's requests never reach reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("serve.pattern_hit_rate", "ratio"),
    ("serve.plan_hit_rate", "ratio"),
    ("serve.result_hit_rate", "ratio"),
    ("serve.intra_share", "ratio"),
    ("serve.self_us", "us"),
    ("pattern.parse_us", "us"),
    ("core.rank_us", "us"),
    ("core.rank_tail_us", "us"),
    ("core.first_rewriting_us", "us"),
    ("core.pairs_explored", "count"),
    ("core.pairs_pruned", "count"),
    ("core.candidates", "count"),
    ("core.views_kept", "count"),
    ("core.query_share", "ratio"),
    ("algebra.exec_us", "us"),
    ("algebra.exec_tail_us", "us"),
    ("algebra.op_us.Scan", "us"),
    ("algebra.op_us.Select", "us"),
    ("algebra.op_us.Project", "us"),
    ("algebra.op_us.IdJoin", "us"),
    ("algebra.op_us.StructJoin", "us"),
    ("algebra.op_us.Union", "us"),
    ("algebra.op_us.Nest", "us"),
    ("algebra.op_us.Unnest", "us"),
    ("algebra.op_us.NavigateContent", "us"),
    ("algebra.op_us.DeriveParentId", "us"),
    ("algebra.op_us.DupElim", "us"),
    ("algebra.rows_in_per_row_out", "ratio"),
    ("algebra.feedback_ingest_us", "us"),
    ("algebra.query_share", "ratio"),
    ("views.apply_us", "us"),
    ("views.ingest_us", "us"),
    ("views.maintain_us", "us"),
    ("views.publish_us", "us"),
    ("views.rows_killed", "count"),
    ("views.rows_added", "count"),
    ("views.materialize_us", "us"),
    ("summary.build_us", "us"),
    ("store.open_us", "us"),
    ("store.decode_us", "us"),
    ("store.exec_us", "us"),
    ("store.pool_hits", "count"),
    ("store.pool_misses", "count"),
    ("store.pool_evictions", "count"),
    ("store.publish_us", "us"),
    ("store.bytes_written_per_batch", "B"),
    ("store.fsyncs_per_batch", "count"),
    ("store.bytes_read_per_open", "B"),
    ("store.geometry_reranks", "count"),
    ("store.restart_share", "ratio"),
    ("update_p50_us", "us"),
    ("update_tail_us", "us"),
    ("disk_bytes_per_update_op", "B"),
    ("disk_bytes_per_doc_byte", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} outside (0, 600]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: match trace.ok_or("--trace is required")? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace {t} is not 0 or 1")),
            },
        })
    }

    /// The measured window. A traced run splits it: an untraced half
    /// (the base of `trace_overhead`) then a traced half.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back to be printed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches; any one fails the run.
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts about the run printed before the result line (JSON values).
    pub props: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    pub fn prop(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.props.insert(key, value.to_string());
    }

    /// Records a run's query latencies as the `query_tail_us` metric
    /// with its percentile and sample count, and the p10, median and
    /// throughput (queries per second of `active_s`) as properties.
    pub fn query_latency(&mut self, samples_us: Vec<f64>, active_s: f64) {
        let n = samples_us.len();
        if n == 0 {
            self.set("query_tail_us", 0.0);
            return;
        }
        let s = stats::sorted(samples_us);
        let (p, v) = stats::tail(&s, TAIL);
        self.set("query_tail_us", v);
        self.props.insert(
            "query_tail_us",
            format!("{{\"percentile\": {p}, \"samples\": {n}}}"),
        );
        self.prop("query_p10_us", stats::percentile(&s, 0.1));
        self.prop("query_p50_us", stats::median(&s));
        self.prop("throughput_qps", stats::ratio(n as f64, active_s));
    }
}

/// The peak resident set of the program under test, kept apart from the
/// oracle's: a workload [`sample`](PeakRss::sample)s the kernel's
/// high-water mark (`VmHWM`) before oracle work and
/// [`reset`](PeakRss::reset)s it to the current resident set after, so
/// the largest sample covers set-up and measured windows only.
#[derive(Default)]
pub struct PeakRss(f64);

impl PeakRss {
    pub fn sample(&mut self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let hwm_kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        self.0 = self.0.max(hwm_kb / 1024.0);
    }

    /// Lowers the high-water mark to the current resident set.
    pub fn reset() {
        if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
            eprintln!("resetting the peak resident set: {e}");
        }
    }

    /// The largest sample, in MB.
    pub fn mb(&self) -> f64 {
        self.0
    }
}

/// The commit the checkout was made from, when it is a git work tree.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(PathBuf::from(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Where runs keep scratch state (store directories, traces).
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <adhoc|scan|durable> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "adhoc" | "scan" => serve_wl::run(&args, &mut out),
        "durable" => durable::run(&args, &mut out),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    out.prop("workload", format!("\"{}\"", args.workload));
    out.prop("seed", args.seed);
    out.prop("nproc", nproc());
    out.prop("git_revision", format!("\"{}\"", git_revision()));
    out.prop("trace", u8::from(args.trace));

    let wanted = if args.trace { LAYERS } else { E2E };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            // a layer no request of the workload reached reports 0
            let v = match out.metrics.get(name) {
                Some(v) => *v,
                None if args.trace => 0.0,
                None => panic!("workload did not measure {name}"),
            };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(v)
            )
        })
        .collect();
    if out.attempted == 0 {
        out.mismatches.push("no operation was attempted".into());
    }
    for m in &out.mismatches {
        println!("ORACLE MISMATCH: {m}");
    }
    let props: Vec<String> = out
        .props
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("properties: {{{}}}", props.join(", "));
    let correct = out.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists printed here and the ones `BENCHMARK.json`
    /// declares must be the same sets.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, E2E.len() + LAYERS.len());
        for (name, unit) in E2E.iter().chain(LAYERS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
