//! Spans recorded by the harness around its calls into each layer's
//! public functions, kept in memory and written out when the run ends.
//!
//! A span has a name, start, end, the span that caused it and the id of
//! the request it belongs to. A request's real call (`serve.query`,
//! `store.restart`, ...) is its root; the layer entry points the harness
//! re-times for that request are its children, so a layer's self time is
//! the root's duration minus its children's.

use crate::{work_dir, Args};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The run-wide clock origin and id source.
pub struct Tracer {
    origin: Instant,
    ids: AtomicU64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            ids: AtomicU64::new(1),
        }
    }

    /// A fresh id for a request or span (`0` means "none").
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    pub fn recorder(&self) -> Recorder<'_> {
        Recorder {
            tracer: self,
            spans: Vec::new(),
            log: Log::default(),
        }
    }
}

/// A sequence of spans plus named samples the spans cannot carry
/// (ranking statistics, operator profiles, maintenance reports).
pub struct Recorder<'a> {
    tracer: &'a Tracer,
    pub spans: Vec<Span>,
    pub log: Log,
}

impl Recorder<'_> {
    pub fn next_id(&self) -> u64 {
        self.tracer.next_id()
    }

    /// Records a span timed by the caller; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.tracer.next_id();
        let origin = self.tracer.origin;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: start.duration_since(origin).as_nanos() as u64,
            end_ns: end.duration_since(origin).as_nanos() as u64,
        });
        id
    }

    /// Runs `f` inside a span; returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, req, start, Instant::now());
        (out, id)
    }
}

/// Runs `f`, inside a span when a recorder is given (set-up steps, which
/// belong to no request).
pub fn timed<R>(rec: Option<&mut Recorder<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.span(name, 0, 0, f).0,
        None => f(),
    }
}

/// Named samples.
#[derive(Default)]
pub struct Log {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Log {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> Vec<f64> {
        self.samples.get(name).cloned().unwrap_or_default()
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Self time (µs) of every span named `root`: its duration minus the
/// durations of its child spans, floored at zero (children re-time a
/// layer after the real call, so they can exceed it by noise).
pub fn self_times_us(spans: &[Span], root: &str) -> Vec<f64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_insert(0) += s.dur_ns();
    }
    spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| {
            s.dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64
                / 1e3
        })
        .collect()
}

/// Writes a traced run's set-up and window spans to
/// `.perfbench/trace-<workload>-<seed>.json`; a failure to write is
/// reported and does not fail the run.
pub fn write_run(args: &Args, setup: &Recorder<'_>, window: &Recorder<'_>) {
    let mut spans = setup.spans.clone();
    spans.extend(window.spans.iter().cloned());
    let path = work_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
    if let Err(e) = write_trace(&path, &spans) {
        eprintln!("writing {}: {e}", path.display());
    }
}

/// Writes the spans, plus the program's own `smv_obs` spans and metrics
/// snapshot, as one JSON document.
fn write_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("],\n\"obs_spans\": [\n");
    let obs = smv_obs::drain_spans();
    for (i, s) in obs.iter().enumerate() {
        let sep = if i + 1 == obs.len() { "" } else { "," };
        let fields: Vec<String> = s
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"dur_ns\": {}, \"fields\": {{{}}}}}{sep}",
            s.name,
            s.dur_ns,
            fields.join(", ")
        );
    }
    out.push_str("],\n\"obs_metrics\": ");
    out.push_str(&smv_obs::global().snapshot_json());
    out.push_str("\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            req: 1,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, 0, 10_000),
            span(2, 1, 10_000, 13_000),
            span(3, 1, 13_000, 15_000),
            span(4, 0, 20_000, 21_000),
            span(5, 4, 21_000, 25_000),
        ];
        assert_eq!(self_times_us(&spans, "root"), vec![5.0, 0.0]);
        assert_eq!(durations_us(&spans, "child"), vec![3.0, 2.0, 4.0]);
    }
}
