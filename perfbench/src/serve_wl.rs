//! The two workloads served through `QueryService`, each driven by one
//! closed-loop client: `adhoc` (rank-bound) and `scan` (execute-bound).

use crate::gen::{self, Adhoc, DOC_SEED, SCALE};
use crate::stats::{median_or_zero, ratio, tail_or_zero};
use crate::trace::{self, timed, Log, Recorder, Tracer};
use crate::{nproc, Args, Outcome, PeakRss, LAYERS, SETUPS, TAIL};
use smv_algebra::{
    execute_profiled_with, plan_fingerprint, ExecOpts, ExecProfile, FeedbackCards, FeedbackStore,
    NestedRelation, Plan, Row, WorkerPool,
};
use smv_core::{rewrite_with_feedback, RewriteOpts};
use smv_datagen::{pr7_document, pr7_views};
use smv_pattern::{canonical_form, parse_pattern, Pattern};
use smv_serve::{text_fingerprint, QueryResponse, QueryService, ServiceConfig, ServiceStats};
use smv_summary::Summary;
use smv_views::{materialize_with, CatalogCards, RefreshPolicy, ViewStore};
use smv_xml::{IdScheme, LiveDoc};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCHEME: IdScheme = IdScheme::OrdPath;

/// Result-cache capacity (entries) for a served workload.
fn result_cache(workload: &str) -> usize {
    match workload {
        // Every text is new, so every request ranks (plan miss) and
        // executes (result miss).
        "adhoc" => DEFAULT_RESULT_CACHE,
        // The client cycles through SCAN_QUERIES distinct texts: plans
        // are ranked in set-up and always hit; the cycle is longer than
        // the FIFO result cache, so results always miss. The cache is
        // sized far down from its default (256) so the working set stays
        // small: with 32 cached scale-4 answers the 5th to 95th
        // percentile of latency was 220-530 µs, with 4 it was 185-320 µs.
        "scan" => 4,
        other => unreachable!("not a served workload: {other}"),
    }
}

/// `scan`'s query-set size: above its result-cache capacity (4), within
/// the plan cache's (1024).
const SCAN_QUERIES: usize = 8;
const DEFAULT_RESULT_CACHE: usize = 256;

struct Bench {
    svc: QueryService,
    /// Every text requested so far (`adhoc`), or the fixed set (`scan`).
    texts: Vec<String>,
    /// `adhoc`'s generator of fresh canonical forms.
    adhoc: Option<Adhoc>,
    /// `scan`'s position in its cycle.
    cursor: usize,
    /// The epoch every answer is served at: no workload here updates.
    base_epoch: u64,
}

impl Bench {
    /// The index of the next text to request.
    fn next_idx(&mut self) -> usize {
        match &mut self.adhoc {
            Some(g) => {
                self.texts.push(g.next_text());
                self.texts.len() - 1
            }
            None => {
                self.cursor += 1;
                (self.cursor - 1) % self.texts.len()
            }
        }
    }
}

fn build(args: &Args, part: u64, mut rec: Option<&mut Recorder<'_>>) -> Bench {
    let doc = timed(rec.as_deref_mut(), "setup.datagen", || {
        pr7_document(SCALE, DOC_SEED)
    });
    if args.trace {
        // Summary::of is re-timed on the same document; the service
        // builds its own summary inside QueryService::new
        timed(rec.as_deref_mut(), "summary.build", || {
            std::hint::black_box(Summary::of(&doc));
        });
    }
    let svc = timed(rec.as_deref_mut(), "serve.new", || {
        QueryService::new(
            doc,
            SCHEME,
            ServiceConfig {
                threads: nproc(),
                result_cache_capacity: result_cache(&args.workload),
                ..ServiceConfig::default()
            },
        )
    });
    timed(rec, "views.materialize", || {
        svc.add_views(pr7_views(SCHEME), RefreshPolicy::Eager)
    });
    let (texts, adhoc) = match args.workload.as_str() {
        "adhoc" => (Vec::new(), Some(Adhoc::new(args.seed, part))),
        _ => (gen::scan_queries(args.seed, part, SCAN_QUERIES), None),
    };
    let base_epoch = svc.epoch();
    Bench {
        svc,
        texts,
        adhoc,
        cursor: 0,
        base_epoch,
    }
}

/// Warm-up: every text of `scan`'s fixed set is served once, so its plan
/// is cached. It runs as a client so a traced run's probe learns the
/// plans.
fn warm_up(bench: &Bench, probe: Option<&mut Probe>, rec: Option<&mut Recorder<'_>>) {
    let mut c = Client::new(rec, probe);
    for idx in 0..bench.texts.len() {
        c.request(bench, idx);
    }
    assert_eq!(c.failed, 0, "warm-up texts all rewrite");
}

/// The plan and feedback state a traced run uses to re-time the layers
/// a request needed, on the request's own snapshot.
struct Probe {
    pool: Arc<WorkerPool>,
    feedback: FeedbackStore,
    /// Best plan by (canonical-form fingerprint, epoch).
    plans: HashMap<(u64, u64), Arc<Plan>>,
    patterns: HashMap<String, Arc<(Pattern, u64)>>,
    opts: RewriteOpts,
}

impl Probe {
    fn new(pool: Arc<WorkerPool>) -> Probe {
        Probe {
            pool,
            feedback: FeedbackStore::new(),
            plans: HashMap::new(),
            patterns: HashMap::new(),
            // the service ranks with these options
            opts: RewriteOpts {
                rank_by_cost: true,
                ..RewriteOpts::default()
            },
        }
    }

    fn parse(text: &str) -> Arc<(Pattern, u64)> {
        let p = parse_pattern(text).expect("served texts parse");
        let fp = text_fingerprint(&canonical_form(&p));
        Arc::new((p, fp))
    }

    fn rank(&self, q: &Pattern, resp: &QueryResponse, log: Option<&mut Log>) -> Arc<Plan> {
        let snap = &*resp.snapshot;
        let cards = CatalogCards::over(snap, snap.summary());
        let fb_cards = FeedbackCards::new(&cards, &self.feedback);
        let r = rewrite_with_feedback(
            q,
            snap.views(),
            snap.summary(),
            &self.opts,
            &fb_cards,
            &self.feedback,
        );
        if let Some(log) = log {
            let s = &r.stats;
            log.push(
                "core.first_rewriting_us",
                s.first_rewriting.map_or(0.0, |d| d.as_secs_f64() * 1e6),
            );
            log.push("core.pairs_explored", s.pairs_explored as f64);
            log.push("core.pairs_pruned", s.pairs_pruned as f64);
            log.push("core.candidates", r.rewritings.len() as f64);
            log.push("core.views_kept", s.views_kept as f64);
        }
        Arc::new(
            r.rewritings
                .into_iter()
                .next()
                .expect("a served query has a rewriting")
                .plan,
        )
    }

    /// Re-times, as children of the request's span, each layer the
    /// request needed: parsing on a pattern miss, ranking on a plan
    /// miss, execution and feedback ingestion on a result miss.
    fn request(
        &mut self,
        rec: &mut Recorder<'_>,
        parent: u64,
        req: u64,
        text: &str,
        resp: &QueryResponse,
    ) {
        let pat = match self.patterns.get(text) {
            Some(p) if resp.pattern_cache_hit => Arc::clone(p),
            _ => {
                let (p, _) = rec.span("pattern.parse", parent, req, || Self::parse(text));
                self.patterns.insert(text.to_string(), Arc::clone(&p));
                p
            }
        };
        let key = (pat.1, resp.epoch);
        let plan = match self.plans.get(&key) {
            Some(plan) if resp.plan_cache_hit => Arc::clone(plan),
            _ if resp.plan_cache_hit && resp.result_cache_hit => return,
            _ => {
                let plan = if resp.plan_cache_hit {
                    // ranked before tracing began: learn the plan untimed
                    self.rank(&pat.0, resp, None)
                } else {
                    let mut log = std::mem::take(&mut rec.log);
                    let (plan, _) = rec.span("core.rank", parent, req, || {
                        self.rank(&pat.0, resp, Some(&mut log))
                    });
                    rec.log = log;
                    plan
                };
                self.plans.insert(key, Arc::clone(&plan));
                plan
            }
        };
        if resp.result_cache_hit {
            return;
        }
        let threads = resp.scheduling.threads;
        let opts = ExecOpts {
            threads,
            pool: (threads != 1).then(|| Arc::clone(&self.pool)),
            ..ExecOpts::default()
        };
        let ((rel, profile), _) = rec.span("algebra.exec", parent, req, || {
            execute_profiled_with(&plan, &*resp.snapshot, &opts).expect("served plans execute")
        });
        log_profile(&mut rec.log, &plan, &profile, rel.len());
        rec.span("algebra.ingest", parent, req, || {
            self.feedback.ingest(&plan, &profile)
        });
        rec.log.push(
            "probe.plan_match",
            f64::from(u8::from(plan_fingerprint(&plan) == resp.plan_fingerprint)),
        );
    }
}

/// The `algebra.op_us.<operator>` metric an operator's self time feeds.
fn op_metric(p: &Plan) -> &'static str {
    match p {
        Plan::Scan { .. } => "algebra.op_us.Scan",
        Plan::Select { .. } => "algebra.op_us.Select",
        Plan::Project { .. } => "algebra.op_us.Project",
        Plan::IdJoin { .. } => "algebra.op_us.IdJoin",
        Plan::StructJoin { .. } => "algebra.op_us.StructJoin",
        Plan::Union { .. } => "algebra.op_us.Union",
        Plan::Nest { .. } => "algebra.op_us.Nest",
        Plan::Unnest { .. } => "algebra.op_us.Unnest",
        Plan::NavigateContent { .. } => "algebra.op_us.NavigateContent",
        Plan::DeriveParentId { .. } => "algebra.op_us.DeriveParentId",
        Plan::DupElim { .. } => "algebra.op_us.DupElim",
    }
}

/// Splits an execution profile's inclusive operator times into self
/// times per operator kind, and counts rows read from view extents
/// against rows returned.
fn log_profile(log: &mut Log, plan: &Plan, profile: &ExecProfile, rows_out: usize) {
    fn walk(p: &Plan, path: &mut Vec<String>, prof: &ExecProfile, log: &mut Log) {
        let key = path.join(".");
        let incl = prof.time_ns_at(&key).unwrap_or(0) as f64;
        let mut children = 0.0;
        for (i, c) in p.children().into_iter().enumerate() {
            path.push(i.to_string());
            children += prof.time_ns_at(&path.join(".")).unwrap_or(0) as f64;
            walk(c, path, prof, log);
            path.pop();
        }
        log.push(op_metric(p), (incl - children).max(0.0) / 1e3);
        if matches!(p, Plan::Scan { .. }) {
            log.push(
                "algebra.rows_scanned",
                prof.rows_at(&key).unwrap_or(0) as f64,
            );
        }
    }
    walk(plan, &mut Vec::new(), profile, log);
    log.push("algebra.rows_out", rows_out as f64);
}

fn rows_hash(rows: &[Row]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    rows.hash(&mut h);
    h.finish()
}

/// A digest of a relation as a set of rows: two relations are `set_eq`
/// exactly when their normalized rows are equal, so equal digests mean
/// `set_eq` up to a 64-bit hash collision.
fn set_digest(rel: &NestedRelation) -> u64 {
    rows_hash(&rel.normalized().rows)
}

/// What the oracle keeps of an answer: digests, not rows, so the answers
/// a run keeps do not count in its peak resident set (`adhoc` keeps one
/// per request).
struct Rep {
    /// Hash of the rows in served order: a cheap first check.
    raw: u64,
    set: u64,
    len: usize,
}

/// Answers kept for the oracle: one representative per (text, epoch,
/// plan). Every other response with that key is checked against it as
/// it arrives, outside the timed call.
#[derive(Default)]
struct Answers {
    reps: HashMap<(usize, u64, u64), Rep>,
    mismatches: Vec<String>,
}

impl Answers {
    fn check(&mut self, idx: usize, resp: &QueryResponse) {
        let key = (idx, resp.epoch, resp.plan_fingerprint);
        let raw = rows_hash(&resp.rows.rows);
        match self.reps.get(&key) {
            Some(rep) if rep.raw == raw => {}
            Some(rep) => {
                if set_digest(&resp.rows) != rep.set {
                    self.mismatches.push(format!(
                        "text #{idx} at epoch {}: two executions of one plan disagree",
                        resp.epoch
                    ));
                }
            }
            None => {
                let rep = Rep {
                    raw,
                    set: set_digest(&resp.rows),
                    len: resp.rows.len(),
                };
                self.reps.insert(key, rep);
            }
        }
    }

    fn absorb(&mut self, other: Answers) {
        for (k, v) in other.reps {
            self.reps.entry(k).or_insert(v);
        }
        self.mismatches.extend(other.mismatches);
    }
}

/// The closed-loop client.
struct Client<'a, 'p> {
    lat_us: Vec<f64>,
    /// Time spent on the harness's own work (oracle checks, traced
    /// re-timing), excluded from the throughput denominator.
    harness_ns: u64,
    attempted: u64,
    failed: u64,
    answers: Answers,
    rec: Option<&'a mut Recorder<'p>>,
    probe: Option<&'a mut Probe>,
}

impl<'a, 'p> Client<'a, 'p> {
    fn new(rec: Option<&'a mut Recorder<'p>>, probe: Option<&'a mut Probe>) -> Client<'a, 'p> {
        Client {
            lat_us: Vec::new(),
            harness_ns: 0,
            attempted: 0,
            failed: 0,
            answers: Answers::default(),
            rec,
            probe,
        }
    }

    fn request(&mut self, bench: &Bench, idx: usize) {
        let text = &bench.texts[idx];
        self.attempted += 1;
        let start = Instant::now();
        let r = bench.svc.query(text);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        match r {
            Ok(resp) => {
                self.lat_us.push(ns as f64 / 1e3);
                if let (Some(rec), Some(probe)) =
                    (self.rec.as_deref_mut(), self.probe.as_deref_mut())
                {
                    let req = rec.next_id();
                    let id = rec.record("serve.query", 0, req, start, end);
                    probe.request(rec, id, req, text, &resp);
                }
                self.answers.check(idx, &resp);
                self.harness_ns += end.elapsed().as_nanos() as u64;
            }
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("request {text:?} failed: {e}");
                }
                self.failed += 1;
            }
        }
    }
}

/// What one measured window produced.
#[derive(Default)]
struct Window {
    lat_us: Vec<f64>,
    /// Window length minus harness time: the denominator of throughput.
    active_s: f64,
    attempted: u64,
    failed: u64,
    answers: Answers,
}

/// Runs the client for `len`.
fn window(
    bench: &mut Bench,
    len: Duration,
    rec: Option<&mut Recorder<'_>>,
    probe: Option<&mut Probe>,
) -> Window {
    let open = Instant::now();
    let deadline = open + len;
    let mut client = Client::new(rec, probe);
    while Instant::now() < deadline {
        let idx = bench.next_idx();
        client.request(bench, idx);
    }
    Window {
        active_s: open.elapsed().as_secs_f64() - client.harness_ns as f64 / 1e9,
        lat_us: client.lat_us,
        attempted: client.attempted,
        failed: client.failed,
        answers: client.answers,
    }
}

/// Checks every kept answer against `materialize_with` over a fresh copy
/// of the generated document, as sets of rows.
fn verify(bench: &Bench, answers: &Answers) -> Vec<String> {
    let mut mismatches = answers.mismatches.clone();
    let live = LiveDoc::new(pr7_document(SCALE, DOC_SEED), SCHEME);
    let mut oracle: HashMap<usize, (u64, usize)> = HashMap::new();
    for ((idx, epoch, _), rep) in &answers.reps {
        let text = &bench.texts[*idx];
        if *epoch != bench.base_epoch {
            mismatches.push(format!(
                "{text:?} served at epoch {epoch}, but no batch was applied after epoch {}",
                bench.base_epoch
            ));
            continue;
        }
        let (want, want_len) = *oracle.entry(*idx).or_insert_with(|| {
            let pattern = parse_pattern(text).expect("served texts parse");
            let rel = materialize_with(&pattern, live.doc(), live.ids());
            (set_digest(&rel), rel.len())
        });
        if rep.set != want {
            mismatches.push(format!(
                "{text:?}: {} rows served, {want_len} expected, not the same set",
                rep.len
            ));
        }
    }
    mismatches
}

fn stats_sum(a: ServiceStats, b: ServiceStats) -> ServiceStats {
    ServiceStats {
        queries: a.queries + b.queries,
        pattern_hits: a.pattern_hits + b.pattern_hits,
        plan_hits: a.plan_hits + b.plan_hits,
        result_hits: a.result_hits + b.result_hits,
        sched_inter: a.sched_inter + b.sched_inter,
        sched_intra: a.sched_intra + b.sched_intra,
        results_invalidated: a.results_invalidated + b.results_invalidated,
        batches_applied: a.batches_applied + b.batches_applied,
    }
}

fn stats_delta(after: ServiceStats, before: ServiceStats) -> ServiceStats {
    ServiceStats {
        queries: after.queries - before.queries,
        pattern_hits: after.pattern_hits - before.pattern_hits,
        plan_hits: after.plan_hits - before.plan_hits,
        result_hits: after.result_hits - before.result_hits,
        sched_inter: after.sched_inter - before.sched_inter,
        sched_intra: after.sched_intra - before.sched_intra,
        results_invalidated: after.results_invalidated - before.results_invalidated,
        batches_applied: after.batches_applied - before.batches_applied,
    }
}

/// Sets up, warms up and times the set-up. `part` separates the request
/// streams of the parts of one run.
fn set_up(
    args: &Args,
    part: u64,
    mut rec: Option<&mut Recorder<'_>>,
    probe: bool,
) -> (Bench, Option<Probe>, f64) {
    let start = Instant::now();
    let bench = build(args, part, rec.as_deref_mut());
    let mut probe = probe.then(|| Probe::new(Arc::clone(bench.svc.pool())));
    warm_up(&bench, probe.as_mut(), rec);
    (bench, probe, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args, out: &mut Outcome) {
    out.prop("scale", SCALE);
    if args.trace {
        traced_run(args, out);
        return;
    }
    // SETUPS parts, each a fresh set-up measured for an equal share of
    // the window; samples are pooled. Ranking choices drift with the
    // service's feedback, so pooling several independent services
    // steadies what one run reports.
    let mut pooled = Window::default();
    let mut setup_s = Vec::new();
    let mut st = ServiceStats::default();
    let mut peak = PeakRss::default();
    for part in 0..SETUPS as u64 {
        PeakRss::reset();
        let (mut bench, _, secs) = set_up(args, part, None, false);
        setup_s.push(secs);
        let before = bench.svc.stats();
        let w = window(&mut bench, args.window() / SETUPS as u32, None, None);
        // the peak is the program's: read before the oracle runs
        peak.sample();
        st = stats_sum(st, stats_delta(bench.svc.stats(), before));
        out.mismatches.extend(verify(&bench, &w.answers));
        out.attempted += w.attempted;
        out.failed += w.failed;
        pooled.lat_us.extend(w.lat_us);
        pooled.active_s += w.active_s;
    }
    hit_rate_props(out, st);
    out.query_latency(pooled.lat_us, pooled.active_s);
    out.set("setup_s", median_or_zero(setup_s));
    out.set("peak_rss_mb", peak.mb());
}

fn hit_rate_props(out: &mut Outcome, st: ServiceStats) {
    let q = st.queries as f64;
    out.prop("requests", st.queries);
    out.prop("pattern_hit_rate", ratio(st.pattern_hits as f64, q));
    out.prop("plan_hit_rate", ratio(st.plan_hits as f64, q));
    out.prop("result_hit_rate", ratio(st.result_hits as f64, q));
    out.prop("intra_share", ratio(st.sched_intra as f64, q));
}

/// One set-up, an untraced half window (the base of `trace_overhead`),
/// then a traced half window that yields the per-layer metrics.
fn traced_run(args: &Args, out: &mut Outcome) {
    let tracer = Tracer::new();
    let mut setup_rec = tracer.recorder();
    let (mut bench, mut probe, _) = set_up(args, 0, Some(&mut setup_rec), true);
    let half = args.window() / 2;
    let base = window(&mut bench, half, None, None);
    smv_obs::global().reset();
    smv_obs::set_enabled(true);
    let before = bench.svc.stats();
    let mut rec = tracer.recorder();
    let traced = window(&mut bench, half, Some(&mut rec), probe.as_mut());
    let st = stats_delta(bench.svc.stats(), before);
    smv_obs::set_enabled(false);
    hit_rate_props(out, st);
    layer_metrics(out, st, &setup_rec, &rec, &base, &traced);
    trace::write_run(args, &setup_rec, &rec);
    for w in [&base, &traced] {
        out.attempted += w.attempted;
        out.failed += w.failed;
    }
    let mut answers = base.answers;
    answers.absorb(traced.answers);
    out.mismatches.extend(verify(&bench, &answers));
}

fn layer_metrics(
    out: &mut Outcome,
    st: ServiceStats,
    setup: &Recorder<'_>,
    rec: &Recorder<'_>,
    base: &Window,
    traced: &Window,
) {
    let spans = &rec.spans;
    let log = &rec.log;
    let q = st.queries as f64;
    out.set("serve.pattern_hit_rate", ratio(st.pattern_hits as f64, q));
    out.set("serve.plan_hit_rate", ratio(st.plan_hits as f64, q));
    out.set("serve.result_hit_rate", ratio(st.result_hits as f64, q));
    out.set("serve.intra_share", ratio(st.sched_intra as f64, q));
    let queries = trace::durations_us(spans, "serve.query");
    let total_q: f64 = queries.iter().sum();
    out.set(
        "serve.self_us",
        median_or_zero(trace::self_times_us(spans, "serve.query")),
    );
    out.set(
        "pattern.parse_us",
        median_or_zero(trace::durations_us(spans, "pattern.parse")),
    );
    let ranks = trace::durations_us(spans, "core.rank");
    out.set("core.query_share", ratio(ranks.iter().sum(), total_q));
    out.set("core.rank_us", median_or_zero(ranks.clone()));
    out.set("core.rank_tail_us", tail_or_zero(ranks, TAIL));
    for k in [
        "core.first_rewriting_us",
        "core.pairs_explored",
        "core.pairs_pruned",
        "core.candidates",
        "core.views_kept",
    ] {
        out.set(k, median_or_zero(log.get(k)));
    }
    let execs = trace::durations_us(spans, "algebra.exec");
    out.set("algebra.query_share", ratio(execs.iter().sum(), total_q));
    for (m, _) in LAYERS
        .iter()
        .filter(|(m, _)| m.starts_with("algebra.op_us."))
    {
        out.set(m, ratio(log.sum(m), execs.len() as f64));
    }
    out.set("algebra.exec_us", median_or_zero(execs.clone()));
    out.set("algebra.exec_tail_us", tail_or_zero(execs, TAIL));
    out.set(
        "algebra.rows_in_per_row_out",
        ratio(log.sum("algebra.rows_scanned"), log.sum("algebra.rows_out")),
    );
    out.set(
        "algebra.feedback_ingest_us",
        median_or_zero(trace::durations_us(spans, "algebra.ingest")),
    );
    out.set(
        "views.materialize_us",
        median_or_zero(trace::durations_us(&setup.spans, "views.materialize")),
    );
    out.set(
        "summary.build_us",
        median_or_zero(trace::durations_us(&setup.spans, "summary.build")),
    );
    out.set(
        "trace_overhead",
        ratio(
            median_or_zero(traced.lat_us.clone()),
            median_or_zero(base.lat_us.clone()),
        ),
    );
    out.prop(
        "probe_plan_match",
        ratio(
            log.sum("probe.plan_match"),
            log.get("probe.plan_match").len() as f64,
        ),
    );
}
