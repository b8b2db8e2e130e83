//! `durable`: `PersistentEpochs` alternating one durable update batch
//! with restarts. A restart is `DiskStore::open` plus answering the mix's
//! four canonical queries on the reopened `DiskCatalog` (one fixed unit
//! of work, so restart latency has one mode). This is the only workload
//! that reaches `store`; it skips `serve`, and ranks only in set-up or
//! when a reopened summary gained paths.
//!
//! The store runs over `SimVfs`, the in-memory file system the crash
//! tests use, so a restart times the store's own work (manifest checks,
//! summary and segment decoding, buffer pool) and not the host's file
//! system: over a real directory on a shared host, restart latency
//! drifted by two thirds within minutes.

use crate::gen::{part_seed, DOC_SEED, MIX, SCALE};
use crate::stats::{median_or_zero, ratio, tail_or_zero};
use crate::trace::{self, timed, Recorder, Tracer};
use crate::vfs::{CountingVfs, IoCounts};
use crate::{Args, Outcome, PeakRss, SETUPS, TAIL};
use smv_algebra::{execute, NestedRelation, Plan};
use smv_core::{rewrite_with_cards, RewriteOpts};
use smv_datagen::{pr7_document, pr7_views, Pr7Stream};
use smv_pattern::{canonical_form, parse_pattern, Pattern};
use smv_store::{DiskStore, PersistentEpochs, SimVfs};
use smv_summary::Summary;
use smv_views::{materialize_with, CatalogCards, EpochCatalog, RefreshPolicy, ViewStore};
use smv_xml::{serialize_document, IdScheme};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCHEME: IdScheme = IdScheme::OrdPath;
const CHURN: f64 = 0.02;
/// Update batches per measured window, one at the start of each equal
/// slot of it; restarts fill the rest of each slot. The store grows with
/// every batch (about 0.3% at 2% churn), and restarts slow with it, so
/// the count is fixed: a faster host runs more restarts, not more
/// batches, and every run of a seed restarts over the same stores.
const BATCHES: u32 = 16;

/// One canonical query of the mix, with the plan restarts execute.
struct Form {
    pattern: Pattern,
    plan: Plan,
    /// Path count of the summary the plan was ranked against.
    paths: usize,
}

struct Durable {
    pe: PersistentEpochs,
    vfs: Arc<CountingVfs<SimVfs>>,
    forms: Vec<Form>,
    stream: Pr7Stream,
}

fn rank_opts() -> RewriteOpts {
    RewriteOpts {
        rank_by_cost: true,
        ..RewriteOpts::default()
    }
}

fn rank(q: &Pattern, views: &dyn ViewStore, summary: &Summary) -> Plan {
    let cards = CatalogCards::over(views, summary);
    rewrite_with_cards(q, views.views(), summary, &rank_opts(), &cards)
        .rewritings
        .into_iter()
        .next()
        .expect("mix queries rewrite over the pr7 views")
        .plan
}

fn build(args: &Args, part: u64, mut rec: Option<&mut Recorder<'_>>) -> Durable {
    let doc = timed(rec.as_deref_mut(), "setup.datagen", || {
        pr7_document(SCALE, DOC_SEED)
    });
    if args.trace {
        // re-timed on the same document; EpochCatalog::new builds its own
        timed(rec.as_deref_mut(), "summary.build", || {
            std::hint::black_box(Summary::of(&doc));
        });
    }
    let mut epochs = EpochCatalog::new(doc, SCHEME);
    timed(rec.as_deref_mut(), "views.materialize", || {
        for v in pr7_views(SCHEME) {
            epochs.add_view(v, RefreshPolicy::Eager);
        }
    });
    let vfs = Arc::new(CountingVfs::new(SimVfs::new()));
    let pe = timed(rec.as_deref_mut(), "store.publish", || {
        PersistentEpochs::new(epochs, DiskStore::new(vfs.clone())).expect("initial publish")
    });
    let snap = pe.epochs().snapshot();
    // one form per canonical query: the mix's respellings share a plan
    let mut forms: Vec<Form> = Vec::new();
    let mut canon: Vec<String> = Vec::new();
    for text in MIX {
        let pattern = parse_pattern(text).expect("mix texts parse");
        let c = canonical_form(&pattern);
        if canon.contains(&c) {
            continue;
        }
        let plan = timed(rec.as_deref_mut(), "core.rank", || {
            rank(&pattern, &*snap, snap.summary())
        });
        forms.push(Form {
            pattern,
            plan,
            paths: snap.summary().len(),
        });
        canon.push(c);
    }
    Durable {
        pe,
        vfs,
        forms,
        stream: Pr7Stream::new(part_seed(args.seed, part)),
    }
}

#[derive(Default)]
struct Window {
    restart_us: Vec<f64>,
    /// Time spent restarting (Σ restart latency): the denominator of
    /// throughput. Update batches, batch generation and the oracle's
    /// checks share the thread but are not restarts.
    active_s: f64,
    update_us: Vec<f64>,
    update_ops: u64,
    written: u64,
    attempted: u64,
    failed: u64,
    reranks: u64,
    mismatches: Vec<String>,
}

impl Window {
    fn absorb(&mut self, w: Window) {
        self.restart_us.extend(w.restart_us);
        self.active_s += w.active_s;
        self.update_us.extend(w.update_us);
        self.update_ops += w.update_ops;
        self.written += w.written;
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.reranks += w.reranks;
        self.mismatches.extend(w.mismatches);
    }
}

/// The oracle for one epoch: per form, the in-memory snapshot's answer,
/// itself checked against `materialize_with` over the live document.
struct EpochOracle {
    epoch: u64,
    answers: Vec<NestedRelation>,
}

impl EpochOracle {
    fn of(d: &Durable, mismatches: &mut Vec<String>) -> EpochOracle {
        let epochs = d.pe.epochs();
        let (snap, live) = (epochs.snapshot(), epochs.live());
        let answers = d
            .forms
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mem = execute(&f.plan, &*snap).expect("in-memory execution");
                if !mem.set_eq(&materialize_with(&f.pattern, live.doc(), live.ids())) {
                    mismatches.push(format!(
                        "in-memory epoch {} disagrees with materialize for form #{i}",
                        epochs.epoch()
                    ));
                }
                mem
            })
            .collect();
        EpochOracle {
            epoch: epochs.epoch(),
            answers,
        }
    }

    fn check(&self, epoch: u64, rows: &[NestedRelation], mismatches: &mut Vec<String>) {
        if epoch != self.epoch {
            mismatches.push(format!(
                "reopened epoch {epoch}, in-memory epoch {}",
                self.epoch
            ));
            return;
        }
        for (form, (got, want)) in rows.iter().zip(&self.answers).enumerate() {
            if !got.set_eq(want) {
                mismatches.push(format!(
                    "restart at epoch {epoch}: form #{form} differs from the in-memory snapshot"
                ));
            }
        }
    }
}

fn window(
    d: &mut Durable,
    len: Duration,
    mut rec: Option<&mut Recorder<'_>>,
    peak: &mut PeakRss,
) -> Window {
    let mut w = Window::default();
    let open = Instant::now();
    for slot in 1..=BATCHES {
        let slot_end = open + len * slot / BATCHES;
        // one durable update batch
        let batch = d.stream.next_batch(d.pe.epochs().live(), CHURN);
        let io0 = d.vfs.counts();
        w.attempted += 1;
        let t0 = Instant::now();
        let report = match rec.as_deref_mut() {
            None => d.pe.apply(&batch).map_err(|e| e.to_string()),
            Some(rec) => {
                // the two halves of PersistentEpochs::apply, timed apart
                let report =
                    d.pe.epochs_mut()
                        .apply(&batch)
                        .map_err(|e| format!("{e:?}"));
                let t1 = Instant::now();
                let published = match &report {
                    Ok(_) => d.pe.publish(None).map(|_| ()).map_err(|e| e.to_string()),
                    Err(_) => Ok(()),
                };
                let t2 = Instant::now();
                let req = rec.next_id();
                let root = rec.record("store.update", 0, req, t0, t2);
                rec.record("views.apply", root, req, t0, t1);
                rec.record("store.publish", root, req, t1, t2);
                published.and(report)
            }
        };
        let end = Instant::now();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("durable update failed: {e}");
                w.failed += 1;
                continue;
            }
        };
        let io = d.vfs.counts().since(io0);
        w.update_us.push(end.duration_since(t0).as_secs_f64() * 1e6);
        w.update_ops += batch.len() as u64;
        w.written += io.bytes_written;
        if let Some(rec) = rec.as_deref_mut() {
            let log = &mut rec.log;
            log.push("views.ingest_us", report.ingest_ns as f64 / 1e3);
            log.push("views.maintain_us", report.maintain_ns as f64 / 1e3);
            log.push("views.publish_us", report.publish_ns as f64 / 1e3);
            log.push("views.rows_killed", report.rows_killed as f64);
            log.push("views.rows_added", report.rows_added as f64);
            log.push("store.bytes_written_per_batch", io.bytes_written as f64);
            log.push("store.fsyncs_per_batch", io.fsyncs as f64);
        }
        // the oracle's answers for the new epoch, kept out of the peak
        peak.sample();
        let oracle = EpochOracle::of(d, &mut w.mismatches);
        PeakRss::reset();
        while Instant::now() < slot_end {
            w.attempted += 1;
            match restart(d, &mut w, rec.as_deref_mut()) {
                Ok((epoch, rows)) => oracle.check(epoch, &rows, &mut w.mismatches),
                Err(e) => {
                    eprintln!("restart failed: {e}");
                    w.failed += 1;
                }
            }
        }
    }
    peak.sample();
    w
}

/// One restart: open the newest epoch, re-rank any form whose plan
/// predates a summary that gained paths, and answer every form of the
/// mix. Returns the epoch served and each form's rows. Untraced, extents
/// are decoded lazily as the plans read them; traced, the same extents
/// are decoded first through `DiskCatalog::load_extent`, in a span of
/// their own, so store work (open plus decoding) and execution over
/// decoded extents are timed apart.
fn restart(
    d: &mut Durable,
    w: &mut Window,
    rec: Option<&mut Recorder<'_>>,
) -> Result<(u64, Vec<NestedRelation>), String> {
    let io0 = d.vfs.counts();
    let t0 = Instant::now();
    let cat = d.pe.store().open().map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    // A decoded summary is a new instance, so its geometry_token never
    // equals the one a plan was ranked under. What can invalidate a
    // rewriting is the summary gaining paths, so the path count decides.
    let mut reranked = false;
    if let Some(summary) = cat.summary() {
        for f in d.forms.iter_mut().filter(|f| f.paths != summary.len()) {
            f.plan = rank(&f.pattern, &cat, summary);
            f.paths = summary.len();
            w.reranks += 1;
            reranked = true;
        }
    }
    let t2 = Instant::now();
    if rec.is_some() {
        for f in &d.forms {
            for view in f.plan.views_used() {
                cat.load_extent(&view).map_err(|e| e.to_string())?;
            }
        }
    }
    let t_dec = Instant::now();
    let rows = d
        .forms
        .iter()
        .map(|f| execute(&f.plan, &cat).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let t3 = Instant::now();
    let dur = t3.duration_since(t0);
    w.restart_us.push(dur.as_secs_f64() * 1e6);
    w.active_s += dur.as_secs_f64();
    if let Some(rec) = rec {
        let io: IoCounts = d.vfs.counts().since(io0);
        let req = rec.next_id();
        let root = rec.record("store.restart", 0, req, t0, t3);
        rec.record("store.open", root, req, t0, t1);
        if reranked {
            rec.record("core.rank", root, req, t1, t2);
        }
        rec.record("store.decode", root, req, t2, t_dec);
        rec.record("store.exec", root, req, t_dec, t3);
        let pool = cat.pool().stats();
        let log = &mut rec.log;
        log.push("store.pool_hits", pool.hits as f64);
        log.push("store.pool_misses", pool.misses as f64);
        log.push("store.pool_evictions", pool.evictions as f64);
        log.push("store.bytes_read_per_open", io.bytes_read as f64);
    }
    Ok((cat.epoch(), rows))
}

pub fn run(args: &Args, out: &mut Outcome) {
    out.prop("scale", SCALE);
    out.prop("batches_per_window", BATCHES);
    if args.trace {
        traced_run(args, out);
        return;
    }
    // SETUPS parts, each a fresh store measured for an equal share of
    // the window; samples are pooled and set-up time is their median.
    let mut setup_s = Vec::new();
    let mut pooled = Window::default();
    let mut disk_per_doc = Vec::new();
    let mut peak = PeakRss::default();
    for part in 0..SETUPS as u64 {
        PeakRss::reset();
        let start = Instant::now();
        let mut d = build(args, part, None);
        setup_s.push(start.elapsed().as_secs_f64());
        let w = window(&mut d, args.window() / SETUPS as u32, None, &mut peak);
        disk_per_doc.push(disk_bytes_per_doc_byte(&d));
        pooled.absorb(w);
    }
    finish(out, &pooled, median_or_zero(disk_per_doc));
    out.query_latency(pooled.restart_us, pooled.active_s);
    out.set("setup_s", median_or_zero(setup_s));
    out.set("peak_rss_mb", peak.mb());
}

/// Bytes stored per byte of the serialized live document.
fn disk_bytes_per_doc_byte(d: &Durable) -> f64 {
    let doc_bytes = serialize_document(d.pe.epochs().live().doc()).len() as f64;
    ratio(d.vfs.bytes_on_disk() as f64, doc_bytes)
}

/// Counts, oracle verdicts and the disk properties every run reports.
fn finish(out: &mut Outcome, w: &Window, disk_per_doc: f64) {
    out.attempted += w.attempted;
    out.failed += w.failed;
    out.mismatches.extend(w.mismatches.iter().cloned());
    out.prop("batches", w.update_us.len());
    out.prop("restarts", w.restart_us.len());
    out.prop("geometry_reranks", w.reranks);
    out.prop("update_p50_us", median_or_zero(w.update_us.clone()));
    out.prop(
        "disk_bytes_per_update_op",
        ratio(w.written as f64, w.update_ops as f64),
    );
    out.prop("disk_bytes_per_doc_byte", disk_per_doc);
}

/// One set-up, an untraced half window (the base of `trace_overhead`),
/// then a traced half window that yields the per-layer metrics.
fn traced_run(args: &Args, out: &mut Outcome) {
    let tracer = Tracer::new();
    let mut setup_rec = tracer.recorder();
    let mut d = build(args, 0, Some(&mut setup_rec));
    let half = args.window() / 2;
    let mut peak = PeakRss::default();
    let base = window(&mut d, half, None, &mut peak);
    smv_obs::global().reset();
    smv_obs::set_enabled(true);
    let mut rec = tracer.recorder();
    let traced = window(&mut d, half, Some(&mut rec), &mut peak);
    smv_obs::set_enabled(false);
    let disk_per_doc = disk_bytes_per_doc_byte(&d);
    layer_metrics(out, &setup_rec, &rec, &base, &traced);
    out.set(
        "disk_bytes_per_update_op",
        ratio(traced.written as f64, traced.update_ops as f64),
    );
    out.set("disk_bytes_per_doc_byte", disk_per_doc);
    trace::write_run(args, &setup_rec, &rec);
    out.attempted += base.attempted;
    out.failed += base.failed;
    out.mismatches.extend(base.mismatches.iter().cloned());
    finish(out, &traced, disk_per_doc);
}

fn layer_metrics(
    out: &mut Outcome,
    setup: &Recorder<'_>,
    rec: &Recorder<'_>,
    base: &Window,
    traced: &Window,
) {
    let spans = &rec.spans;
    let log = &rec.log;
    let restarts: f64 = trace::durations_us(spans, "store.restart").iter().sum();
    let ranks = trace::durations_us(spans, "core.rank");
    out.set("core.query_share", ratio(ranks.iter().sum(), restarts));
    out.set("core.rank_us", median_or_zero(ranks.clone()));
    out.set("core.rank_tail_us", tail_or_zero(ranks, TAIL));
    out.set(
        "views.apply_us",
        median_or_zero(trace::durations_us(spans, "views.apply")),
    );
    for k in [
        "views.ingest_us",
        "views.maintain_us",
        "views.publish_us",
        "views.rows_killed",
        "views.rows_added",
        "store.pool_hits",
        "store.pool_misses",
        "store.pool_evictions",
        "store.bytes_written_per_batch",
        "store.fsyncs_per_batch",
        "store.bytes_read_per_open",
    ] {
        out.set(k, median_or_zero(log.get(k)));
    }
    out.set(
        "views.materialize_us",
        median_or_zero(trace::durations_us(&setup.spans, "views.materialize")),
    );
    out.set(
        "summary.build_us",
        median_or_zero(trace::durations_us(&setup.spans, "summary.build")),
    );
    // store work is opening plus decoding extents; execution over the
    // decoded extents is algebra, not store
    let open = trace::durations_us(spans, "store.open");
    let decode = trace::durations_us(spans, "store.decode");
    out.set(
        "store.restart_share",
        ratio(
            open.iter().sum::<f64>() + decode.iter().sum::<f64>(),
            restarts,
        ),
    );
    out.set("store.open_us", median_or_zero(open));
    out.set("store.decode_us", median_or_zero(decode));
    out.set(
        "store.exec_us",
        median_or_zero(trace::durations_us(spans, "store.exec")),
    );
    out.set(
        "store.publish_us",
        median_or_zero(trace::durations_us(spans, "store.publish")),
    );
    out.set("store.geometry_reranks", traced.reranks as f64);
    out.set("update_p50_us", median_or_zero(traced.update_us.clone()));
    out.set(
        "update_tail_us",
        tail_or_zero(traced.update_us.clone(), TAIL),
    );
    out.set(
        "trace_overhead",
        ratio(
            median_or_zero(traced.restart_us.clone()),
            median_or_zero(base.restart_us.clone()),
        ),
    );
}
