//! Deterministic workload generation: every request text, query set and
//! update stream is a pure function of the `--seed` argument. The service
//! under test sees only the generated texts.

use smv_pattern::{canonical_form, parse_pattern};
use std::collections::HashSet;

/// The XMark document is the benchmark's fixed data set: every seed
/// queries and updates the same generated document, so a seed changes
/// the request and batch streams, not the data they run against.
pub const DOC_SEED: u64 = 42;

/// XMark scale of that document (9,442 nodes). Every workload uses it:
/// on larger documents `scan`'s latency rode on the host's memory
/// contention, and the execution share of a request stays the same.
pub const SCALE: f64 = 1.0;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream; `stream` separates the streams one
    /// seed feeds (documents, queries, clients) so they never correlate.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

/// A seed for one part's update stream: each part of a run draws its own.
pub fn part_seed(seed: u64, part: u64) -> u64 {
    seed ^ part.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The `bench-pr9` mix over the pr7 views; the last two texts are
/// whitespace respellings of the first two, so they share canonical
/// forms.
pub const MIX: [&str; 6] = [
    "site(//name{id,v})",
    "site(//item{id}(/name{id,v}))",
    "site(//quantity{id,v})",
    "site(//item{id}(?/name{id,v}))",
    "site( // name { id , v } )",
    "site( //item{id} ( /name{id,v} ) )",
];

/// `adhoc` query shapes: two structural variants with a value predicate
/// on item names, which the four pr7 views answer. Templates are used
/// round-robin, so every seed runs the same mix of shapes. Only the
/// constants vary, and each template's constants keep its selectivity
/// fixed (every row passes), because ranking cost follows selectivity: a
/// seed changes the texts, not the work. The two shapes rank in the same
/// time (about 30 ms on a quiet host, 40 ms on a contended one), so
/// request latency has no per-template modes for a percentile to fall
/// between: with five shapes of 11 to 36 ms, the host's speed changes
/// moved requests across template clusters and the median jumped.
const ADHOC_TEMPLATES: usize = 2;

fn adhoc_text(template: usize, rng: &mut Rng) -> String {
    // XMark names are lowercase words, so every name sorts below "zz"
    let tail = rng.range(0, 1_000_000_000);
    match template {
        0 => format!("site(/regions(//item{{id}}(/name{{id,v}}[v < \"zz{tail}\"])))"),
        _ => format!("site(//item{{id}}(/name{{id,v}}[v < \"zz{tail}\"]))"),
    }
}

/// An endless stream of `adhoc` texts whose canonical forms are pairwise
/// distinct, so every request misses the plan and result caches.
pub struct Adhoc {
    rng: Rng,
    next_template: usize,
    seen: HashSet<String>,
}

impl Adhoc {
    /// The stream of one part of a run.
    pub fn new(seed: u64, part: u64) -> Adhoc {
        Adhoc {
            rng: Rng::new(seed, 1 + 8 * part),
            next_template: 0,
            seen: HashSet::new(),
        }
    }

    pub fn next_text(&mut self) -> String {
        let template = self.next_template;
        self.next_template = (template + 1) % ADHOC_TEMPLATES;
        loop {
            let text = adhoc_text(template, &mut self.rng);
            let canon = canonical_form(&parse_pattern(&text).expect("templates parse"));
            if self.seen.insert(canon) {
                return text;
            }
        }
    }
}

/// `scan`'s fixed query set: `n` distinct quantity predicates that every
/// quantity passes, in the seeded cyclic order the clients walk. The
/// shape has one rewriting, so every text runs the same plan and the
/// latency distribution keeps one mode: item/name joins ran in two
/// latency clusters whose shares changed from run to run, and their
/// median jumped between the clusters.
pub fn scan_queries(seed: u64, part: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 2 + 8 * part);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let big = rng.range(10, 1_000_000);
        let text = format!("site(//quantity{{id,v}}[v < {big}])");
        let canon = canonical_form(&parse_pattern(&text).expect("templates parse"));
        if seen.insert(canon) {
            out.push(text);
        }
    }
    // a seeded Fisher-Yates shuffle fixes the cycle order
    for i in (1..out.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_datagen::{pr7_document, pr7_views, Pr7Stream};
    use smv_serve::{QueryService, ServiceConfig};
    use smv_views::RefreshPolicy;
    use smv_xml::{IdScheme, LiveDoc};

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let take = |seed| {
            let mut g = Adhoc::new(seed, 0);
            (0..50).map(|_| g.next_text()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        assert_eq!(scan_queries(7, 0, 40), scan_queries(7, 0, 40));
        assert_ne!(scan_queries(7, 0, 40), scan_queries(8, 0, 40));
        // durable's update batches, compared through their Debug form
        let live = LiveDoc::new(pr7_document(0.2, DOC_SEED), IdScheme::OrdPath);
        let batches = |seed| {
            let mut s = Pr7Stream::new(part_seed(seed, 1));
            format!(
                "{:?}",
                (0..3)
                    .map(|_| s.next_batch(&live, 0.05))
                    .collect::<Vec<_>>()
            )
        };
        assert_eq!(batches(7), batches(7));
        assert_ne!(batches(7), batches(8));
    }

    #[test]
    fn adhoc_canonical_forms_are_pairwise_distinct() {
        let mut g = Adhoc::new(3, 0);
        let mut canon = HashSet::new();
        for _ in 0..2000 {
            let text = g.next_text();
            assert!(canon.insert(canonical_form(&parse_pattern(&text).unwrap())));
        }
        let scan = scan_queries(3, 0, 200);
        let forms: HashSet<_> = scan
            .iter()
            .map(|t| canonical_form(&parse_pattern(t).unwrap()))
            .collect();
        assert_eq!(forms.len(), 200);
    }

    #[test]
    fn generated_queries_rank_to_a_rewriting() {
        let svc = QueryService::new(
            pr7_document(0.3, 5),
            IdScheme::OrdPath,
            ServiceConfig {
                threads: 1,
                ..ServiceConfig::default()
            },
        );
        svc.add_views(pr7_views(IdScheme::OrdPath), RefreshPolicy::Eager);
        let mut g = Adhoc::new(11, 0);
        // two rounds of every template
        for _ in 0..2 * ADHOC_TEMPLATES {
            let text = g.next_text();
            assert!(svc.query(&text).is_ok(), "adhoc text {text} rewrites");
        }
        for text in scan_queries(11, 0, 4) {
            assert!(svc.query(&text).is_ok(), "scan text {text} rewrites");
        }
        for text in MIX {
            assert!(svc.query(text).is_ok(), "mix text {text} rewrites");
        }
    }
}
