//! Keyword-based service-provider classification.
//!
//! The paper groups clients "based on AS number and provider name in
//! hostnames […] leveraging keywords and provider names (e.g., mobile,
//! cloud, Amazon, Sprint, etc.)" and concedes the method is "fairly
//! rudimentary \[but\] sufficient enough to highlight wired vs. wireless
//! service providers". The same two-stage heuristic lives here: extract
//! the provider label from the hostname, fall back to category keywords
//! when the label is unknown. Because the synthetic generator provides
//! ground truth, tests quantify the heuristic's accuracy instead of
//! assuming it.
//!
//! Classification runs once per *record* in the streaming pipeline, so
//! the common case (pure-ASCII hostname) takes an allocation-free fast
//! path: one byte scan for `.sp<digits>.` labels and ASCII
//! case-insensitive keyword search. Non-ASCII hostnames fall back to the
//! original lowercase-and-`contains` implementation; a property test
//! pins the two paths equal.

use crate::model::{ProviderCategory, PROVIDERS};

/// Classification outcome for one hostname.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostClass {
    /// Mapped to a known provider (index into [`PROVIDERS`]).
    Provider(usize),
    /// Only the category could be inferred from keywords.
    CategoryOnly(ProviderCategory),
    /// Nothing matched.
    Unknown,
}

impl HostClass {
    /// The category this classification implies, if any.
    pub fn category(&self) -> Option<ProviderCategory> {
        match self {
            HostClass::Provider(i) => PROVIDERS.get(*i).map(|p| p.category),
            HostClass::CategoryOnly(c) => Some(*c),
            HostClass::Unknown => None,
        }
    }

    /// Whether the client counts as wireless (mobile category) for the
    /// paper's wired-vs-wireless split.
    pub fn is_wireless(&self) -> bool {
        self.category() == Some(ProviderCategory::Mobile)
    }
}

/// The category keyword stages, in match-priority order (mobile first:
/// a host that says both "cellular" and "net" is a mobile client). Also
/// the index order of [`ProviderTally::category_only`] and the
/// per-category buckets of the streaming pipeline.
pub const CATEGORY_ORDER: [ProviderCategory; 4] = [
    ProviderCategory::Mobile,
    ProviderCategory::CloudHosting,
    ProviderCategory::Broadband,
    ProviderCategory::Isp,
];

/// Classify one reverse-DNS hostname.
pub fn classify_hostname(hostname: &str) -> HostClass {
    if hostname.is_ascii() {
        classify_hostname_ascii(hostname.as_bytes())
    } else {
        classify_hostname_general(hostname)
    }
}

/// ASCII fast path: no allocation, single scan for provider labels.
fn classify_hostname_ascii(host: &[u8]) -> HostClass {
    // Stage 1: provider labels. Every provider is "SP n", so its label
    // is ".sp<n>." — scan once for all of them and keep the *smallest*
    // provider index found, matching the general path's
    // first-provider-in-PROVIDERS-order semantics.
    let mut best: Option<usize> = None;
    let mut pos = 0usize;
    // Jump dot to dot: a plain `position(== b'.')` over the tail is a
    // branch-free byte scan the compiler vectorizes, where a
    // per-byte-with-continue loop is not.
    while let Some(off) = host.get(pos..).and_then(|t| t.iter().position(|&b| b == b'.')) {
        let i = pos + off;
        pos = i + 1;
        let rest = host.get(i + 1..).unwrap_or(&[]);
        let (Some(s), Some(p)) = (rest.first(), rest.get(1)) else { continue };
        if !s.eq_ignore_ascii_case(&b's') || !p.eq_ignore_ascii_case(&b'p') {
            continue;
        }
        let digits = rest.get(2..).unwrap_or(&[]);
        let len = digits.iter().take_while(|d| d.is_ascii_digit()).count();
        // A label needs 1+ digits, no leading zero (".sp07." is not
        // ".sp7."), and a closing dot.
        if len == 0 || digits.first() == Some(&b'0') || digits.get(len) != Some(&b'.') {
            continue;
        }
        // A label too long for `usize` is not a provider.
        let Some(n) = digits.iter().take(len).try_fold(0usize, |n, d| {
            n.checked_mul(10)?.checked_add(usize::from(d - b'0'))
        }) else {
            continue;
        };
        if (1..=PROVIDERS.len()).contains(&n) && best.map_or(true, |b| n - 1 < b) {
            best = Some(n - 1);
        }
    }
    if let Some(i) = best {
        return HostClass::Provider(i);
    }
    // Stage 2: category keywords, ASCII case-insensitive.
    for cat in CATEGORY_ORDER {
        if cat.hostname_keywords().iter().any(|k| ascii_contains_ci(host, k.as_bytes())) {
            return HostClass::CategoryOnly(cat);
        }
    }
    HostClass::Unknown
}

/// Case-insensitive ASCII substring search (needles here are 2–9 bytes;
/// a naive scan beats anything fancier).
fn ascii_contains_ci(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    haystack
        .windows(needle.len())
        .any(|w| w.iter().zip(needle).all(|(a, b)| a.eq_ignore_ascii_case(b)))
}

/// The original allocation-per-call implementation, kept as the
/// non-ASCII fallback and as the reference the fast path is tested
/// against.
fn classify_hostname_general(hostname: &str) -> HostClass {
    let lower = hostname.to_lowercase();
    // Stage 1: provider label ("sp7" etc. in the anonymized population;
    // real deployments match ASN → provider names here).
    for (i, p) in PROVIDERS.iter().enumerate() {
        let label = format!(".{}.", p.name.replace(' ', "").to_lowercase());
        if lower.contains(&label) {
            return HostClass::Provider(i);
        }
    }
    // Stage 2: category keywords.
    for cat in CATEGORY_ORDER {
        if cat.hostname_keywords().iter().any(|k| lower.contains(k)) {
            return HostClass::CategoryOnly(cat);
        }
    }
    HostClass::Unknown
}

/// Streaming per-provider classification tally: one `push` per record,
/// mergeable across chunks (plain counter addition, so merge order
/// cannot change it).
#[derive(Clone, Debug, Default)]
pub struct ProviderTally {
    /// Records whose hostname mapped to each provider.
    pub per_provider: [u64; PROVIDERS.len()],
    /// Records where only the category was inferred, by category order
    /// of [`CATEGORY_ORDER`].
    pub category_only: [u64; 4],
    /// Records that matched nothing.
    pub unknown: u64,
    /// Records whose predicted provider equals the generator's ground
    /// truth (validation; the paper could not measure this).
    pub provider_correct: u64,
}

impl ProviderTally {
    /// Empty tally.
    pub fn new() -> ProviderTally {
        ProviderTally::default()
    }

    /// Classify one record's hostname into the tally. Returns the
    /// classification so callers can key further sinks off it.
    pub fn push(&mut self, record: &crate::synth::LogRecord) -> HostClass {
        let class = classify_hostname(&record.hostname);
        match class {
            HostClass::Provider(i) => {
                if let Some(slot) = self.per_provider.get_mut(i) {
                    *slot += 1;
                }
                if i == record.true_provider {
                    self.provider_correct += 1;
                }
            }
            HostClass::CategoryOnly(cat) => {
                if let Some(pos) = CATEGORY_ORDER.iter().position(|c| *c == cat) {
                    if let Some(slot) = self.category_only.get_mut(pos) {
                        *slot += 1;
                    }
                }
            }
            HostClass::Unknown => self.unknown += 1,
        }
        class
    }

    /// Fold another tally in (commutative counter addition).
    pub fn merge(&mut self, other: &ProviderTally) {
        for (a, b) in self.per_provider.iter_mut().zip(&other.per_provider) {
            *a += b;
        }
        for (a, b) in self.category_only.iter_mut().zip(&other.category_only) {
            *a += b;
        }
        self.unknown += other.unknown;
        self.provider_correct += other.provider_correct;
    }

    /// Total records classified.
    pub fn total(&self) -> u64 {
        self.per_provider.iter().sum::<u64>()
            + self.category_only.iter().sum::<u64>()
            + self.unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SERVERS;
    use crate::synth::{generate_server_log, SynthConfig};

    #[test]
    fn provider_labels_win_over_keywords() {
        // Hostname carries both an SP label and a generic keyword.
        let h = "10-20-30.mobile.sp22.example.net";
        match classify_hostname(h) {
            HostClass::Provider(i) => assert_eq!(PROVIDERS[i].name, "SP 22"),
            other => panic!("expected provider match, got {other:?}"),
        }
    }

    #[test]
    fn keyword_fallback() {
        assert_eq!(
            classify_hostname("dynamic-44.cellular.unknowncarrier.example.org").category(),
            Some(ProviderCategory::Mobile)
        );
        assert_eq!(
            classify_hostname("vm-3.cloud.bigiron.example.org").category(),
            Some(ProviderCategory::CloudHosting)
        );
    }

    #[test]
    fn garbage_is_unknown() {
        assert_eq!(classify_hostname("zzzz.example.org"), HostClass::Unknown);
        assert!(!HostClass::Unknown.is_wireless());
    }

    #[test]
    fn wireless_flag_only_for_mobile() {
        assert!(classify_hostname("x.wireless.sp23.example.net").is_wireless());
        assert!(!classify_hostname("x.cable.sp12.example.net").is_wireless());
    }

    #[test]
    fn fast_path_edge_cases_match_reference() {
        for h in [
            "a.sp1.b", "a.sp25.b", "a.sp26.b", "a.sp07.b", "a.sp0.b", "a.SP12.b",
            ".sp3.", "sp3.", ".sp3", "a.sp12.c.sp3.d", "a.sp.b", "x..sp5..y",
            "a.sp123456789123456789.b", "NET.example", "a.CELLULAR.b",
            "a.sp18446744073709551619.b", "a.sp18446744073709551617.b",
        ] {
            assert_eq!(classify_hostname_ascii(h.as_bytes()), classify_hostname_general(h), "{h}");
        }
    }

    #[test]
    fn lowest_provider_index_wins_with_multiple_labels() {
        // The general path checks providers in PROVIDERS order, so SP 3
        // beats SP 12 even though SP 12 appears first in the string.
        assert_eq!(classify_hostname("a.sp12.c.sp3.d"), HostClass::Provider(2));
    }

    #[test]
    fn tally_counts_and_merges() {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log = generate_server_log(ag1, &SynthConfig { scale: 10_000, duration_secs: 86_400 }, 7);
        let mut whole = ProviderTally::new();
        let mut left = ProviderTally::new();
        let mut right = ProviderTally::new();
        for (i, r) in log.records.iter().enumerate() {
            whole.push(r);
            if i % 2 == 0 {
                left.push(r);
            } else {
                right.push(r);
            }
        }
        left.merge(&right);
        assert_eq!(whole.per_provider, left.per_provider);
        assert_eq!(whole.unknown, left.unknown);
        assert_eq!(whole.provider_correct, left.provider_correct);
        assert_eq!(whole.total(), log.records.len() as u64);
    }

    /// End-to-end accuracy of the heuristic over a synthetic population:
    /// the paper argues the rudimentary method is sufficient; here we can
    /// actually measure it.
    #[test]
    fn accuracy_against_ground_truth() {
        let ag1 = SERVERS.iter().find(|s| s.id == "AG1").unwrap();
        let log =
            generate_server_log(ag1, &SynthConfig { scale: 10_000, duration_secs: 86_400 }, 1);
        let mut correct = 0usize;
        let mut total = 0usize;
        for r in &log.records {
            total += 1;
            if let HostClass::Provider(i) = classify_hostname(&r.hostname) {
                if i == r.true_provider {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.99, "provider classification accuracy {acc}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert_eq, props};

    props! {
        /// The hostname classifier never panics and its wireless verdict
        /// agrees with its category.
        fn classifier_total(host in prop::strings(0..81)) {
            let c = classify_hostname(&host);
            if c.is_wireless() {
                prop_assert_eq!(c.category(), Some(ProviderCategory::Mobile));
            }
        }

        /// The allocation-free ASCII fast path is indistinguishable from
        /// the reference implementation on any ASCII input.
        fn fast_path_matches_reference(host in prop::strings(0..81)) {
            if host.is_ascii() {
                prop_assert_eq!(
                    classify_hostname_ascii(host.as_bytes()),
                    classify_hostname_general(&host)
                );
            }
        }
    }
}
