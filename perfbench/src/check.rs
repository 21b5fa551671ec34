//! Output checks and failure accounting.
//!
//! Every op's folded DDG is compared against an expected digest stored with
//! the benchmark (`expected_digests.txt`): the FNV-1a hash of
//! `Report::canonical_ddg`, the deterministic canonical text. `full_text` is
//! never compared — its skew column depends on hash-map iteration order.

use polyprof_core::{PolyProfError, Report};
use std::collections::BTreeMap;

/// The expected canonical-DDG digests, one `name hex-digest` line per
/// program. Regenerate with `perfbench digests` only when a change is meant
/// to alter the folded DDG.
const EXPECTED: &str = include_str!("../expected_digests.txt");

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of one canonical DDG text.
pub fn digest(canonical: &str) -> u64 {
    fnv1a64(canonical.as_bytes())
}

/// The stored expected digests, by program name.
pub fn expected() -> Result<BTreeMap<String, u64>, String> {
    parse_digests(EXPECTED)
}

fn parse_digests(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(name), Some(hex), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!("malformed digest line {line:?}"));
        };
        let d = u64::from_str_radix(hex, 16).map_err(|e| format!("digest of {name}: {e}"))?;
        if out.insert(name.to_string(), d).is_some() {
            return Err(format!("duplicate digest for {name}"));
        }
    }
    Ok(out)
}

/// Why an op failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The profiler returned a structured error.
    Error,
    /// The profiler panicked.
    Panic,
    /// The report came back degraded (faults, budget pressure, deadline).
    Degraded,
    /// The canonical DDG's digest differs from the stored one.
    DigestMismatch,
    /// The server shed the session (`overloaded`).
    Overloaded,
    /// The server rejected the submission at admission.
    Rejected,
}

impl Failure {
    /// Stable name for the printed breakdown.
    pub fn name(self) -> &'static str {
        match self {
            Failure::Error => "error",
            Failure::Panic => "panic",
            Failure::Degraded => "degraded",
            Failure::DigestMismatch => "digest_mismatch",
            Failure::Overloaded => "overloaded",
            Failure::Rejected => "rejected",
        }
    }
}

/// Attempted/failed op counts with a per-cause breakdown.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed for any cause.
    pub failed: u64,
    /// Failed ops per cause.
    pub causes: BTreeMap<Failure, u64>,
}

impl Tally {
    /// Account one op. An op with several failing checks counts once.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.failed += 1;
            *self.causes.entry(f).or_default() += 1;
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `cause=count` pairs for the printed summary.
    pub fn causes_line(&self) -> String {
        if self.causes.is_empty() {
            return "none".into();
        }
        self.causes
            .iter()
            .map(|(f, n)| format!("{}={n}", f.name()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Compare a canonical text against the expected digest of `program`.
pub fn check_canonical(
    expected: &BTreeMap<String, u64>,
    program: &str,
    canonical: Option<&str>,
) -> Result<(), Failure> {
    match (expected.get(program), canonical) {
        (Some(&want), Some(text)) if digest(text) == want => Ok(()),
        _ => Err(Failure::DigestMismatch),
    }
}

/// Check one in-process profiling result: it must be `Ok`, clean, and carry
/// the expected canonical DDG.
pub fn check_report(
    expected: &BTreeMap<String, u64>,
    program: &str,
    result: &std::thread::Result<Result<Report, PolyProfError>>,
) -> Result<(), Failure> {
    match result {
        Err(_) => Err(Failure::Panic),
        Ok(Err(_)) => Err(Failure::Error),
        Ok(Ok(r)) if r.degradation.is_degraded() => Err(Failure::Degraded),
        Ok(Ok(r)) => check_canonical(expected, program, r.canonical_ddg.as_deref()),
    }
}

/// True when a served report's `degradation` object records any loss — the
/// same fields `RunDegradation::is_degraded` reads, taken from the wire.
pub fn served_degraded(report_json: &str) -> bool {
    use polyserve::wire::{json_bool, json_u64};
    const COUNTS: [&str; 8] = [
        "faults_injected",
        "stage_retries",
        "dropped_chunks",
        "malformed_chunks",
        "stalled_sends",
        "unresolved_accesses",
        "shadow_alloc_failures",
        "budget_overapprox_stmts",
    ];
    const FLAGS: [&str; 3] = ["fell_back_serial", "deadline_hit", "budget_pressure"];
    let Some(at) = report_json.find("\"degradation\":") else {
        return true;
    };
    let deg = &report_json[at..];
    COUNTS.iter().any(|k| json_u64(deg, k) != Some(0))
        || FLAGS.iter().any(|k| json_bool(deg, k) != Some(false))
        || !deg.contains("\"missing_shards\":[]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyprof_core::RunDegradation;

    fn table() -> BTreeMap<String, u64> {
        parse_digests(&format!("# comment\nprog {:x}\n", digest("stmt A\n"))).unwrap()
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn stored_digests_parse_and_cover_every_workload_program() {
        let exp = expected().expect("expected_digests.txt parses");
        for w in rodinia::all_rodinia() {
            assert!(exp.contains_key(w.name), "no digest for {}", w.name);
        }
        for (name, _) in polyprof_bench::replay_workloads() {
            assert!(exp.contains_key(name), "no digest for {name}");
        }
        assert!(exp.contains_key(crate::workloads::BACKPROP_BIG));
    }

    #[test]
    fn malformed_digest_tables_are_refused() {
        assert!(parse_digests("prog\n").is_err());
        assert!(parse_digests("prog zz\n").is_err());
        assert!(parse_digests("prog 1 2\n").is_err());
        assert!(parse_digests("prog 1\nprog 2\n").is_err());
    }

    #[test]
    fn digest_mismatch_counts_as_failed() {
        let exp = table();
        assert_eq!(check_canonical(&exp, "prog", Some("stmt A\n")), Ok(()));
        assert_eq!(
            check_canonical(&exp, "prog", Some("stmt B\n")),
            Err(Failure::DigestMismatch)
        );
        assert_eq!(
            check_canonical(&exp, "prog", None),
            Err(Failure::DigestMismatch)
        );
        assert_eq!(
            check_canonical(&exp, "unknown", Some("stmt A\n")),
            Err(Failure::DigestMismatch)
        );
        let mut t = Tally::default();
        t.record(check_canonical(&exp, "prog", Some("stmt A\n")));
        t.record(check_canonical(&exp, "prog", Some("stmt B\n")));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.failed_frac(), 0.5);
        assert_eq!(t.causes_line(), "digest_mismatch=1");
    }

    #[test]
    fn degraded_served_report_counts_as_failed() {
        let clean = RunDegradation::default();
        let report = |deg: &RunDegradation| {
            polyprof_core::polyfeedback::session_report_json(
                "prog",
                1,
                false,
                (1, 1, 1),
                Some("stmt A\n"),
                &deg.to_json(),
                None,
            )
        };
        assert!(!served_degraded(&report(&clean)));
        let pressured = RunDegradation {
            budget_pressure: true,
            ..Default::default()
        };
        assert!(served_degraded(&report(&pressured)));
        let retried = RunDegradation {
            stage_retries: 2,
            ..Default::default()
        };
        assert!(served_degraded(&report(&retried)));
        let shards = RunDegradation {
            missing_shards: vec![1],
            ..Default::default()
        };
        assert!(served_degraded(&report(&shards)));
        // A budget's high-water mark alone is not a degradation.
        let tracked = RunDegradation {
            peak_tracked_bytes: 4096,
            ..Default::default()
        };
        assert!(!served_degraded(&report(&tracked)));
        assert!(served_degraded("{\"workload\": \"prog\"}"));
    }

    #[test]
    fn degraded_in_process_report_counts_as_failed() {
        use polyprof_core::{try_profile_with, ProfileConfig};
        let exp = expected().unwrap();
        let prog = rodinia::nw::build().program;
        let run = |cfg: ProfileConfig| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                try_profile_with(&prog, &cfg)
            }))
        };
        let clean = run(ProfileConfig::new().with_canonical(true));
        assert_eq!(check_report(&exp, "nw", &clean), Ok(()));
        // A one-byte budget latches pressure: a valid but degraded report.
        let starved = run(ProfileConfig::new()
            .with_canonical(true)
            .with_memory_budget(1));
        assert_eq!(check_report(&exp, "nw", &starved), Err(Failure::Degraded));
        // The right program under the wrong name is a digest mismatch.
        assert_eq!(
            check_report(&exp, "backprop", &clean),
            Err(Failure::DigestMismatch)
        );
    }
}
