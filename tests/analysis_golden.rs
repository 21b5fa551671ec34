//! Golden digests of the scheduler's analysis on every Table 5 workload.
//!
//! The perfbench digests hash only the folded DDG, so nothing else pins
//! what `polysched` derives from it. Each workload's [`Analysis`] is
//! rendered as stable text — per dependence its distance ranges, carried
//! level and count, per loop node its legality summary — and the FNV-1a 64
//! digest of that text is compared against the table below. A change to
//! the polyhedral bounding code (`polylib`) or to the dependence analysis
//! that moves any distance or verdict fails here under the workload's name.

use polyprof_core::polylib::Rat;
use polyprof_core::polysched::{self, Analysis, DistRange};
use std::fmt::Write;

/// `(workload, FNV-1a 64 of render(analysis))`, in the paper's row order.
const GOLDEN: [(&str, u64); 19] = [
    ("backprop", 0x72936cd6c08943dc),
    ("bfs", 0xc698e94a78f09c65),
    ("b+tree", 0x4e8b80540a4a0696),
    ("cfd", 0x7642abadf3b257d7),
    ("heartwall", 0x8f15acf8f3d3936e),
    ("hotspot", 0x6796d2bcbbf7565d),
    ("hotspot3D", 0x37d64d0690608c45),
    ("kmeans", 0x1f72b15e8f2a2072),
    ("lavaMD", 0x49922707b7de7aca),
    ("leukocyte", 0x0a10443a50c4dcac),
    ("lud", 0x9a598b662914ad99),
    ("myocyte", 0xe30851407e4d9028),
    ("nn", 0x5b50be7f5a33f7d0),
    ("nw", 0xcf7c9480da4a3da4),
    ("particlefilter", 0x9eb3df39ab755f6d),
    ("pathfinder", 0x9e391eed8e92001f),
    ("srad_v1", 0xf129152834a1f60f),
    ("srad_v2", 0x38856c20b8c24838),
    ("streamcluster", 0xf57e7ad1e5033b84),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn range(r: &DistRange) -> String {
    let end = |b: Option<Rat>| b.map_or("inf".to_string(), |x| x.to_string());
    format!("[{}, {}]", end(r.min), end(r.max))
}

/// One line per dependence, then one per loop node.
fn render(a: &Analysis) -> String {
    let mut s = String::new();
    for d in &a.deps {
        let dist: Vec<String> = d.dist.iter().map(range).collect();
        writeln!(
            s,
            "dep {} {:?}->{:?} {:?} shared={} dist=[{}] carried={:?} count={}",
            d.dep_idx,
            d.src,
            d.dst,
            d.kind,
            d.shared,
            dist.join(" "),
            d.carried,
            d.count
        )
        .unwrap();
    }
    for (i, n) in a.node.iter().enumerate() {
        writeln!(
            s,
            "node {i} parallel={} zero_dist={} carried_here={}",
            n.parallel, n.zero_dist, n.carried_here
        )
        .unwrap();
    }
    s
}

/// Every workload's analysis renders to the pinned digest. On a mismatch
/// the full table of current digests is printed, ready to paste.
#[test]
fn analysis_matches_golden_digests() {
    let workloads = rodinia::all_rodinia();
    assert_eq!(workloads.len(), GOLDEN.len());
    let actual: Vec<(&str, u64)> = workloads
        .iter()
        .map(|w| {
            let (analysis, _, _) = polysched::analyze_program(&w.program);
            (w.name, fnv1a(render(&analysis).as_bytes()))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", 0x{h:016x}),\n"))
        .collect();
    let drifted: Vec<&str> = actual
        .iter()
        .zip(GOLDEN.iter())
        .filter(|(a, g)| a != g)
        .map(|(a, _)| a.0)
        .collect();
    assert!(
        drifted.is_empty(),
        "analysis drifted on {drifted:?}; current digests:\n{table}"
    );
}
