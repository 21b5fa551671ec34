//! The batch workloads (`rodinia`, `backprop_big`, `replay_k2`): their
//! set-up, the untraced op loop, and the end-to-end metrics it yields.

use crate::check::{check_report, Tally};
use crate::stats::{geomean, median, tail, Rng};
use crate::{Ctx, Metric, Outcome};
use polyprof_core::polyir::Program;
use polyprof_core::polyvm::{NullSink, Vm};
use polyprof_core::{try_profile_with, PolyProfError, ProfileConfig, Report};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Name of the large backprop program in the digest table.
pub const BACKPROP_BIG: &str = "backprop_big";
/// Layer sizes of `backprop_big` (846k dynamic ops).
pub const BIG_N: i64 = 192;
/// Fold shards of the `replay_k2` re-fold.
pub const REPLAY_K: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Bare VM runs timed after each profile, for `slowdown_x`'s baseline.
pub const BARE_RUNS: usize = 3;

/// A program with the name its expected digest is stored under.
pub struct Named {
    /// Digest-table name.
    pub name: &'static str,
    /// The program.
    pub prog: Program,
}

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// The 19 Table-5 kernels, one suite pass per op.
    Rodinia,
    /// One large backprop profile per op.
    BackpropBig,
    /// One K=2 re-fold of a recorded `backprop_big` stream per op.
    ReplayK2,
}

impl Batch {
    /// Workload parameters for the output stamp.
    pub fn params(self) -> String {
        match self {
            Batch::Rodinia => "programs=19 order=seed-shuffled-per-op config=serial+canonical".into(),
            Batch::BackpropBig => format!("program=big_backprop({BIG_N},{BIG_N}) config=serial+canonical"),
            Batch::ReplayK2 => format!(
                "program=big_backprop({BIG_N},{BIG_N}) config=replay_from+fold_threads({REPLAY_K})+canonical"
            ),
        }
    }
}

/// A set-up batch workload: its programs and the configuration every op
/// profiles them with.
pub struct Prepared {
    /// Programs profiled by one op, in canonical order.
    pub progs: Vec<Named>,
    /// The recorded pass-2 stream (`replay_k2` only).
    pub recording: Option<PathBuf>,
}

impl Prepared {
    /// The op's profiling configuration.
    pub fn config(&self) -> ProfileConfig {
        let cfg = ProfileConfig::new().with_canonical(true);
        match &self.recording {
            Some(path) => cfg.with_replay_from(path).with_fold_threads(REPLAY_K),
            None => cfg,
        }
    }
}

/// Profile `prog` under `cfg`, catching a panic as a failed op.
pub fn profile(
    prog: &Program,
    cfg: &ProfileConfig,
) -> std::thread::Result<Result<Report, PolyProfError>> {
    catch_unwind(AssertUnwindSafe(|| try_profile_with(prog, cfg)))
}

/// Wall seconds and dynamic instructions of one bare `Vm::run(NullSink)`.
pub fn bare_vm(prog: &Program) -> Result<(f64, u64), String> {
    let t = Instant::now();
    let out = Vm::new(prog)
        .run(&[], &mut NullSink)
        .map_err(|e| format!("bare VM run of {}: {e}", prog.name))?;
    Ok((t.elapsed().as_secs_f64(), out.dyn_instrs))
}

/// Build the workload's programs, record its fixture, and warm up: one op
/// plus one bare run per program.
pub fn setup(batch: Batch, ctx: &Ctx) -> Result<Prepared, String> {
    let progs = match batch {
        Batch::Rodinia => rodinia::all_rodinia()
            .into_iter()
            .map(|w| Named {
                name: w.name,
                prog: w.program,
            })
            .collect(),
        Batch::BackpropBig | Batch::ReplayK2 => vec![Named {
            name: BACKPROP_BIG,
            prog: polyprof_bench::trace::big_backprop(BIG_N, BIG_N),
        }],
    };
    let recording = match batch {
        Batch::ReplayK2 => Some(record(&progs[0].prog, &ctx.workdir, "replay_k2")?),
        _ => None,
    };
    let prepared = Prepared { progs, recording };
    let cfg = prepared.config();
    for p in &prepared.progs {
        let r = profile(&p.prog, &cfg);
        check_report(&ctx.expected, p.name, &r)
            .map_err(|f| format!("warm-up of {} failed: {}", p.name, f.name()))?;
        bare_vm(&p.prog)?;
    }
    Ok(prepared)
}

/// Record `prog`'s pass-2 stream to `<workdir>/<stem>.ptrace`.
pub fn record(prog: &Program, workdir: &Path, stem: &str) -> Result<PathBuf, String> {
    let path = workdir.join(format!("{stem}.ptrace"));
    try_profile_with(prog, &ProfileConfig::new().with_record_to(&path))
        .map_err(|e| format!("recording {}: {e}", prog.name))?;
    Ok(path)
}

/// Run `f` [`SETUPS`] times, keeping the last result and every wall time.
pub fn timed_setups<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up before timing the next one, so each
        // starts from the same state.
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS > 0"), walls))
}

/// The seeded program orders of successive ops: a fresh shuffle of
/// `0..n` per op, the same sequence for the same seed.
pub fn suite_orders(seed: u64, n: usize) -> impl Iterator<Item = Vec<usize>> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    std::iter::repeat_with(move || {
        rng.shuffle(&mut order);
        order.clone()
    })
}

/// Per-op timings of the untraced loop.
#[derive(Debug, Default)]
struct Loop {
    op_walls: Vec<f64>,
    dyn_ops: u64,
    profile_walls: BTreeMap<&'static str, Vec<f64>>,
    bare_walls: BTreeMap<&'static str, Vec<f64>>,
    window_s: f64,
    tally: Tally,
}

/// The untraced measurement: ops until `ctx.seconds` have passed. Each op
/// profiles every program once (in a seed-shuffled order when there are
/// several), timing only `try_profile_with`; after each profile
/// [`BARE_RUNS`] bare VM runs of the same program are timed for
/// `slowdown_x`.
fn run_loop(p: &Prepared, ctx: &Ctx) -> Result<Loop, String> {
    let cfg = p.config();
    let mut orders = suite_orders(ctx.seed, p.progs.len());
    let mut lp = Loop::default();
    let mut bare_total = 0.0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let order = orders.next().expect("endless");
        let mut op_wall = 0.0;
        let mut op_ok = Ok(());
        for &i in &order {
            let named = &p.progs[i];
            let t = Instant::now();
            let r = profile(&named.prog, &cfg);
            let wall = t.elapsed().as_secs_f64();
            op_wall += wall;
            lp.profile_walls.entry(named.name).or_default().push(wall);
            let verdict = check_report(&ctx.expected, named.name, &r);
            if let Ok(Ok(rep)) = &r {
                lp.dyn_ops += rep.folded_stats.2;
            }
            drop(r);
            op_ok = op_ok.and(verdict);
            for _ in 0..BARE_RUNS {
                let (bare, _) = bare_vm(&named.prog)?;
                bare_total += bare;
                lp.bare_walls.entry(named.name).or_default().push(bare);
            }
        }
        lp.op_walls.push(op_wall);
        lp.tally.record(op_ok);
    }
    lp.window_s = start.elapsed().as_secs_f64() - bare_total;
    Ok(lp)
}

/// Per-program `median(profile) / median(bare VM)`, geomean over programs.
pub fn slowdown(
    profile_walls: &BTreeMap<&'static str, Vec<f64>>,
    bare_walls: &BTreeMap<&'static str, Vec<f64>>,
) -> f64 {
    let ratios: Vec<f64> = profile_walls
        .iter()
        .map(|(name, walls)| median(walls) / bare_walls.get(name).map_or(f64::NAN, |b| median(b)))
        .collect();
    geomean(&ratios)
}

/// The untraced run of a batch workload: set-up, loop, end-to-end metrics.
pub fn run_e2e(batch: Batch, ctx: &Ctx) -> Result<Outcome, String> {
    let (prepared, setup_walls) = timed_setups(|| setup(batch, ctx))?;
    let lp = run_loop(&prepared, ctx)?;
    let t = tail(&lp.op_walls);
    let op_wall_sum: f64 = lp.op_walls.iter().sum();
    let metrics = vec![
        Metric::new("setup_s", median(&setup_walls), "s"),
        Metric::new("op_ms_p50", 1e3 * median(&lp.op_walls), "ms").printed_only(),
        Metric::new("op_ms_tail", 1e3 * t.value, "ms").note(format!(
            "p{:.1} of n={} ops, {} beyond",
            t.pct, t.n, t.beyond
        )),
        Metric::new("ops_per_s", lp.op_walls.len() as f64 / lp.window_s, "1/s"),
        Metric::new(
            "dyn_mops_per_s",
            lp.dyn_ops as f64 / op_wall_sum / 1e6,
            "Mop/s",
        ),
        Metric::new(
            "slowdown_x",
            slowdown(&lp.profile_walls, &lp.bare_walls),
            "x",
        ),
        Metric::new(
            "peak_rss_mb",
            crate::stats::peak_rss_mb().map_err(|e| e.to_string())?,
            "MiB",
        ),
    ];
    Ok(Outcome {
        tally: lp.tally,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_suite_orders() {
        let a: Vec<Vec<usize>> = suite_orders(11, 19).take(5).collect();
        let b: Vec<Vec<usize>> = suite_orders(11, 19).take(5).collect();
        let c: Vec<Vec<usize>> = suite_orders(12, 19).take(5).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Successive ops get different orders of the same programs.
        assert_ne!(a[0], a[1]);
        for o in &a {
            let mut s = o.clone();
            s.sort();
            assert_eq!(s, (0..19).collect::<Vec<_>>());
        }
    }

    #[test]
    fn slowdown_is_a_geomean_of_per_program_median_ratios() {
        let mut prof = BTreeMap::new();
        let mut bare = BTreeMap::new();
        prof.insert("a", vec![2.0, 4.0, 3.0]);
        bare.insert("a", vec![1.0, 1.0, 0.5]);
        prof.insert("b", vec![12.0]);
        bare.insert("b", vec![1.0]);
        // Ratios 3 and 12: geomean 6.
        assert!((slowdown(&prof, &bare) - 6.0).abs() < 1e-12);
        prof.insert("c", vec![1.0]);
        assert!(
            slowdown(&prof, &bare).is_nan(),
            "a program with no baseline"
        );
    }
}
