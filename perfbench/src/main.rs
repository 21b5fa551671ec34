//! The poly-prof-rs benchmark.
//!
//! ```text
//! perfbench --workload <rodinia|backprop_big|replay_k2|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//! perfbench digests
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the layer ladder and prints the per-layer metrics. Every op's folded
//! DDG is checked against `expected_digests.txt`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `digests` prints the digest table computed by the current code.
//!
//! See `perfbench/README.md` for the metrics, the workloads and the noise
//! measured on them.

mod check;
mod ladder;
mod serve;
mod spans;
mod stats;
mod workloads;

use check::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Batch;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Seed of the workload's generated inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Directory for recordings, spooled uploads and the span file.
    pub workdir: PathBuf,
    /// Expected canonical-DDG digests by program.
    pub expected: BTreeMap<String, u64>,
}

/// One named metric value.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Extra context printed next to it (not part of the JSON).
    pub note: String,
    /// In the result JSON (listed in `BENCHMARK.json`), or printed only.
    pub listed: bool,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
            listed: true,
        }
    }

    /// Attach a printed note.
    pub fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }

    /// Print the metric but leave it out of the result JSON.
    pub fn printed_only(mut self) -> Self {
        self.listed = false;
        self
    }
}

/// A workload run's result.
pub struct Outcome {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut workdir = PathBuf::from(".bench_build/perfbench-run");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--workdir" => workdir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workdir,
    })
}

/// `GITHUB_SHA`, else `git rev-parse HEAD` of the working directory (not of
/// any repository above it), else `unknown`.
fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.trim().is_empty() {
            return sha.trim().to_string();
        }
    }
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()));
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Render the result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`. Fails on a non-finite value, which JSON cannot carry.
fn result_json(out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(out.metrics.len());
    for m in out.metrics.iter().filter(|m| m.listed) {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted > 0 && out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    ))
}

fn run(args: Args) -> Result<(), String> {
    // `try_profile_with` reads this itself and would inject faults into
    // every op without the benchmark knowing.
    if std::env::var_os("POLYPROF_FAULT_PLAN").is_some() {
        return Err("POLYPROF_FAULT_PLAN is set; refusing to measure a fault-injected run".into());
    }
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("creating {}: {e}", args.workdir.display()))?;
    let workdir = args
        .workdir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", args.workdir.display()))?;
    // The server spools uploaded recordings to the temporary directory:
    // keep those writes inside the work directory. Set before any thread
    // starts.
    std::env::set_var("TMPDIR", &workdir);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        workdir,
        expected: check::expected()?,
    };
    let batch = match args.workload.as_str() {
        "rodinia" => Some(Batch::Rodinia),
        "backprop_big" => Some(Batch::BackpropBig),
        "replay_k2" => Some(Batch::ReplayK2),
        "serve_mix" => None,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let params = batch.map_or_else(serve::params, Batch::params);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cpus={} git_sha={} params=[{}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpus(),
        git_sha(),
        params
    );
    let mut spans = spans::Spans::default();
    let out = match (batch, args.trace) {
        (Some(b), false) => workloads::run_e2e(b, &ctx)?,
        (Some(b), true) => ladder::run_traced(b, &ctx, &mut spans)?,
        (None, false) => serve::run(&ctx, None)?,
        (None, true) => serve::run(&ctx, Some(&mut spans))?,
    };
    if args.trace {
        let path = ctx
            .workdir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, spans.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  spans: {} written to {}",
            spans.all().len(),
            path.display()
        );
    }
    let mut summary = String::new();
    for m in &out.metrics {
        let _ = write!(summary, "  {:<32} {:>14.6} {:<8}", m.name, m.value, m.unit);
        if !m.note.is_empty() {
            let _ = write!(summary, " ({})", m.note);
        }
        if !m.listed {
            summary.push_str(" [printed only]");
        }
        summary.push('\n');
    }
    print!("{summary}");
    println!(
        "  failed_frac {:.6} ({} of {} ops failed; causes: {})",
        out.tally.failed_frac(),
        out.tally.failed,
        out.tally.attempted,
        out.tally.causes_line()
    );
    println!("{}", result_json(&out)?);
    Ok(())
}

/// Print the digest table the current code produces, in the format of
/// `expected_digests.txt`.
fn print_digests() -> Result<(), String> {
    let mut progs: Vec<(&'static str, polyprof_core::polyir::Program)> = rodinia::all_rodinia()
        .into_iter()
        .map(|w| (w.name, w.program))
        .collect();
    progs.extend(polyprof_bench::replay_workloads());
    progs.push((
        workloads::BACKPROP_BIG,
        polyprof_bench::trace::big_backprop(workloads::BIG_N, workloads::BIG_N),
    ));
    let mut table = BTreeMap::new();
    for (name, prog) in progs {
        let cfg = polyprof_core::ProfileConfig::new().with_canonical(true);
        let r = polyprof_core::try_profile_with(&prog, &cfg).map_err(|e| format!("{name}: {e}"))?;
        let canonical = r.canonical_ddg.ok_or("canonical DDG missing")?;
        table.insert(name, check::digest(&canonical));
    }
    println!("# FNV-1a 64 of Report::canonical_ddg per program (default serial config).");
    for (name, d) in table {
        println!("{name} {d:016x}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = if argv.peek().map(String::as_str) == Some("digests") {
        print_digests()
    } else {
        parse_args(argv).and_then(run)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload rodinia --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("rodinia", 7, 10.0, true)
        );
        assert!(args("--workload rodinia --seed 7 --seconds 10").is_err());
        assert!(args("--workload rodinia --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload rodinia --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload rodinia --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        let out = Outcome {
            tally,
            metrics: vec![Metric::new("op_ms_p50", 1.25, "ms")],
        };
        assert_eq!(
            result_json(&out).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"op_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let bad = Outcome {
            tally: Tally::default(),
            metrics: vec![Metric::new("x", f64::NAN, "ms")],
        };
        assert!(result_json(&bad).is_err());
        let unlisted = Outcome {
            tally: Tally::default(),
            metrics: vec![Metric::new("x", f64::NAN, "ms").printed_only()],
        };
        assert!(result_json(&unlisted)
            .unwrap()
            .ends_with("\"metrics\": {}}"));
    }
}
