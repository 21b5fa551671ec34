//! `serve_mix`: an in-process `polyserve` with two workers over
//! `polyprof_bench::replay_workloads()`, driven by a closed loop of two
//! client connections (each sends its next submission only after the
//! previous one completed). The seeded mix has three equal thirds: repeat
//! submissions the cache may serve, live submissions with a byte budget far
//! above need (which bypasses the cache), and uploads of `.ptrace`
//! recordings made in set-up, sent with the same budget.

use crate::check::{check_canonical, served_degraded, Failure, Tally};
use crate::spans::{Span, Spans};
use crate::stats::{geomean, median, tail, Rng};
use crate::workloads::{bare_vm, record, timed_setups};
use crate::{Ctx, Metric, Outcome};
use polyprof_core::polyir::Program;
use polyprof_core::polytrace::service::{ServiceCounter, ServiceStats};
use polyserve::wire::{json_str, json_u64, read_frame, write_frame, write_json, KIND_BINARY};
use polyserve::{serve, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients (connections).
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Byte budget of live and upload submissions: far above any workload's
/// need, so it never latches pressure; its only effect is to make the
/// session ineligible for the cache.
const BUDGET_BYTES: u64 = 1 << 40;

/// Workload parameters for the output stamp.
pub fn params() -> String {
    format!(
        "server_workers={WORKERS} clients={CLIENTS} loop=closed progress_ms=10 \
         mix=repeat/live/upload thirds over replay_workloads budget_bytes={BUDGET_BYTES}"
    )
}

/// The three kinds of submission in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Program submission without a budget: the cache may serve it.
    Repeat,
    /// Program submission with a budget: always folds live.
    Live,
    /// Upload of a recording made in set-up, with a budget.
    Upload,
}

const KINDS: [Kind; 3] = [Kind::Repeat, Kind::Live, Kind::Upload];

/// The seeded, endless submission sequence: rounds of every (kind,
/// program) pair exactly once, each round in its own shuffled order, so
/// every run of whole rounds holds equal thirds of each kind.
pub fn mix(seed: u64, programs: usize) -> impl Iterator<Item = (Kind, usize)> {
    let mut rng = Rng::new(seed);
    let mut round: Vec<(Kind, usize)> = KINDS
        .iter()
        .flat_map(|&k| (0..programs).map(move |p| (k, p)))
        .collect();
    std::iter::repeat_with(move || {
        rng.shuffle(&mut round);
        round.clone()
    })
    .flatten()
}

/// What the server answered to one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A final report.
    Done(String),
    /// Structured load shedding.
    Overloaded,
    /// Refused at admission.
    Rejected,
    /// Accepted, then failed terminally.
    Failed,
}

/// A served answer checked like an in-process report: overloaded, rejected,
/// failed and degraded sessions fail, and so does a canonical DDG that does
/// not match the stored digest.
pub fn check_answer(
    expected: &BTreeMap<String, u64>,
    program: &str,
    answer: &Answer,
) -> Result<(), Failure> {
    match answer {
        Answer::Overloaded => Err(Failure::Overloaded),
        Answer::Rejected => Err(Failure::Rejected),
        Answer::Failed => Err(Failure::Error),
        Answer::Done(report) if served_degraded(report) => Err(Failure::Degraded),
        Answer::Done(report) => check_canonical(
            expected,
            program,
            json_str(report, "canonical_ddg").as_deref(),
        ),
    }
}

/// One submission as the client saw it (seconds since sending).
struct Served {
    answer: Answer,
    accepted_s: Option<f64>,
    wall_s: f64,
}

/// Send one submission and read frames until its terminal one.
fn submit(
    stream: &mut TcpStream,
    tenant: &str,
    workload: &str,
    kind: Kind,
    upload: &[u8],
) -> io::Result<Served> {
    let t0 = Instant::now();
    let op = if kind == Kind::Upload {
        "submit_trace"
    } else {
        "submit"
    };
    let mut req =
        format!("{{\"op\": \"{op}\", \"workload\": \"{workload}\", \"tenant\": \"{tenant}\"");
    if kind != Kind::Repeat {
        req.push_str(&format!(", \"budget_bytes\": {BUDGET_BYTES}"));
    }
    req.push('}');
    write_json(stream, &req)?;
    if kind == Kind::Upload {
        write_frame(stream, KIND_BINARY, upload)?;
    }
    let mut accepted_s = None;
    loop {
        let Some((_, payload)) = read_frame(stream)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        };
        let frame = String::from_utf8_lossy(&payload);
        let answer = match json_str(&frame, "type").as_deref() {
            Some("accepted") => {
                accepted_s = Some(t0.elapsed().as_secs_f64());
                continue;
            }
            Some("progress") => continue,
            Some("overloaded") => Answer::Overloaded,
            Some("error") if accepted_s.is_some() => Answer::Failed,
            Some("error") => Answer::Rejected,
            Some("final") => match frame.find("\"report\": ") {
                Some(at) => Answer::Done(frame[at + 10..frame.len() - 1].to_string()),
                None => Answer::Failed,
            },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame type {other:?}"),
                ))
            }
        };
        return Ok(Served {
            answer,
            accepted_s,
            wall_s: t0.elapsed().as_secs_f64(),
        });
    }
}

/// A running server plus what the clients send it. Dropping it shuts the
/// server down (a dropped `ServerHandle` alone would leave it running).
struct Setup {
    server: Option<ServerHandle>,
    names: Vec<&'static str>,
    progs: Vec<Program>,
    uploads: Vec<Vec<u8>>,
}

/// Record every program's stream, start the server and warm it up with one
/// submission of each kind per program (the repeat submissions fill the
/// cache).
fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let (names, progs): (Vec<&'static str>, Vec<Program>) =
        polyprof_bench::replay_workloads().into_iter().unzip();
    let mut uploads = Vec::with_capacity(progs.len());
    for (name, prog) in names.iter().zip(&progs) {
        let path = record(prog, &ctx.workdir, &format!("serve-{name}"))?;
        uploads.push(std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let cfg = ServerConfig {
        workers: WORKERS,
        // Far above what two closed-loop clients can queue or spend: any
        // `overloaded` answer is a failure, never expected shedding.
        queue_cap: 64,
        bucket_capacity: 1e9,
        refill_per_sec: 1e9,
        session_deadline: Duration::from_secs(60),
        deadline_grace: Duration::from_secs(10),
        progress_interval: Some(Duration::from_millis(10)),
    };
    let registry = names
        .iter()
        .map(|n| n.to_string())
        .zip(progs.iter().cloned())
        .collect();
    let server =
        serve("127.0.0.1:0", cfg, registry).map_err(|e| format!("starting server: {e}"))?;
    let mut stream = connect(server.addr())?;
    for &kind in &KINDS {
        for (i, name) in names.iter().enumerate() {
            let s = submit(&mut stream, "warmup", name, kind, &uploads[i])
                .map_err(|e| format!("warm-up submission: {e}"))?;
            check_answer(&ctx.expected, name, &s.answer)
                .map_err(|f| format!("warm-up {kind:?} {name} failed: {}", f.name()))?;
        }
    }
    Ok(Setup {
        server: Some(server),
        names,
        progs,
        uploads,
    })
}

impl Setup {
    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("running until dropped")
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// One session's record, kept per client thread. The report itself is
/// checked and dropped at once, so the records stay small.
struct Session {
    index: usize,
    program: usize,
    start_ns: u64,
    accepted_s: Option<f64>,
    wall_s: f64,
    bare_s: f64,
    dyn_ops: u64,
    verdict: Result<(), Failure>,
}

/// Server-side counters and histogram totals at one instant.
struct StatsSnap {
    hits: u64,
    shed: u64,
    queue: (u64, u64),
    session: (u64, u64),
}

fn snap(stats: &ServiceStats) -> StatsSnap {
    let (q, s) = (stats.queue_wait(), stats.session_wall());
    StatsSnap {
        hits: stats.get(ServiceCounter::CacheHits) + stats.get(ServiceCounter::SingleFlightWaits),
        shed: stats.rejections(),
        queue: (q.sum(), q.count()),
        session: (s.sum(), s.count()),
    }
}

/// Run `serve_mix`: untraced when `spans` is `None`, else traced. Both
/// take the same client timestamps; the traced run turns them into spans
/// after the window, so it adds no work inside it.
pub fn run(ctx: &Ctx, spans: Option<&mut Spans>) -> Result<Outcome, String> {
    let (st, setup_walls) = if spans.is_some() {
        let t = Instant::now();
        (setup(ctx)?, vec![t.elapsed().as_secs_f64()])
    } else {
        timed_setups(|| setup(ctx))?
    };
    let addr = st.server().addr();
    // One sequence shared by both clients: the mix does not depend on
    // which client draws which submission.
    let plan = Mutex::new(mix(ctx.seed, st.names.len()).enumerate());
    let origin = Instant::now();
    let deadline = Duration::from_secs_f64(ctx.seconds);
    let before = snap(st.server().stats());
    let per_client: Vec<Result<Vec<Session>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (st, plan, expected) = (&st, &plan, &ctx.expected);
                s.spawn(move || -> Result<Vec<Session>, String> {
                    let tenant = format!("client{c}");
                    let mut stream = connect(addr)?;
                    let mut out = Vec::new();
                    while origin.elapsed() < deadline {
                        let (index, (kind, p)) = plan
                            .lock()
                            .map_err(|_| "serve mix lock poisoned")?
                            .next()
                            .ok_or("serve mix ended")?;
                        // Interleaved native baseline of the same program
                        // (client think time, outside the session).
                        let (bare_s, _) = bare_vm(&st.progs[p])?;
                        let start_ns = origin.elapsed().as_nanos() as u64;
                        let served =
                            submit(&mut stream, &tenant, st.names[p], kind, &st.uploads[p])
                                .map_err(|e| format!("session {index}: {e}"))?;
                        let verdict = check_answer(expected, st.names[p], &served.answer);
                        let dyn_ops = match &served.answer {
                            Answer::Done(r) => json_u64(r, "dyn_ops").unwrap_or(0),
                            _ => 0,
                        };
                        out.push(Session {
                            index,
                            program: p,
                            start_ns,
                            accepted_s: served.accepted_s,
                            wall_s: served.wall_s,
                            bare_s,
                            dyn_ops,
                            verdict,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let window_s = origin.elapsed().as_secs_f64();
    let after = snap(st.server().stats());
    let p50_queue_ms = st.server().stats().queue_wait().percentile(0.5) as f64 / 1e6;
    let p50_session_ms = st.server().stats().session_wall().percentile(0.5) as f64 / 1e6;
    let mut sessions = Vec::new();
    for r in per_client {
        sessions.extend(r?);
    }
    sessions.sort_by_key(|s| s.index);

    let mut tally = Tally::default();
    for s in &sessions {
        tally.record(s.verdict);
    }
    let walls: Vec<f64> = sessions.iter().map(|s| s.wall_s).collect();
    if let Some(spans) = spans {
        let shift = spans.ns_at(origin);
        record_spans(spans, shift, &sessions, &st.names);
        let n = sessions.len().max(1) as f64;
        let mean_wall = walls.iter().sum::<f64>() / n;
        // The server's own time per session, from its histograms over the
        // window: queue wait plus the session run. The rest of what the
        // client waited (framing, admission, the wire) is unattributed.
        let server_mean = |(sum1, n1): (u64, u64), (sum0, n0): (u64, u64)| {
            (sum1 - sum0) as f64 / 1e9 / (n1 - n0).max(1) as f64
        };
        let served =
            server_mean(after.queue, before.queue) + server_mean(after.session, before.session);
        let admits: Vec<f64> = sessions.iter().filter_map(|s| s.accepted_s).collect();
        let metrics = vec![
            Metric::new("polyserve.admit_ms_p50", 1e3 * median(&admits), "ms"),
            Metric::new("polyserve.queue_wait_ms_p50", p50_queue_ms, "ms"),
            Metric::new("polyserve.session_ms_p50", p50_session_ms, "ms"),
            Metric::new(
                "polyserve.cache_hit_ratio",
                (after.hits - before.hits) as f64 / n,
                "ratio",
            ),
            Metric::new("polyserve.shed", (after.shed - before.shed) as f64, "count"),
            Metric::new(
                "core.unattributed_frac",
                (mean_wall - served) / mean_wall,
                "ratio",
            ),
        ];
        return Ok(Outcome {
            tally,
            metrics: crate::ladder::with_zero_layers(metrics),
        });
    }

    let t = tail(&walls);
    let mut by_prog: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); st.names.len()];
    for s in &sessions {
        by_prog[s.program].0.push(s.wall_s);
        by_prog[s.program].1.push(s.bare_s);
    }
    let slowdowns: Vec<f64> = by_prog.iter().map(|(w, b)| median(w) / median(b)).collect();
    let dyn_ops: u64 = sessions.iter().map(|s| s.dyn_ops).sum();
    let metrics = vec![
        Metric::new("setup_s", median(&setup_walls), "s"),
        Metric::new("op_ms_p50", 1e3 * median(&walls), "ms").printed_only(),
        Metric::new("op_ms_tail", 1e3 * t.value, "ms").note(format!(
            "p{:.1} of n={} sessions, {} beyond",
            t.pct, t.n, t.beyond
        )),
        Metric::new("ops_per_s", sessions.len() as f64 / window_s, "1/s"),
        Metric::new(
            "dyn_mops_per_s",
            dyn_ops as f64 / walls.iter().sum::<f64>() / 1e6,
            "Mop/s",
        ),
        Metric::new("slowdown_x", geomean(&slowdowns), "x"),
        Metric::new(
            "peak_rss_mb",
            crate::stats::peak_rss_mb().map_err(|e| e.to_string())?,
            "MiB",
        ),
    ];
    Ok(Outcome { tally, metrics })
}

/// Spans of every session: the session, its admission (send → `accepted`)
/// and the rest (→ final frame).
/// `shift` is the run's origin on the store's clock.
fn record_spans(spans: &mut Spans, shift: u64, sessions: &[Session], names: &[&'static str]) {
    for s in sessions {
        let start = shift + s.start_ns;
        let end = start + (s.wall_s * 1e9) as u64;
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            program: names[s.program],
            start_ns,
            end_ns,
            parent,
            op: s.index as u64,
        };
        let root = spans.push(span("polyserve.session", start, end, None));
        if let Some(acc) = s.accepted_s {
            let acc = start + (acc * 1e9) as u64;
            spans.push(span("polyserve.admit", start, acc, Some(root)));
            spans.push(span("polyserve.run", acc, end, Some(root)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_mix() {
        let take = |seed, n| mix(seed, 5).take(n).collect::<Vec<_>>();
        assert_eq!(take(42, 1000), take(42, 1000));
        assert_ne!(take(42, 1000), take(43, 1000));
    }

    #[test]
    fn mix_is_equal_thirds_in_every_round() {
        let m: Vec<_> = mix(1, 5).take(15 * 40).collect();
        for round in m.chunks(15) {
            for k in KINDS {
                assert_eq!(round.iter().filter(|(kk, _)| *kk == k).count(), 5);
            }
            for p in 0..5 {
                assert_eq!(round.iter().filter(|(_, pp)| *pp == p).count(), 3);
            }
        }
    }

    #[test]
    fn overloaded_rejected_failed_and_degraded_answers_fail() {
        let exp = crate::check::expected().unwrap();
        let ok = Answer::Done(polyprof_core::polyfeedback::session_report_json(
            "nw",
            1,
            true,
            (1, 1, 1),
            Some("not the nw ddg"),
            &polyprof_core::RunDegradation::default().to_json(),
            None,
        ));
        assert_eq!(check_answer(&exp, "nw", &ok), Err(Failure::DigestMismatch));
        assert_eq!(
            check_answer(&exp, "nw", &Answer::Overloaded),
            Err(Failure::Overloaded)
        );
        assert_eq!(
            check_answer(&exp, "nw", &Answer::Rejected),
            Err(Failure::Rejected)
        );
        assert_eq!(
            check_answer(&exp, "nw", &Answer::Failed),
            Err(Failure::Error)
        );
        let degraded = polyprof_core::RunDegradation {
            deadline_hit: true,
            ..Default::default()
        };
        let deg = Answer::Done(polyprof_core::polyfeedback::session_report_json(
            "nw",
            1,
            false,
            (1, 1, 1),
            None,
            &degraded.to_json(),
            None,
        ));
        assert_eq!(check_answer(&exp, "nw", &deg), Err(Failure::Degraded));
        let mut t = Tally::default();
        for a in [&ok, &Answer::Overloaded, &deg] {
            t.record(check_answer(&exp, "nw", a));
        }
        assert_eq!((t.attempted, t.failed), (3, 3));
    }

    #[test]
    fn served_canonical_ddg_matches_the_stored_digest() {
        let exp = crate::check::expected().unwrap();
        let prog = rodinia::nw::build().program;
        let r = polyprof_core::try_profile_with(
            &prog,
            &polyprof_core::ProfileConfig::new().with_canonical(true),
        )
        .unwrap();
        let report = polyprof_core::polyfeedback::session_report_json(
            "nw",
            1,
            false,
            r.folded_stats,
            r.canonical_ddg.as_deref(),
            &r.degradation_json(),
            None,
        );
        assert_eq!(check_answer(&exp, "nw", &Answer::Done(report)), Ok(()));
    }
}
