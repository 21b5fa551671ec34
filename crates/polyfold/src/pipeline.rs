//! Pass 2, end to end: one profiler, one VM drive, one entry point.
//!
//! [`fold`] runs the DDG profiler over the program and folds its event
//! stream into a [`FoldedDdg`]. It has two executors, and both drive the VM
//! through the same private `drive` function — the same
//! [`Profiler`], prune mask, budget, watchdog and
//! [`MemSynth`] re-emission — and are harvested, accounted and finalized in
//! one place:
//!
//! * **inline** (`fold_threads == 0` and no fault plan): a
//!   [`DdgProfiler`](polyddg::DdgProfiler) resolves shadow memory in line
//!   and folds into one [`FoldingSink`] on the calling thread;
//! * **pipelined** (`fold_threads = K ≥ 1`): the same profiler with its
//!   memory stage deferred, split over three stages connected by bounded
//!   channels:
//!
//! ```text
//!  VM thread            resolver thread          K folding workers
//! ┌───────────────┐    ┌──────────────────┐     ┌─────────────────┐
//! │ PreProfiler   │    │ ShadowResolver   │  ┌─▶│ FoldingSink #0  │
//! │  loop events  │ ch │  shadow memory   │ ch  ├─────────────────┤
//! │  IIV/interning├───▶│  dep resolution  ├──┼─▶│       ...       │
//! │  register deps│    │  ShardRouter     │  └─▶│ FoldingSink #K-1│
//! └───────────────┘    └──────────────────┘     └─────────────────┘
//!         unresolved events        resolved events, sharded by key
//! ```
//!
//! * Stage 1 is inherently sequential (the IIV and the interner follow the
//!   single control-flow trace); it batches events into [`EventChunk`]s.
//! * Stage 2 owns the shadow memory and emits resolved dependences.
//! * Stage 3 shards by folding key — statement id for points/accesses,
//!   *consumer* statement id for dependences — so each key's whole stream
//!   lands in exactly one [`FoldingSink`] partition, in serial order
//!   (single producer, FIFO channels). Per-shard folding state is therefore
//!   identical to the inline run, and [`FoldedDdg::merge_parts`] produces
//!   byte-identical output.
//!
//! All channels are bounded (`sync_channel`): a slow consumer backpressures
//! the VM instead of letting chunks pile up. Consumed chunks are recycled
//! through never-blocking return channels, preserving the zero-allocation
//! steady state inside every stage. Offline replay
//! ([`fold_recording`](crate::replay::fold_recording)) feeds the same shard
//! edge and fold workers from a recording instead of a resolver.
//!
//! ## Supervision
//!
//! Every pipeline stage thread runs its body under `catch_unwind`, so a
//! panic in any stage is converted into a structured [`PolyProfError`]
//! instead of poisoning the scope. Unwinding drops the stage's channel
//! endpoints, which unblocks its peers: a dead consumer makes the
//! producer's sends error out (counted as dropped chunks by
//! [`ChunkWriter`]), and a dead producer makes `recv` disconnect — no fault
//! can deadlock the pipeline. On top of that:
//!
//! * a dead *folding worker* only loses its shard — the surviving shards are
//!   merged with [`FoldedDdg::merge_parts_tolerant`] and the lost shard ids
//!   are recorded in the [`RunDegradation`];
//! * a dead *producer or resolver* (or the loss of every shard) fails the
//!   attempt, which is retried with linear backoff. [`FaultPlan`] occurrence
//!   counters keep counting across attempts, so a one-shot injected fault
//!   does not re-fire on retry;
//! * after `max_retries` failed attempts the run falls back to the inline
//!   executor (which arms no fault hooks), still honoring the budget.
//!
//! ## Telemetry
//!
//! Count-domain tallies — dynamic ops, memory events, folded events, chunk
//! traffic — are returned by the stages and harvested once, from the
//! attempt whose output the run returns, so a retried or fallen-back run
//! counts its trace exactly once. Spans, latency histograms and timeline
//! journals record the time of every attempt.

use crate::{ChunkScratch, FoldOptions, FoldStats, FoldedDdg, FoldingSink};
use polycfg::StaticStructure;
use polyddg::chunk::{ChunkStats, ChunkWriter, EventChunk, EventRef};
use polyddg::pipeline::{Deferred, ShardRouter};
use polyddg::prune::{PruneMask, PrunedEvents};
use polyddg::shadow::ShadowResolver;
use polyddg::{DdgConfig, FoldSink, MemStage, MemSynth, Profiler};
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyrec::{Recorder, TraceWriter, WriteStats};
use polyresist::{panic_msg, FaultPlan, FaultSite, PolyProfError, ResourceBudget, RunDegradation};
use polytrace::{
    tid_shard, Collector, Counter, HistKind, Histogram, Journal, PipeStage, Stage, TID_DRIVER,
    TID_RESOLVE,
};
use polyvm::OpcodeTelemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Knobs of one pass-2 run: the executor, its batching, and the hooks both
/// executors honor.
#[derive(Clone)]
pub struct PipelineConfig {
    /// Folding shards K. `0` folds in line on the calling thread; K ≥ 1
    /// runs the staged pipeline with K folding workers next to the VM and
    /// shadow-resolution threads (K + 2 threads on one trace). A fault plan
    /// always runs the pipeline, with at least one shard: its injection
    /// sites live in the pipeline stages.
    pub fold_threads: usize,
    /// Events per chunk — the batching granularity between stages and of
    /// the recording.
    pub chunk_events: usize,
    /// Bounded-channel depth, in chunks, per edge (backpressure window).
    pub queue_chunks: usize,
    /// Folding options for every shard.
    pub options: FoldOptions,
    /// DDG tracking switches.
    pub ddg: DdgConfig,
    /// Static prune mask installed on the profiler (see `polyddg::prune`).
    pub prune: Option<Arc<PruneMask>>,
    /// Re-emits the access-level-pruned memory streams after the VM run;
    /// required when `prune` carries access-level bits (see [`MemSynth`]).
    pub synth: Option<Arc<dyn MemSynth>>,
    /// Record the resolved event stream into a `.ptrace` file at this path.
    /// A retried attempt recreates the file; the serial fallback does not
    /// record (the loss is noted in the degradation report).
    pub record_to: Option<PathBuf>,
    /// Deterministic fault-injection schedule (tests / resilience gate).
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared byte/deadline budget; stages degrade instead of aborting.
    pub budget: Option<Arc<ResourceBudget>>,
    /// Failed pipeline attempts to retry before the serial fallback.
    pub max_retries: u32,
    /// Base backoff between attempts (scaled linearly by attempt number).
    pub backoff: Duration,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            fold_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            chunk_events: 4096,
            queue_chunks: 4,
            options: FoldOptions::default(),
            ddg: DdgConfig::default(),
            prune: None,
            synth: None,
            record_to: None,
            faults: None,
            budget: None,
            max_retries: 2,
            backoff: Duration::from_millis(25),
        }
    }
}

/// Run pass 2 over an already-analyzed structure and fold it: the one entry
/// point of every live profiling run (see the module docs for the two
/// executors). Returns the folded DDG, the interner, the events the prune
/// mask skipped, and everything the run lost or recovered from. `Err` only
/// when even the serial fallback cannot complete (a deterministic VM
/// failure) or a recording cannot be written.
pub fn fold(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
) -> Result<(FoldedDdg, ContextInterner, PrunedEvents, RunDegradation), PolyProfError> {
    let profile_span = trace.map(|c| c.span(Stage::Profile));
    let mut deg = RunDegradation::default();
    let mut a = if cfg.fold_threads == 0 && cfg.faults.is_none() {
        fold_inline(prog, structure, cfg, cfg.record_to.as_deref(), trace)?
    } else {
        supervise(prog, structure, cfg, trace, &mut deg)?
    };
    if let Some(c) = trace {
        harvest(c, &a);
    }

    deg.deadline_hit = a.run.deadline_hit;
    deg.unresolved_accesses = a.shadow.unresolved();
    deg.shadow_alloc_failures = a.shadow.alloc_failures();
    deg.budget_overapprox_stmts = a
        .shards
        .iter()
        .flatten()
        .map(|s| s.fold_stats().budget_degraded)
        .sum();
    if let Some(p) = &a.pipe {
        deg.dropped_chunks = p.emitted.dropped_chunks + p.routed.dropped_chunks;
        deg.malformed_chunks = p.malformed;
        for (shard, msg) in &p.lost_workers {
            deg.note(
                "fold",
                format!("shard {shard} lost ({msg}); output is partial"),
            );
        }
    }
    if let Some(b) = &cfg.budget {
        deg.budget_pressure = b.under_pressure();
        deg.peak_tracked_bytes = b.peak_bytes();
        if b.deadline_was_hit() {
            deg.deadline_hit = true;
        }
    }
    if let Some(p) = &cfg.faults {
        let alloc_seen = deg.shadow_alloc_failures;
        deg.absorb_plan(p);
        // `absorb_plan` reports plan-fired allocation faults; keep whichever
        // count is larger in case a retried attempt saw real failures too.
        deg.shadow_alloc_failures = deg.shadow_alloc_failures.max(alloc_seen);
    }
    if let Some(c) = trace {
        c.add(Counter::FaultsInjected, deg.faults_injected);
        c.add(Counter::UnresolvedAccesses, deg.unresolved_accesses);
        c.add(Counter::BudgetOverapprox, deg.budget_overapprox_stmts);
        if deg.deadline_hit {
            c.add(Counter::DeadlineHits, 1);
            c.timeline_instant("deadline-hit", TID_DRIVER, 0, 0);
        }
        if deg.budget_pressure {
            c.timeline_instant("budget-pressure", TID_DRIVER, deg.peak_tracked_bytes, 0);
        }
    }

    // The inline executor finalizes its single sink as its own stage; the
    // pipeline's parallel finalize and merge is part of its profile span.
    let ddg = if a.pipe.is_none() {
        drop(profile_span);
        let _span = trace.map(|c| c.span(Stage::Finalize));
        let sink = a.shards.pop().flatten().expect("inline fold has one sink");
        sink.finalize(prog, &a.run.interner)
    } else {
        let _span = trace.map(|c| c.pipe_span(PipeStage::Merge));
        let (ddg, missing) = finalize_shards_tolerant(a.shards, prog, &a.run.interner);
        deg.missing_shards = missing;
        ddg
    };
    Ok((ddg, a.run.interner, a.run.pruned, deg))
}

/// Everything one VM drive produced besides the sink and the memory stage.
struct Driven {
    interner: ContextInterner,
    pruned: PrunedEvents,
    deadline_hit: bool,
    dyn_ops: u64,
    mem_events: u64,
    arena_bytes: usize,
    opcodes: Option<Box<OpcodeTelemetry>>,
}

/// The one place the pass-2 VM runs: a [`Profiler`] with memory stage `M`
/// streaming into `out`, with the prune mask, budget and (pipeline-only)
/// fault plan installed. A watchdog abort keeps the partial trace; the
/// access-level-pruned memory streams are re-emitted afterwards.
fn drive<S: FoldSink, M: MemStage<S>>(
    prog: &Program,
    structure: &StaticStructure,
    out: S,
    cfg: &PipelineConfig,
    faults: Option<&Arc<FaultPlan>>,
    trace: Option<&Arc<Collector>>,
) -> Result<(S, M, Driven), PolyProfError> {
    let mut prof = Profiler::<S, M>::with_config(prog, structure, out, cfg.ddg);
    if let Some(m) = &cfg.prune {
        prof.set_prune_mask(Arc::clone(m));
    }
    if let Some(b) = &cfg.budget {
        prof.set_budget(Arc::clone(b));
    }
    if let Some(p) = faults {
        prof.set_faults(Arc::clone(p));
    }
    let mut vm = polyvm::Vm::new(prog);
    if let Some(c) = trace {
        // Opcode telemetry is plain-u64 counting at `Timing`, plus sampled
        // dispatch timing at `Trace`; `Off`/`Counters` never arm it.
        if c.timing() {
            vm.enable_opcode_telemetry(c.tracing());
        }
    }
    let deadline_hit = match vm.run(&[], &mut prof) {
        Ok(_) => false,
        // The budget watchdog asked for a graceful stop: fold the
        // partial-but-valid trace observed so far.
        Err(polyvm::VmError::Aborted) => true,
        Err(e) => {
            return Err(PolyProfError::Vm {
                stage: "pass-2",
                msg: e.to_string(),
            })
        }
    };
    let pruned = PrunedEvents {
        reg: prof.pruned_events,
        mem: prof.pruned_mem_events,
    };
    let (dyn_ops, mem_events, arena_bytes) = (prof.dyn_ops, prof.mem_events, prof.arena_bytes());
    let (mut out, interner, mem) = prof.into_parts();
    // The pruned statements' access/dep keys never appear dynamically, so
    // appending their synthesized streams after the trace keeps every
    // per-key stream in serial order. A deadline-aborted trace is partial:
    // synthesizing full streams would invent events the run never reached.
    if let Some(sy) = &cfg.synth {
        if !deadline_hit {
            sy.synthesize(&interner, &cfg.ddg, &mut out);
        }
    }
    let driven = Driven {
        interner,
        pruned,
        deadline_hit,
        dyn_ops,
        mem_events,
        arena_bytes,
        opcodes: vm.take_opcode_telemetry(),
    };
    Ok((out, mem, driven))
}

/// One pass-2 attempt's output before finalization: the fold shards (one
/// for the inline executor; `None` where a worker died) plus everything the
/// run harvests and accounts from it.
struct Attempt {
    shards: Vec<Option<FoldingSink>>,
    run: Driven,
    shadow: ShadowResolver,
    rec: Option<WriteStats>,
    /// Channel-side tallies; `None` for the inline executor.
    pipe: Option<PipeTally>,
}

/// Channel-side tallies of a pipelined attempt.
struct PipeTally {
    emitted: ChunkStats,
    routed: ChunkStats,
    resolved: u64,
    /// Receive stalls summed over the resolver and every worker.
    recv_stall_ns: u64,
    recv_threads: u64,
    malformed: u64,
    /// `(shard, error)` for workers that died without emitting a sink.
    lost_workers: Vec<(usize, String)>,
}

/// Harvest the count-domain telemetry of the attempt whose output the run
/// returns — the only place pass-2 counters reach the collector.
fn harvest(c: &Collector, a: &Attempt) {
    let r = &a.run;
    if let Some(t) = &r.opcodes {
        t.harvest(c);
    }
    c.add(Counter::DynOps, r.dyn_ops);
    c.add(Counter::MemEvents, r.mem_events);
    c.add(Counter::PrunedEvents, r.pruned.reg);
    c.add(Counter::PrunedMemEvents, r.pruned.mem);
    let (hits, misses) = r.interner.cache_stats();
    c.add(Counter::CtxCacheHit, hits);
    c.add(Counter::CtxCacheMiss, misses);
    let (hits, misses) = a.shadow.mru_stats();
    c.add(Counter::ShadowMruHit, hits);
    c.add(Counter::ShadowMruMiss, misses);
    c.add(Counter::ShadowPages, a.shadow.resident_pages() as u64);
    c.add(Counter::ArenaBytes, r.arena_bytes as u64);
    if let Some(p) = &a.pipe {
        ChunkWriter::harvest(&p.emitted, c, Counter::EventsEmitted);
        ChunkWriter::harvest(&p.routed, c, Counter::EventsRouted);
        c.add(Counter::EventsResolved, p.resolved);
        c.add(Counter::RecvStallNs, p.recv_stall_ns);
        c.add(Counter::RecvStallThreads, p.recv_threads);
    }
    harvest_folds(c, &a.shards, a.pipe.is_some());
    if let Some(w) = &a.rec {
        c.add(Counter::RecFramesWritten, w.frames);
        c.add(Counter::RecBytesWritten, w.bytes);
    }
}

/// Fold-side counters of a set of shards; `per_shard` also registers each
/// present shard's event count (shard balance needs every slot).
pub(crate) fn harvest_folds(c: &Collector, shards: &[Option<FoldingSink>], per_shard: bool) {
    let mut total = FoldStats::default();
    for (k, sink) in shards.iter().enumerate() {
        if let Some(sink) = sink {
            let fs = sink.fold_stats();
            if per_shard {
                c.record_shard_events(k, fs.events_folded);
            }
            total.merge(&fs);
        }
    }
    c.add(Counter::EventsFolded, total.events_folded);
    c.add(Counter::DepsFolded, total.deps_folded);
    c.add(Counter::ChunksFolded, total.chunks_folded);
}

/// The inline executor: shadow memory and folding on the calling thread,
/// optionally tapped by a recorder.
fn fold_inline(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    record: Option<&Path>,
    trace: Option<&Arc<Collector>>,
) -> Result<Attempt, PolyProfError> {
    let mut sink = FoldingSink::with_options(cfg.options);
    if let Some(b) = &cfg.budget {
        sink.set_budget(Arc::clone(b));
    }
    let (sink, shadow, run, rec) = match record {
        Some(path) => {
            let chunk_events = cfg.chunk_events.max(1);
            let writer = TraceWriter::create(path, prog, chunk_events)?;
            let tap = Recorder::new(writer, chunk_events, sink);
            let (tap, shadow, run) =
                drive::<_, ShadowResolver>(prog, structure, tap, cfg, None, trace)?;
            let (sink, stats) = tap.finish(&run.interner)?;
            (sink, shadow, run, Some(stats))
        }
        None => {
            let (sink, shadow, run) = drive(prog, structure, sink, cfg, None, trace)?;
            (sink, shadow, run, None)
        }
    };
    Ok(Attempt {
        shards: vec![Some(sink)],
        run,
        shadow,
        rec,
        pipe: None,
    })
}

/// Retry failed pipeline attempts with linear backoff; once the retries
/// run out, fall back to the inline executor.
fn supervise(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
    deg: &mut RunDegradation,
) -> Result<Attempt, PolyProfError> {
    let mut attempt_no: u32 = 0;
    loop {
        match fold_attempt(prog, structure, cfg, trace) {
            Ok(a) => return Ok(a),
            Err(e) if attempt_no < cfg.max_retries => {
                attempt_no += 1;
                deg.stage_retries += 1;
                deg.note(
                    "supervisor",
                    format!("attempt {attempt_no} failed ({e}); retrying"),
                );
                if let Some(c) = trace {
                    c.add(Counter::StageRetries, 1);
                    c.timeline_instant("stage-retry", TID_DRIVER, attempt_no as u64, 0);
                }
                let _span = trace.map(|c| c.span(Stage::Recovery));
                std::thread::sleep(cfg.backoff * attempt_no);
                // The budget is shared across attempts; give the retry the
                // full deadline from *its* start instead of the stale (often
                // already-expired) instant the failed attempt armed.
                if let Some(b) = &cfg.budget {
                    b.rearm();
                }
            }
            Err(e) => {
                deg.note(
                    "supervisor",
                    format!("pipeline abandoned after {attempt_no} retries ({e}); serial fallback"),
                );
                break;
            }
        }
    }
    deg.fell_back_serial = true;
    if let Some(path) = &cfg.record_to {
        deg.note(
            "record",
            format!("serial fallback skipped recording to {}", path.display()),
        );
    }
    if let Some(c) = trace {
        c.add(Counter::SerialFallbacks, 1);
        c.timeline_instant("serial-fallback", TID_DRIVER, attempt_no as u64, 0);
    }
    let _span = trace.map(|c| c.span(Stage::Recovery));
    fold_inline(prog, structure, cfg, None, trace)
}

/// Run a stage body under `catch_unwind`, turning a panic into a structured
/// [`PolyProfError::StagePanic`] so no stage can poison the scope.
fn stage<T>(
    name: &'static str,
    body: impl FnOnce() -> Result<T, PolyProfError>,
) -> Result<T, PolyProfError> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|p| {
        Err(PolyProfError::StagePanic {
            stage: name,
            msg: panic_msg(&*p),
        })
    })
}

/// One timed (or plain) bounded-channel receive; `None` on disconnect.
/// With a histogram attached, each individual stall also lands in it
/// (feeding the p50/p99 recv-stall distribution; the sum feeds the counter).
#[inline]
fn recv_timed(
    rx: &Receiver<EventChunk>,
    timing: bool,
    stall_ns: &mut u64,
    hist: &mut Histogram,
) -> Option<EventChunk> {
    if timing {
        let t0 = Instant::now();
        let r = rx.recv().ok();
        let dt = t0.elapsed().as_nanos() as u64;
        *stall_ns += dt;
        hist.record(dt);
        r
    } else {
        rx.recv().ok()
    }
}

/// The resolver's chunk loop, generic over the resolved-event sink so the
/// recording tap composes without touching the non-recording hot path.
/// Returns `(resolved mem events, recv-stall ns)`.
#[allow(clippy::too_many_arguments)]
fn resolve_loop<S: FoldSink>(
    pre_rx: &Receiver<EventChunk>,
    pre_pool_tx: &SyncSender<EventChunk>,
    trace: Option<&Arc<Collector>>,
    faults: Option<&Arc<FaultPlan>>,
    stall_hist: &mut Histogram,
    mut journal: Option<&mut Journal>,
    shadow: &mut ShadowResolver,
    sink: &mut S,
) -> (u64, u64) {
    let timing = trace.is_some_and(|c| c.timing());
    let mut resolved = 0u64;
    let mut recv_stall = 0u64;
    let mut seq = 0u64;
    while let Some(mut chunk) = recv_timed(pre_rx, timing, &mut recv_stall, stall_hist) {
        let opened = journal
            .as_deref_mut()
            .is_some_and(|j| j.begin("resolve-chunk", 0, seq));
        if let Some(c) = trace {
            c.queue_recv(0);
        }
        if let Some(p) = faults {
            if p.should_fire(FaultSite::PanicResolve) {
                panic!("injected fault: shadow-resolver panic");
            }
        }
        for ev in chunk.events() {
            match ev {
                EventRef::Point {
                    stmt,
                    coords,
                    value,
                } => sink.instr_point(stmt, coords, value),
                EventRef::Dep {
                    kind,
                    src,
                    src_coords,
                    dst,
                    dst_coords,
                } => sink.dependence(kind, src, src_coords, dst, dst_coords),
                EventRef::Access {
                    stmt,
                    coords,
                    addr,
                    is_write,
                } => sink.mem_access(stmt, coords, addr, is_write),
                EventRef::MemPre {
                    stmt,
                    coords,
                    addr,
                    is_write,
                } => {
                    resolved += 1;
                    shadow.resolve(stmt, coords, addr, is_write, sink);
                }
            }
        }
        chunk.clear();
        // Recycling never blocks: a full pool just drops the chunk.
        let _ = pre_pool_tx.try_send(chunk);
        if let Some(j) = journal.as_deref_mut() {
            j.end(opened, "resolve-chunk", 0, seq);
        }
        seq += 1;
    }
    (resolved, recv_stall)
}

/// What one fold worker hands back: its sink plus its malformed-chunk and
/// receive-stall tallies.
pub(crate) struct Shard {
    pub(crate) sink: FoldingSink,
    malformed: u64,
    recv_stall_ns: u64,
}

/// Join handles of the fold workers spawned by [`spawn_fold_workers`].
pub(crate) type Workers<'scope> = Vec<ScopedJoinHandle<'scope, Result<Shard, PolyProfError>>>;

/// The shard edge and the fold-worker stage, spawned into scope `s`: one
/// bounded channel and one [`FoldingSink`] worker per shard (`cfg`'s K, at
/// least one), behind the returned [`ShardRouter`]. Workers fold whole
/// chunks until the router is finished (or dropped). The live pipeline
/// feeds the router from its resolver, offline replay from a recording.
pub(crate) fn spawn_fold_workers<'scope>(
    s: &'scope Scope<'scope, '_>,
    cfg: &'scope PipelineConfig,
    trace: Option<&'scope Arc<Collector>>,
) -> (ShardRouter, Workers<'scope>) {
    let k = cfg.fold_threads.max(1);
    let queue = cfg.queue_chunks.max(1);
    let mut writers = Vec::with_capacity(k);
    let mut workers = Vec::with_capacity(k);
    for shard in 0..k {
        let (tx, rx) = sync_channel::<EventChunk>(queue);
        let (pool_tx, pool_rx) = sync_channel::<EventChunk>(queue + 2);
        writers.push(ChunkWriter::new(cfg.chunk_events.max(1), tx, pool_rx));
        workers
            .push(s.spawn(move || stage("fold", || fold_worker(shard, rx, pool_tx, cfg, trace))));
    }
    let mut router = ShardRouter::new(writers);
    if let Some(c) = trace {
        router.set_trace(c);
    }
    if let Some(p) = &cfg.faults {
        router.set_faults(p);
    }
    (router, workers)
}

/// One fold worker's loop: fold every chunk of shard `shard` until its
/// channel disconnects.
fn fold_worker(
    shard: usize,
    rx: Receiver<EventChunk>,
    pool_tx: SyncSender<EventChunk>,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
) -> Result<Shard, PolyProfError> {
    let _span = trace.map(|c| c.shard_span(shard));
    let timing = trace.is_some_and(|c| c.timing());
    let mut fold_hist = Histogram::new();
    let mut stall_hist = Histogram::new();
    let mut journal = trace.and_then(|c| c.new_journal(tid_shard(shard)));
    let mut seq = 0u64;
    let mut sink = FoldingSink::with_options(cfg.options);
    if let Some(b) = &cfg.budget {
        sink.set_budget(Arc::clone(b));
    }
    let mut malformed = 0u64;
    let mut recv_stall = 0u64;
    let mut scratch = ChunkScratch::default();
    while let Some(mut chunk) = recv_timed(&rx, timing, &mut recv_stall, &mut stall_hist) {
        if let Some(c) = trace {
            c.queue_recv(1 + shard);
        }
        if let Some(p) = &cfg.faults {
            if p.should_fire(FaultSite::PanicFold) {
                panic!("injected fault: folding worker panic (shard {shard})");
            }
            // Validation runs only under an armed plan: production chunks
            // come from our own writer and the check would tax the hot path.
            if chunk.validate().is_err() {
                malformed += 1;
                chunk.clear();
                let _ = pool_tx.try_send(chunk);
                continue;
            }
        }
        let opened = journal
            .as_mut()
            .is_some_and(|j| j.begin("fold-chunk", shard as u64, seq));
        let t0 = timing.then(Instant::now);
        sink.fold_chunk(&chunk, &mut scratch);
        if let Some(t0) = t0 {
            fold_hist.record(t0.elapsed().as_nanos() as u64);
        }
        if let Some(j) = journal.as_mut() {
            j.end(opened, "fold-chunk", shard as u64, seq);
        }
        seq += 1;
        chunk.clear();
        let _ = pool_tx.try_send(chunk);
    }
    if let Some(c) = trace {
        c.merge_hist(HistKind::FoldChunkNs, &fold_hist);
        c.merge_hist(HistKind::RecvStallNs, &stall_hist);
        if let Some(j) = journal {
            c.submit_journal(j);
        }
    }
    Ok(Shard {
        sink,
        malformed,
        recv_stall_ns: recv_stall,
    })
}

/// Join the fold workers: per shard its output or the error it died with.
pub(crate) fn join_workers(workers: Workers<'_>) -> Vec<Result<Shard, PolyProfError>> {
    workers
        .into_iter()
        .map(|h| h.join().expect("supervised stage never panics"))
        .collect()
}

/// One supervised pipeline attempt. A producer/resolver error — or the loss
/// of every folding worker — fails the attempt; losing *some* workers only
/// punches holes in the shards.
///
/// With `record_to` set, the resolver taps its resolved stream through a
/// [`Recorder`]; the footer (which needs the producer's interner) is
/// written after the stage threads join, so a failed attempt leaves a
/// detectably unfinished recording behind.
fn fold_attempt(
    prog: &Program,
    structure: &StaticStructure,
    cfg: &PipelineConfig,
    trace: Option<&Arc<Collector>>,
) -> Result<Attempt, PolyProfError> {
    let chunk_events = cfg.chunk_events.max(1);
    let queue = cfg.queue_chunks.max(1);
    let faults = cfg.faults.as_ref();

    let (prod, res, work) = std::thread::scope(|s| {
        // Stage 1 → stage 2 edge.
        let (pre_tx, pre_rx) = sync_channel::<EventChunk>(queue);
        let (pre_pool_tx, pre_pool_rx) = sync_channel::<EventChunk>(queue + 2);
        // Stage 2 → stage 3 edges and the fold workers.
        let (router, workers) = spawn_fold_workers(s, cfg, trace);

        let producer = s.spawn(move || {
            stage("pre", || {
                let _span = trace.map(|c| c.pipe_span(PipeStage::PreProfile));
                let mut writer = ChunkWriter::new(chunk_events, pre_tx, pre_pool_rx);
                if let Some(c) = trace {
                    writer.set_trace(Arc::clone(c), 0);
                }
                let (writer, _, run) =
                    drive::<_, Deferred>(prog, structure, writer, cfg, faults, trace)?;
                Ok((run, writer.finish()))
            })
        });

        let resolver = s.spawn(move || {
            stage("resolve", || {
                let _span = trace.map(|c| c.pipe_span(PipeStage::ShadowResolve));
                let mut stall_hist = Histogram::new();
                let mut journal = trace.and_then(|c| c.new_journal(TID_RESOLVE));
                let mut shadow = ShadowResolver::new(cfg.ddg);
                if let Some(p) = faults {
                    shadow.set_faults(Arc::clone(p));
                }
                if let Some(b) = &cfg.budget {
                    shadow.set_budget(Arc::clone(b));
                }
                // Two monomorphized calls rather than a `dyn` sink: the
                // non-recording hot path stays statically dispatched.
                let (routed, (resolved, recv_stall), rec) = match &cfg.record_to {
                    Some(path) => {
                        let writer = TraceWriter::create(path, prog, chunk_events)?;
                        let mut tap = Recorder::new(writer, chunk_events, router);
                        let counts = resolve_loop(
                            &pre_rx,
                            &pre_pool_tx,
                            trace,
                            faults,
                            &mut stall_hist,
                            journal.as_mut(),
                            &mut shadow,
                            &mut tap,
                        );
                        let (router, writer) = tap.into_writer()?;
                        (router.finish(), counts, Some(writer))
                    }
                    None => {
                        let mut router = router;
                        let counts = resolve_loop(
                            &pre_rx,
                            &pre_pool_tx,
                            trace,
                            faults,
                            &mut stall_hist,
                            journal.as_mut(),
                            &mut shadow,
                            &mut router,
                        );
                        (router.finish(), counts, None)
                    }
                };
                if let Some(c) = trace {
                    c.merge_hist(HistKind::RecvStallNs, &stall_hist);
                    if let Some(j) = journal {
                        c.submit_journal(j);
                    }
                }
                Ok((shadow, routed, resolved, recv_stall, rec))
            })
        });

        let prod = producer.join().expect("supervised stage never panics");
        let res = resolver.join().expect("supervised stage never panics");
        (prod, res, join_workers(workers))
    });

    // Producer/resolver failures are unrecoverable within the attempt: the
    // event stream itself is incomplete in a way no shard merge can repair.
    let (mut run, emitted) = prod?;
    let (shadow, routed, resolved, recv_stall, rec_writer) = res?;

    // The recording's footer needs the interner (statement table), which
    // only exists once the producer has joined — write it now. A failure
    // here fails the attempt: a footer-less recording is useless.
    let rec = match rec_writer {
        Some(writer) => Some(writer.finish(&run.interner)?),
        None => None,
    };

    let mut pipe = PipeTally {
        emitted,
        routed,
        resolved,
        recv_stall_ns: recv_stall,
        recv_threads: 1,
        malformed: 0,
        lost_workers: Vec::new(),
    };
    let mut shards = Vec::with_capacity(work.len());
    for (k, r) in work.into_iter().enumerate() {
        match r {
            Ok(w) => {
                pipe.malformed += w.malformed;
                pipe.recv_stall_ns += w.recv_stall_ns;
                pipe.recv_threads += 1;
                shards.push(Some(w.sink));
            }
            Err(e) => {
                pipe.lost_workers.push((k, e.to_string()));
                shards.push(None);
            }
        }
    }
    if shards.iter().all(Option::is_none) {
        let (_, msg) = pipe.lost_workers.pop().expect("k >= 1");
        return Err(PolyProfError::StagePanic { stage: "fold", msg });
    }
    run.arena_bytes += shadow.arena_bytes();
    Ok(Attempt {
        shards,
        run,
        shadow,
        rec,
        pipe: Some(pipe),
    })
}

/// Finalize every present shard in parallel (the vendored rayon stand-in has
/// no owned `into_par_iter`, hence the one-element-chunk option dance), then
/// merge deterministically; absent shards are reported back by index.
pub(crate) fn finalize_shards_tolerant(
    shards: Vec<Option<FoldingSink>>,
    prog: &Program,
    interner: &ContextInterner,
) -> (FoldedDdg, Vec<usize>) {
    use rayon::prelude::*;
    let mut slots = shards;
    let mut parts: Vec<Option<FoldedDdg>> =
        std::iter::repeat_with(|| None).take(slots.len()).collect();
    slots
        .par_chunks_mut(1)
        .zip(parts.par_chunks_mut(1))
        .for_each(|(slot, part)| {
            if let Some(sink) = slot[0].take() {
                part[0] = Some(sink.finalize(prog, interner));
            }
        });
    FoldedDdg::merge_parts_tolerant(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold_program;
    use polyir::build::ProgramBuilder;

    fn stencil_prog() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let base = pb.alloc(64);
        let mut f = pb.func("main", 0);
        f.for_loop("T", 0i64, 3i64, 1, |f, _t| {
            f.for_loop("L", 1i64, 30i64, 1, |f, i| {
                let prev = f.load(base as i64, i);
                let im1 = f.add(i, -1i64);
                let left = f.load(base as i64, im1);
                let v = f.add(prev, left);
                f.store(base as i64, i, v);
            });
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        pb.finish()
    }

    fn tiny_cfg(k: usize) -> PipelineConfig {
        PipelineConfig {
            fold_threads: k,
            chunk_events: 16, // tiny chunks: exercise flush boundaries
            ..Default::default()
        }
    }

    fn structure_of(p: &Program) -> StaticStructure {
        let mut rec = polycfg::StructureRecorder::new();
        polyvm::Vm::new(p).run(&[], &mut rec).unwrap();
        StaticStructure::analyze(p, rec)
    }

    fn supervised(p: &Program, cfg: &PipelineConfig) -> (FoldedDdg, RunDegradation) {
        let (ddg, _, _, deg) = fold(p, &structure_of(p), cfg, None).unwrap();
        (ddg, deg)
    }

    fn with_faults(plan: FaultPlan, k: usize) -> PipelineConfig {
        PipelineConfig {
            faults: Some(Arc::new(plan)),
            ..tiny_cfg(k)
        }
    }

    /// Smallest possible end-to-end check: shard counts and chunk sizes must
    /// not change any folded fact (the full byte-compare lives in
    /// tests/sharded.rs).
    #[test]
    fn pipelined_matches_serial_counts() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        for k in [1usize, 3] {
            let (piped, _) = supervised(&p, &tiny_cfg(k));
            assert_eq!(piped.total_ops, serial.total_ops, "k={k}");
            assert_eq!(piped.n_stmts(), serial.n_stmts(), "k={k}");
            assert_eq!(piped.deps.len(), serial.deps.len(), "k={k}");
            assert_eq!(piped.accesses.len(), serial.accesses.len(), "k={k}");
            let aff_s = serial.affine_fraction();
            let aff_p = piped.affine_fraction();
            assert!((aff_s - aff_p).abs() < 1e-12, "k={k}");
        }
    }

    /// A panic inside a stage must reach the caller with its payload.
    #[test]
    fn stage_panic_propagates() {
        let p = stencil_prog();
        let res = std::panic::catch_unwind(|| {
            let cfg = PipelineConfig {
                fold_threads: 1,
                chunk_events: 0, // clamped to 1 — still valid
                ..Default::default()
            };
            // Sanity: a valid run inside catch_unwind works.
            let _ = supervised(&p, &cfg);
            panic!("deliberate: payload must survive");
        });
        let payload = res.expect_err("panic expected");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("deliberate"), "payload lost");
    }

    /// With no faults and no budget, the supervised pipeline must reproduce
    /// the inline fold exactly — the hooks are zero-cost `None` branches.
    #[test]
    fn supervised_fault_free_matches_plain() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let (ddg, deg) = supervised(&p, &tiny_cfg(2));
        assert!(!deg.is_degraded(), "{deg:?}");
        assert_eq!(ddg.total_ops, serial.total_ops);
        assert_eq!(ddg.n_stmts(), serial.n_stmts());
        assert_eq!(ddg.deps.len(), serial.deps.len());
        assert_eq!(ddg.accesses.len(), serial.accesses.len());
    }

    /// A one-shot resolver panic fails the first attempt; the retry probes
    /// past the armed occurrence and completes with full-fidelity output.
    #[test]
    fn one_shot_resolve_panic_retries_to_full_result() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let cfg = with_faults(FaultPlan::single(FaultSite::PanicResolve, 1), 2);
        let (ddg, deg) = supervised(&p, &cfg);
        assert_eq!(deg.stage_retries, 1, "{deg:?}");
        assert!(!deg.fell_back_serial);
        assert!(deg.faults_injected >= 1);
        assert_eq!(ddg.total_ops, serial.total_ops, "retry must be lossless");
        assert_eq!(ddg.deps.len(), serial.deps.len());
    }

    /// A folding-worker panic only loses its shard: the run completes with
    /// the surviving shards and records the hole.
    #[test]
    fn fold_worker_panic_yields_partial_result() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let cfg = with_faults(FaultPlan::single(FaultSite::PanicFold, 1), 3);
        let (ddg, deg) = supervised(&p, &cfg);
        assert_eq!(deg.stage_retries, 0, "worker loss is salvaged, not retried");
        assert_eq!(deg.missing_shards.len(), 1, "{deg:?}");
        assert!(deg.is_degraded());
        assert!(
            ddg.n_stmts() <= serial.n_stmts(),
            "partial result never invents statements"
        );
    }

    /// An every-occurrence panic defeats retry and forces the serial
    /// fallback — which, being fault-free, produces the full exact result.
    #[test]
    fn persistent_panic_falls_back_serial() {
        let p = stencil_prog();
        let (serial, _, _) = fold_program(&p);
        let cfg = PipelineConfig {
            max_retries: 1,
            backoff: Duration::from_millis(1),
            ..with_faults(FaultPlan::always(FaultSite::PanicResolve), 2)
        };
        let (ddg, deg) = supervised(&p, &cfg);
        assert!(deg.fell_back_serial, "{deg:?}");
        assert_eq!(deg.stage_retries, 1);
        assert_eq!(ddg.total_ops, serial.total_ops, "fallback is lossless");
        assert_eq!(ddg.deps.len(), serial.deps.len());
        assert_eq!(ddg.n_stmts(), serial.n_stmts());
    }

    /// A dropped chunk completes the run and is accounted for.
    #[test]
    fn dropped_chunk_completes_with_degradation() {
        let p = stencil_prog();
        let cfg = with_faults(FaultPlan::single(FaultSite::DropSend, 1), 2);
        let (_, deg) = supervised(&p, &cfg);
        assert!(deg.dropped_chunks >= 1, "{deg:?}");
        assert!(deg.is_degraded());
    }

    /// A corrupted chunk is caught by validation, skipped, and counted —
    /// never replayed into a folder.
    #[test]
    fn malformed_chunk_rejected_and_counted() {
        let p = stencil_prog();
        let cfg = with_faults(FaultPlan::single(FaultSite::MalformedChunk, 1), 2);
        let (_, deg) = supervised(&p, &cfg);
        assert_eq!(deg.malformed_chunks, 1, "{deg:?}");
        assert!(deg.is_degraded());
    }

    /// A refused shadow-page allocation skips that access's dependences but
    /// the run completes with the loss accounted.
    #[test]
    fn shadow_alloc_fault_counted_as_unresolved() {
        let p = stencil_prog();
        let cfg = with_faults(FaultPlan::single(FaultSite::AllocShadow, 1), 2);
        let (_, deg) = supervised(&p, &cfg);
        assert_eq!(deg.shadow_alloc_failures, 1, "{deg:?}");
        assert!(deg.unresolved_accesses >= 1, "{deg:?}");
    }
}
