//! The traced run of the batch workloads: a cumulative layer ladder timed
//! from outside the program.
//!
//! The hot-loop layers run inside one VM callback loop, so their self time
//! is the difference between cumulative rungs, each a whole VM run:
//!
//! 1. `Vm::run(NullSink)` — `polyvm`;
//! 2. [`IivSink`]: `polycfg::LoopEventGen` → `polyiiv::IivTracker` →
//!    `ContextInterner` — adds `polyiiv`;
//! 3. `DdgProfiler` into [`NullFold`] — adds `polyddg` (shadow memory and
//!    dependence emission);
//! 4. `DdgProfiler` into `FoldingSink` — adds the `polyfold` fold. This rung
//!    is pass 2 of the stage-by-stage path.
//!
//! The stage-by-stage path repeats what `try_profile_with` does on its
//! serial (or replay) branch, one public call per span: pass 1, loop-forest
//! analysis, pass 2, finalize, SCEV removal and scheduling, feedback and
//! rendering, the static baseline. Its canonical DDG must match the stored
//! digest, which shows the ladder measures the same work as the untraced
//! `try_profile_with` call timed beside it.
//!
//! `core.unattributed_frac` is that untraced wall minus the path's stage
//! spans, over the untraced wall; `trace.overhead_frac` is the path's own
//! wall minus the untraced wall, over the untraced wall.

use crate::check::{check_canonical, check_report, Failure, Tally};
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use crate::workloads::{bare_vm, profile, setup, suite_orders, Batch, Named, Prepared, REPLAY_K};
use crate::{Ctx, Metric, Outcome};
use polyprof_core::polycfg::{LoopEvent, LoopEventGen, StaticStructure, StructureRecorder};
use polyprof_core::polyddg::chunk::{ChunkWriter, EventChunk};
use polyprof_core::polyddg::pipeline::ShardRouter;
use polyprof_core::polyddg::{DdgProfiler, DepKind, FoldSink};
use polyprof_core::polyfold::{ChunkScratch, FoldOptions, FoldedDdg, FoldingSink};
use polyprof_core::polyiiv::context::{ContextInterner, CtxPathId, StmtId};
use polyprof_core::polyiiv::IivTracker;
use polyprof_core::polyir::{BlockRef, FuncId, InstrRef, Program, Value};
use polyprof_core::polyrec::TraceReader;
use polyprof_core::polytrace::{Collector, MetricsLevel};
use polyprof_core::polyvm::{EventSink, Vm};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

/// Rung 2: loop events, the dynamic IIV and context interning — the part of
/// `DdgProfiler`'s per-event work that precedes shadow memory, including its
/// direct-mapped statement cache in front of `ContextInterner::stmt`.
struct IivSink<'s> {
    gen: LoopEventGen<'s>,
    iiv: IivTracker,
    interner: ContextInterner,
    buf: Vec<LoopEvent>,
    coords: Vec<i64>,
    dirty: bool,
    cache: [Option<(CtxPathId, InstrRef, StmtId)>; 64],
    sink: u64,
}

impl<'s> IivSink<'s> {
    fn new(prog: &Program, structure: &'s StaticStructure) -> Result<Self, String> {
        let f = prog.entry.ok_or("program has no entry")?;
        let entry = BlockRef {
            func: f,
            block: prog.func(f).entry(),
        };
        Ok(IivSink {
            gen: LoopEventGen::new(structure),
            iiv: IivTracker::new(entry),
            interner: ContextInterner::new(),
            buf: Vec::with_capacity(8),
            coords: Vec::with_capacity(8),
            dirty: true,
            cache: [None; 64],
            sink: 0,
        })
    }

    fn drain(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        for ev in self.buf.drain(..) {
            self.iiv.apply(&ev);
        }
        self.dirty = true;
    }

    fn touch(&mut self, instr: InstrRef) {
        let path = self.interner.current_path(&self.iiv);
        let slot = (instr.idx as usize
            ^ ((instr.block.block.0 as usize) << 2)
            ^ ((instr.block.func.0 as usize) << 5))
            & 63;
        let stmt = match self.cache[slot] {
            Some((p, i, s)) if p == path && i == instr => s,
            _ => {
                let s = self.interner.stmt(path, instr);
                self.cache[slot] = Some((path, instr, s));
                s
            }
        };
        if self.dirty {
            self.iiv.coords_into(&mut self.coords);
            self.dirty = false;
        }
        self.sink = self
            .sink
            .wrapping_add(u64::from(stmt.0) ^ self.coords.len() as u64);
    }
}

impl EventSink for IivSink<'_> {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.gen.on_jump(from, to, &mut self.buf);
        self.drain();
    }
    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.gen.on_call(callsite, callee, entry, &mut self.buf);
        self.drain();
    }
    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.gen.on_ret(from, to, &mut self.buf);
        self.drain();
    }
    fn exec(&mut self, instr: InstrRef, _value: Option<Value>) {
        self.touch(instr);
    }
    fn mem(&mut self, instr: InstrRef, _addr: u64, _is_write: bool) {
        self.touch(instr);
    }
}

/// Rung 3's fold sink: consumes the profiler's streams, counting
/// dependences.
#[derive(Default)]
struct NullFold {
    deps: u64,
}

impl FoldSink for NullFold {
    fn instr_point(&mut self, _stmt: StmtId, coords: &[i64], _value: Option<i64>) {
        black_box(coords);
    }
    fn mem_access(&mut self, _stmt: StmtId, coords: &[i64], _addr: u64, _is_write: bool) {
        black_box(coords);
    }
    fn dependence(&mut self, _k: DepKind, _s: StmtId, sc: &[i64], _d: StmtId, dc: &[i64]) {
        self.deps += 1;
        black_box((sc, dc));
    }
}

/// Per-op sums over the op's programs (nanoseconds unless named otherwise).
#[derive(Debug, Default, Clone)]
struct OpSums {
    dyn_ops: u64,
    untraced: u64,
    /// Wall of the stage-by-stage path (the traced op).
    path_wall: u64,
    /// Sum of the path's stage spans (the attributed layer time).
    stages: u64,
    vm: u64,
    pass1: u64,
    analyze: u64,
    rung2: u64,
    rung3: u64,
    pass2: u64,
    finalize: u64,
    sched: u64,
    feedback: u64,
    static_baseline: u64,
    decode: u64,
    fold_recording: u64,
    // Counts.
    ctx_hits: u64,
    ctx_lookups: u64,
    ctx_paths: u64,
    mem_events: u64,
    ddg_deps: u64,
    mru_hits: u64,
    mru_lookups: u64,
    shadow_pages: u64,
    affine_ops: f64,
    folded_ops: u64,
    stmts: u64,
    folded_deps: u64,
    decoded_events: u64,
    decoded_bytes: u64,
    shard_min: u64,
    shard_max: u64,
    send_stall: u64,
    recv_stall_mean: u64,
}

/// Time the back end of the stage-by-stage path on a finalized DDG: SCEV
/// removal and scheduling, feedback and rendering, the static baseline.
/// Returns the canonical text of the DDG after SCEV removal and the time
/// the three stages took.
#[allow(clippy::too_many_arguments)]
fn back_end(
    spans: &mut Spans,
    named: &Named,
    parent: SpanId,
    op: u64,
    mut ddg: FoldedDdg,
    interner: &ContextInterner,
    structure: &StaticStructure,
    sums: &mut OpSums,
) -> (String, u64) {
    let prog = &named.prog;
    let name = named.name;
    let before = sums.sched + sums.feedback + sums.static_baseline;
    let (analysis, s) = spans.time("polysched", name, Some(parent), op, || {
        ddg.remove_scevs();
        polyprof_core::polysched::Analysis::analyze(&ddg, interner)
    });
    sums.sched += spans.dur(s);
    let input = polyprof_core::polyfeedback::FeedbackInput {
        prog,
        ddg: &ddg,
        interner,
        structure,
        analysis: &analysis,
    };
    let (_, s) = spans.time("polyfeedback", name, Some(parent), op, || {
        let fb = polyprof_core::polyfeedback::metrics::compute(&input);
        black_box(polyprof_core::polyfeedback::full_report(&input, &fb));
        black_box(polyprof_core::polyfeedback::flamegraph_svg(
            &input, &prog.name,
        ));
        black_box(polyprof_core::polyfeedback::annotated_ast(&input));
        black_box(fb);
    });
    sums.feedback += spans.dur(s);
    let (_, s) = spans.time("polystatic", name, Some(parent), op, || {
        black_box(polyprof_core::polystatic::analyze_program(prog));
    });
    sums.static_baseline += spans.dur(s);
    let took = sums.sched + sums.feedback + sums.static_baseline - before;
    sums.affine_ops += ddg.affine_fraction() * ddg.total_ops as f64;
    sums.folded_ops += ddg.total_ops;
    sums.stmts += ddg.n_stmts() as u64;
    sums.folded_deps += ddg.deps.len() as u64;
    (ddg.canonical_text(), took)
}

/// Pass 1 as its own spans: the structure-recording VM run, then the
/// loop-forest analysis. Returns the structure and the time both took.
fn pass1(
    spans: &mut Spans,
    named: &Named,
    parent: SpanId,
    op: u64,
    sums: &mut OpSums,
) -> Result<(StaticStructure, u64), String> {
    let (rec, s) = spans.time("polycfg.pass1", named.name, Some(parent), op, || {
        let mut rec = StructureRecorder::new();
        Vm::new(&named.prog).run(&[], &mut rec).map(|_| rec)
    });
    let pass1_ns = spans.dur(s);
    sums.pass1 += pass1_ns;
    let rec = rec.map_err(|e| format!("pass 1 of {}: {e}", named.name))?;
    let (structure, s) = spans.time("polycfg.analyze", named.name, Some(parent), op, || {
        StaticStructure::analyze(&named.prog, rec)
    });
    sums.analyze += spans.dur(s);
    Ok((structure, pass1_ns + spans.dur(s)))
}

/// One program of a live (`rodinia`, `backprop_big`) traced op.
fn live_program(
    spans: &mut Spans,
    ctx: &Ctx,
    named: &Named,
    root: SpanId,
    op: u64,
    sums: &mut OpSums,
) -> Result<Result<(), Failure>, String> {
    let (prog, name) = (&named.prog, named.name);
    let pspan = spans.open("program", name, Some(root), op);
    // The untraced reference: the op as the end-to-end run times it.
    let cfg = polyprof_core::ProfileConfig::new().with_canonical(true);
    let (r, s) = spans.time("core.try_profile_with", name, Some(pspan), op, || {
        profile(prog, &cfg)
    });
    sums.untraced += spans.dur(s);
    let mut verdict = check_report(&ctx.expected, name, &r);
    drop(r);

    // Rung 1.
    let (bare, s) = spans.time("polyvm.run", name, Some(pspan), op, || bare_vm(prog));
    sums.dyn_ops += bare?.1;
    sums.vm += spans.dur(s);

    // The stage-by-stage path.
    let path = spans.open("path", name, Some(pspan), op);
    let (structure, mut stages) = pass1(spans, named, path, op, sums)?;
    let (pass2, s) = spans.time("polyfold.pass2", name, Some(path), op, || {
        let mut prof = DdgProfiler::new(
            prog,
            &structure,
            FoldingSink::with_options(FoldOptions::default()),
        );
        Vm::new(prog)
            .run(&[], &mut prof)
            .map_err(|e| format!("pass 2 of {name}: {e}"))?;
        Ok::<_, String>(prof.finish())
    });
    sums.pass2 += spans.dur(s);
    stages += spans.dur(s);
    let (sink, interner) = pass2?;
    let (ddg, s) = spans.time("polyfold.finalize", name, Some(path), op, || {
        sink.finalize(prog, &interner)
    });
    sums.finalize += spans.dur(s);
    stages += spans.dur(s);
    let (canonical, took) = back_end(spans, named, path, op, ddg, &interner, &structure, sums);
    spans.close(path);
    sums.path_wall += spans.dur(path);
    sums.stages += stages + took;
    // Executor agreement: the ladder's path must fold what the serial
    // executor folds.
    verdict = verdict.and(check_canonical(&ctx.expected, name, Some(&canonical)));

    // Rungs 2 and 3, on the path's pass-1 structure.
    let (rung2, s) = spans.time("polyiiv.rung", name, Some(pspan), op, || {
        let mut sink = IivSink::new(prog, &structure)?;
        Vm::new(prog)
            .run(&[], &mut sink)
            .map_err(|e| format!("rung 2 of {name}: {e}"))?;
        Ok::<_, String>(sink)
    });
    sums.rung2 += spans.dur(s);
    let sink = rung2?;
    black_box(sink.sink);
    let (hits, misses) = sink.interner.cache_stats();
    sums.ctx_hits += hits;
    sums.ctx_lookups += hits + misses;
    sums.ctx_paths += sink.interner.n_paths() as u64;

    let (rung3, s) = spans.time("polyddg.rung", name, Some(pspan), op, || {
        let mut prof = DdgProfiler::new(prog, &structure, NullFold::default());
        Vm::new(prog)
            .run(&[], &mut prof)
            .map_err(|e| format!("rung 3 of {name}: {e}"))?;
        Ok::<_, String>(prof)
    });
    sums.rung3 += spans.dur(s);
    let prof = rung3?;
    let (mru_hits, mru_misses) = prof.shadow_mru_stats();
    sums.mru_hits += mru_hits;
    sums.mru_lookups += mru_hits + mru_misses;
    sums.shadow_pages += prof.resident_shadow_pages() as u64;
    sums.mem_events += prof.mem_events;
    sums.ddg_deps += prof.sink().deps;
    spans.close(pspan);
    Ok(verdict)
}

/// A benchmark-owned copy of the K-shard replay (`polyfold::replay`), with
/// the send stalls the shard router reports and the receive stalls and
/// per-shard event counts measured around each worker. Returns the merged,
/// finalized DDG and the interner.
fn sharded_replay(
    spans: &mut Spans,
    named: &Named,
    path: &Path,
    parent: SpanId,
    op: u64,
    sums: &mut OpSums,
) -> Result<(FoldedDdg, ContextInterner), String> {
    let err = |e: polyprof_core::PolyProfError| format!("sharded replay of {}: {e}", named.name);
    let mut reader = TraceReader::open(path).map_err(err)?;
    let chunk_events = reader.meta().chunk_events.max(1) as usize;
    let collector = Arc::new(Collector::new(MetricsLevel::Timing));
    let (sinks, interner, send_stall, recv_stalls) = std::thread::scope(|s| {
        let mut writers = Vec::with_capacity(REPLAY_K);
        let mut ends = Vec::with_capacity(REPLAY_K);
        for _ in 0..REPLAY_K {
            let (tx, rx) = sync_channel::<EventChunk>(4);
            let (pool_tx, pool_rx) = sync_channel::<EventChunk>(6);
            writers.push(ChunkWriter::new(chunk_events, tx, pool_rx));
            ends.push((rx, pool_tx));
        }
        let mut router = ShardRouter::new(writers);
        router.set_trace(&collector);
        let workers: Vec<_> = ends
            .into_iter()
            .map(|(rx, pool_tx)| {
                s.spawn(move || {
                    let mut sink = FoldingSink::with_options(FoldOptions::default());
                    let mut scratch = ChunkScratch::default();
                    let mut stall = 0u64;
                    loop {
                        let t = Instant::now();
                        let Ok(mut chunk) = rx.recv() else { break };
                        stall += t.elapsed().as_nanos() as u64;
                        sink.fold_chunk(&chunk, &mut scratch);
                        chunk.clear();
                        let _ = pool_tx.try_send(chunk);
                    }
                    (sink, stall)
                })
            })
            .collect();
        let mut chunk = EventChunk::default();
        let fed = (|| {
            while reader.next_chunk(&mut chunk)? {
                chunk.replay_into(&mut router);
            }
            Ok(())
        })();
        let stats = router.finish();
        let mut sinks = Vec::with_capacity(REPLAY_K);
        let mut recv = Vec::with_capacity(REPLAY_K);
        for w in workers {
            let (sink, stall) = w.join().map_err(|_| "replay worker panicked".to_string())?;
            sinks.push(sink);
            recv.push(stall);
        }
        fed.map_err(err)?;
        let (interner, _) = reader.finish().map_err(err)?;
        Ok::<_, String>((sinks, interner, stats.send_stall_ns, recv))
    })?;
    let counts: Vec<u64> = sinks.iter().map(|s| s.fold_stats().events_folded).collect();
    sums.shard_min += counts.iter().copied().min().unwrap_or(0);
    sums.shard_max += counts.iter().copied().max().unwrap_or(0);
    sums.send_stall += send_stall;
    sums.recv_stall_mean += recv_stalls.iter().sum::<u64>() / REPLAY_K as u64;
    let (ddg, s) = spans.time("polyfold.finalize", named.name, Some(parent), op, || {
        let parts: Vec<FoldedDdg> = sinks
            .into_iter()
            .map(|s| s.finalize(&named.prog, &interner))
            .collect();
        FoldedDdg::merge_parts(parts)
    });
    sums.finalize += spans.dur(s);
    Ok((ddg, interner))
}

/// One `replay_k2` traced op.
fn replay_op(
    spans: &mut Spans,
    ctx: &Ctx,
    p: &Prepared,
    root: SpanId,
    op: u64,
    sums: &mut OpSums,
) -> Result<Result<(), Failure>, String> {
    let named = &p.progs[0];
    let (prog, name) = (&named.prog, named.name);
    let recording = p.recording.as_deref().ok_or("replay_k2 has no recording")?;
    let cfg = p.config();
    let (r, s) = spans.time("core.try_profile_with", name, Some(root), op, || {
        profile(prog, &cfg)
    });
    sums.untraced += spans.dur(s);
    let mut verdict = check_report(&ctx.expected, name, &r);
    drop(r);

    let (bare, s) = spans.time("polyvm.run", name, Some(root), op, || bare_vm(prog));
    sums.dyn_ops += bare?.1;
    sums.vm += spans.dur(s);

    // polyrec alone: decode every frame, fold nothing.
    let (decoded, s) = spans.time("polyrec.decode", name, Some(root), op, || {
        let mut reader = TraceReader::open(recording)?;
        let mut chunk = EventChunk::default();
        while reader.next_chunk(&mut chunk)? {
            black_box(chunk.len());
        }
        reader.finish().map(|(_, stats)| stats)
    });
    let stats = decoded.map_err(|e| format!("decoding {}: {e}", recording.display()))?;
    sums.decode += spans.dur(s);
    sums.decoded_events += stats.events;
    sums.decoded_bytes += stats.bytes;

    // The stage-by-stage path of the replay branch.
    let path = spans.open("path", name, Some(root), op);
    let (structure, pass1_ns) = pass1(spans, named, path, op, sums)?;
    let (folded, s) = spans.time("polyfold.fold_recording", name, Some(path), op, || {
        polyprof_core::polyfold::replay::fold_recording(
            recording,
            prog,
            REPLAY_K,
            FoldOptions::default(),
            None,
        )
    });
    let fold_ns = spans.dur(s);
    sums.fold_recording += fold_ns;
    let (ddg, interner) = folded.map_err(|e| format!("fold_recording: {e}"))?;
    let (canonical, took) = back_end(spans, named, path, op, ddg, &interner, &structure, sums);
    spans.close(path);
    sums.path_wall += spans.dur(path);
    sums.stages += pass1_ns + fold_ns + took;
    verdict = verdict.and(check_canonical(&ctx.expected, name, Some(&canonical)));

    // The instrumented K-shard copy: stalls, balance, finalize.
    let mspan = spans.open("polyfold.sharded_replay", name, Some(root), op);
    let (mut ddg, _interner) = sharded_replay(spans, named, recording, mspan, op, sums)?;
    spans.close(mspan);
    ddg.remove_scevs();
    verdict = verdict.and(check_canonical(
        &ctx.expected,
        name,
        Some(&ddg.canonical_text()),
    ));
    Ok(verdict)
}

/// The traced run of a batch workload: one set-up, then traced ops until
/// `ctx.seconds` have passed; per-layer metrics are medians over ops.
pub fn run_traced(batch: Batch, ctx: &Ctx, spans: &mut Spans) -> Result<Outcome, String> {
    let prepared = setup(batch, ctx)?;
    let mut orders = suite_orders(ctx.seed, prepared.progs.len());
    let mut tally = Tally::default();
    let mut ops: Vec<OpSums> = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let order = orders.next().expect("endless");
        let root = spans.open("op", "", None, op);
        let mut sums = OpSums::default();
        let mut verdict = Ok(());
        if batch == Batch::ReplayK2 {
            verdict = replay_op(spans, ctx, &prepared, root, op, &mut sums)?;
        } else {
            for &i in &order {
                let v = live_program(spans, ctx, &prepared.progs[i], root, op, &mut sums)?;
                verdict = verdict.and(v);
            }
        }
        spans.close(root);
        tally.record(verdict);
        ops.push(sums);
        op += 1;
    }
    Ok(Outcome {
        tally,
        metrics: with_zero_layers(layer_metrics(&ops)),
    })
}

/// Median over ops of `f`.
fn med(ops: &[OpSums], f: impl Fn(&OpSums) -> f64) -> f64 {
    median(&ops.iter().map(f).collect::<Vec<_>>())
}

/// `upper - lower` in nanoseconds, or 0 when the upper rung did not run on
/// this workload.
fn delta(upper: u64, lower: u64) -> f64 {
    if upper == 0 {
        0.0
    } else {
        upper as f64 - lower as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Every per-layer metric, in report order, with its unit.
pub const LAYERS: [(&str, &str); 33] = [
    ("polyvm.ns_per_op", "ns/op"),
    ("polyvm.dyn_ops", "count"),
    ("polycfg.pass1_ns_per_op", "ns/op"),
    ("polycfg.analyze_ms", "ms"),
    ("polyiiv.ns_per_op", "ns/op"),
    ("polyiiv.ctx_hit_ratio", "ratio"),
    ("polyiiv.ctx_paths", "count"),
    ("polyddg.ns_per_op", "ns/op"),
    ("polyddg.mem_events", "count"),
    ("polyddg.deps", "count"),
    ("polyddg.shadow_mru_hit_ratio", "ratio"),
    ("polyddg.shadow_pages", "count"),
    ("polyfold.fold_ns_per_op", "ns/op"),
    ("polyfold.affine_frac", "ratio"),
    ("polyfold.stmts", "count"),
    ("polyfold.deps", "count"),
    ("polyfold.replay_ms", "ms"),
    ("polyfold.shard_balance", "ratio"),
    ("polyfold.send_stall_ns_mean", "ns"),
    ("polyfold.recv_stall_ns_mean", "ns"),
    ("polyfold.finalize_ms", "ms"),
    ("polysched.ms", "ms"),
    ("polyfeedback.ms", "ms"),
    ("polystatic.baseline_ms", "ms"),
    ("polyrec.decode_ns_per_event", "ns/event"),
    ("polyrec.bytes_per_event", "B/event"),
    ("polyserve.admit_ms_p50", "ms"),
    ("polyserve.queue_wait_ms_p50", "ms"),
    ("polyserve.session_ms_p50", "ms"),
    ("polyserve.cache_hit_ratio", "ratio"),
    ("polyserve.shed", "count"),
    ("core.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The full per-layer list in [`LAYERS`] order: the measured values, and 0
/// for every layer the workload does not run or does not measure.
pub fn with_zero_layers(measured: Vec<Metric>) -> Vec<Metric> {
    let mut by_name: BTreeMap<&str, Metric> = measured.into_iter().map(|m| (m.name, m)).collect();
    let out: Vec<Metric> = LAYERS
        .iter()
        .map(|&(name, unit)| {
            by_name
                .remove(name)
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect();
    assert!(
        by_name.is_empty(),
        "metrics missing from LAYERS: {:?}",
        by_name.keys()
    );
    out
}

/// Per-layer metrics from the per-op sums. A layer the workload bypasses
/// reads 0.
fn layer_metrics(ops: &[OpSums]) -> Vec<Metric> {
    let per_op = |ns: fn(&OpSums) -> f64| {
        med(ops, move |o| {
            if o.dyn_ops == 0 {
                0.0
            } else {
                ns(o) / o.dyn_ops as f64
            }
        })
    };
    let ms = |ns: fn(&OpSums) -> u64| med(ops, move |o| ns(o) as f64 / 1e6);
    let last = ops.last().cloned().unwrap_or_default();
    let frac = |f: fn(&OpSums) -> (i128, u64)| {
        med(ops, move |o| {
            let (num, den) = f(o);
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        })
    };
    vec![
        Metric::new("polyvm.ns_per_op", per_op(|o| o.vm as f64), "ns/op"),
        Metric::new("polyvm.dyn_ops", last.dyn_ops as f64, "count"),
        Metric::new(
            "polycfg.pass1_ns_per_op",
            per_op(|o| delta(o.pass1, o.vm)),
            "ns/op",
        ),
        Metric::new("polycfg.analyze_ms", ms(|o| o.analyze), "ms"),
        Metric::new(
            "polyiiv.ns_per_op",
            per_op(|o| delta(o.rung2, o.vm)),
            "ns/op",
        ),
        Metric::new(
            "polyiiv.ctx_hit_ratio",
            ratio(last.ctx_hits, last.ctx_lookups),
            "ratio",
        ),
        Metric::new("polyiiv.ctx_paths", last.ctx_paths as f64, "count"),
        Metric::new(
            "polyddg.ns_per_op",
            per_op(|o| delta(o.rung3, o.rung2)),
            "ns/op",
        ),
        Metric::new("polyddg.mem_events", last.mem_events as f64, "count"),
        Metric::new("polyddg.deps", last.ddg_deps as f64, "count"),
        Metric::new(
            "polyddg.shadow_mru_hit_ratio",
            ratio(last.mru_hits, last.mru_lookups),
            "ratio",
        ),
        Metric::new("polyddg.shadow_pages", last.shadow_pages as f64, "count"),
        Metric::new(
            "polyfold.fold_ns_per_op",
            per_op(|o| delta(o.pass2, o.rung3)),
            "ns/op",
        ),
        Metric::new(
            "polyfold.affine_frac",
            if last.folded_ops == 0 {
                0.0
            } else {
                last.affine_ops / last.folded_ops as f64
            },
            "ratio",
        ),
        Metric::new("polyfold.stmts", last.stmts as f64, "count"),
        Metric::new("polyfold.deps", last.folded_deps as f64, "count"),
        Metric::new(
            "polyfold.replay_ms",
            med(ops, |o| delta(o.fold_recording, o.decode) / 1e6),
            "ms",
        ),
        Metric::new(
            "polyfold.shard_balance",
            ratio(last.shard_min, last.shard_max),
            "ratio",
        ),
        Metric::new(
            "polyfold.send_stall_ns_mean",
            med(ops, |o| o.send_stall as f64),
            "ns",
        ),
        Metric::new(
            "polyfold.recv_stall_ns_mean",
            med(ops, |o| o.recv_stall_mean as f64),
            "ns",
        ),
        Metric::new("polyfold.finalize_ms", ms(|o| o.finalize), "ms"),
        Metric::new("polysched.ms", ms(|o| o.sched), "ms"),
        Metric::new("polyfeedback.ms", ms(|o| o.feedback), "ms"),
        Metric::new("polystatic.baseline_ms", ms(|o| o.static_baseline), "ms"),
        Metric::new(
            "polyrec.decode_ns_per_event",
            med(ops, |o| ratio(o.decode, o.decoded_events)),
            "ns/event",
        ),
        Metric::new(
            "polyrec.bytes_per_event",
            ratio(last.decoded_bytes, last.decoded_events),
            "B/event",
        ),
        Metric::new(
            "core.unattributed_frac",
            frac(|o| (o.untraced as i128 - o.stages as i128, o.untraced)),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_frac",
            frac(|o| (o.path_wall as i128 - o.untraced as i128, o.untraced)),
            "ratio",
        ),
    ]
}
