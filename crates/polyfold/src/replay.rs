//! Offline re-folding of `.ptrace` recordings (capture/replay split).
//!
//! A recording holds the fully-resolved folding-interface stream, so replay
//! needs neither the VM nor the shadow resolver: [`fold_recording`] decodes
//! frames back into recycled [`EventChunk`]s and folds them — in line for
//! K ≤ 1, or through the live pipeline's own shard edge and fold-worker
//! stage for K > 1. Sharding is by folding key with per-key serial order
//! preserved, so the replayed [`FoldedDdg`] is byte-identical (see
//! [`FoldedDdg::canonical_text`]) to the live fold at *every* K — the
//! invariant the CI replay gate enforces.

use crate::pipeline::{harvest_folds, join_workers, spawn_fold_workers, PipelineConfig};
use crate::{ChunkScratch, FoldOptions, FoldedDdg, FoldingSink};
use polyddg::chunk::EventChunk;
use polyiiv::context::ContextInterner;
use polyir::Program;
use polyrec::{program_hash, ReadStats, TraceReader};
use polyresist::PolyProfError;
use polytrace::{Collector, Counter, Stage};
use std::path::Path;
use std::sync::Arc;

/// Fold a recording at `path` into a [`FoldedDdg`] using `fold_threads`
/// shards, without executing the program.
///
/// `prog` must be the program the recording was captured from: the header's
/// program hash is checked first (a mismatch is a structured error), and
/// finalization classifies SCEVs against the program's instructions.
pub fn fold_recording(
    path: &Path,
    prog: &Program,
    fold_threads: usize,
    options: FoldOptions,
    trace: Option<&Arc<Collector>>,
) -> Result<(FoldedDdg, ContextInterner), PolyProfError> {
    let _span = trace.map(|c| c.span(Stage::Profile));
    let mut reader = TraceReader::open(path)?;
    let want = program_hash(prog);
    let got = reader.meta().program_hash;
    if want != got {
        return Err(PolyProfError::Recording {
            path: path.display().to_string(),
            detail: format!(
                "program hash mismatch: recording was captured from {got:#018x}, \
                 replaying against {want:#018x} ({})",
                prog.name
            ),
        });
    }
    let k = fold_threads.max(1);
    let (sinks, interner, stats) = if k == 1 {
        let mut sink = FoldingSink::with_options(options);
        let mut scratch = ChunkScratch::default();
        let mut chunk = EventChunk::default();
        while reader.next_chunk(&mut chunk)? {
            sink.fold_chunk(&chunk, &mut scratch);
        }
        let (interner, stats) = reader.finish()?;
        (vec![Some(sink)], interner, stats)
    } else {
        fold_replay_sharded(reader, k, options)?
    };
    if let Some(c) = trace {
        c.add(Counter::RecFramesRead, stats.frames);
        c.add(Counter::RecBytesRead, stats.bytes);
        harvest_folds(c, &sinks, false);
    }
    let parts = sinks
        .into_iter()
        .flatten()
        .map(|s| s.finalize(prog, &interner))
        .collect::<Vec<_>>();
    Ok((FoldedDdg::merge_parts(parts), interner))
}

/// K > 1 replay: decode frames on the calling thread and route them by
/// folding key into the pipeline's K fold workers (the live pipeline's
/// stage-2 → stage-3 edge, minus the VM and resolver in front of it).
fn fold_replay_sharded<R: std::io::Read>(
    mut reader: TraceReader<R>,
    k: usize,
    options: FoldOptions,
) -> Result<(Vec<Option<FoldingSink>>, ContextInterner, ReadStats), PolyProfError> {
    // The live pipeline's batching and backpressure, at the recording's
    // chunk size.
    let cfg = PipelineConfig {
        fold_threads: k,
        chunk_events: reader.meta().chunk_events.max(1) as usize,
        options,
        ..Default::default()
    };
    let (fed, shards) = std::thread::scope(|s| {
        let (mut router, workers) = spawn_fold_workers(s, &cfg, None);
        let mut chunk = EventChunk::default();
        let fed = (|| {
            while reader.next_chunk(&mut chunk)? {
                // Recordings carry only resolved events, so replay_into
                // (which rejects MemPre) is safe by construction.
                chunk.replay_into(&mut router);
            }
            Ok::<_, PolyProfError>(())
        })();
        // Closing the shard channels lets the workers drain and exit.
        router.finish();
        (fed, join_workers(workers))
    });
    fed?;
    let sinks = shards
        .into_iter()
        .map(|r| r.map(|w| Some(w.sink)))
        .collect::<Result<Vec<_>, _>>()?;
    let (interner, stats) = reader.finish()?;
    Ok((sinks, interner, stats))
}
