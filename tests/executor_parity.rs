//! Executor parity: every way pass 2 can fold a trace must produce the same
//! folded DDG, byte for byte (`FoldedDdg::canonical_text`, before SCEV
//! removal, so SCEV statements and their chains are compared too).
//!
//! The executors are the inline fold, the staged pipeline at K ∈ {1, 2, 8},
//! offline replay of an inline recording at K ∈ {1, 2}, a supervised
//! pipeline run with a fault plan armed but never firing, and the inline
//! fold with the rational-only fit verifier (`FoldOptions::fast_fit`
//! off). The programs are the synthetic stencil, elementwise and
//! deep-nest (arena-spilling) kernels plus two Rodinia workloads.

mod common;

use common::{deep_nest, elementwise, stencil};
use polyprof_core::polyfold::pipeline::{fold, PipelineConfig};
use polyprof_core::polyfold::{replay::fold_recording, FoldOptions};
use polyprof_core::polyir::Program;
use polyprof_core::polyresist::FaultPlan;
use polyprof_core::{polycfg, polyvm};
use std::sync::Arc;

/// One pass-2 configuration at `k` folding shards (`0` = inline), with
/// small chunks so every trace crosses many flush boundaries.
fn shards(k: usize) -> PipelineConfig {
    PipelineConfig {
        fold_threads: k,
        chunk_events: 64,
        ..Default::default()
    }
}

#[test]
fn every_executor_folds_identical_bytes() {
    let programs: Vec<(&str, Program)> = vec![
        ("stencil", stencil(10, 3)),
        ("elementwise", elementwise(12, 2)),
        ("deep_nest", deep_nest(3)),
        ("backprop", rodinia::backprop::build().program),
        ("pathfinder", rodinia::pathfinder::build().program),
    ];
    for (name, prog) in &programs {
        let mut rec = polycfg::StructureRecorder::new();
        polyvm::Vm::new(prog).run(&[], &mut rec).expect("pass 1");
        let structure = polycfg::StaticStructure::analyze(prog, rec);
        let run = |cfg: &PipelineConfig| {
            let (ddg, _, _, deg) = fold(prog, &structure, cfg, None).expect("pass 2");
            assert!(!deg.is_degraded(), "{name}: {deg:?}");
            ddg.canonical_text()
        };

        let recording = std::env::temp_dir().join(format!(
            "executor_parity_{}_{name}.ptrace",
            std::process::id()
        ));
        let inline = run(&PipelineConfig {
            record_to: Some(recording.clone()),
            ..shards(0)
        });

        let mut rows: Vec<(String, String)> = Vec::new();
        for k in [1usize, 2, 8] {
            rows.push((format!("pipeline K={k}"), run(&shards(k))));
        }
        for k in [1usize, 2] {
            let (ddg, _) =
                fold_recording(&recording, prog, k, FoldOptions::default(), None).expect("replay");
            rows.push((format!("replay K={k}"), ddg.canonical_text()));
        }
        std::fs::remove_file(&recording).ok();
        let armed = FaultPlan::parse("panic:fold@999999999;drop:send@999999999").unwrap();
        rows.push((
            "supervised, armed plan".into(),
            run(&PipelineConfig {
                faults: Some(Arc::new(armed)),
                ..shards(2)
            }),
        ));
        rows.push((
            "inline, rational fit".into(),
            run(&PipelineConfig {
                options: FoldOptions {
                    fast_fit: false,
                    ..Default::default()
                },
                ..shards(0)
            }),
        ));

        for (executor, text) in &rows {
            assert!(
                *text == inline,
                "{name}: {executor} folds differently from the inline executor"
            );
        }
    }
}
