//! Output-neutrality of the pass-2 execution knobs on the synthetic
//! kernels: the choice of fold executor (inline, or the K-shard pipeline)
//! and of fit verifier (integer fast path, or rational only) may only ever
//! trade wall-clock, never the folded DDG. The wider matrix (replay,
//! supervised runs, Rodinia workloads) is in `tests/executor_parity.rs`.

mod common;

use common::{canon, elementwise, fold_with, stencil};
use polyprof_core::polyfold;
use polyprof_core::polyfold::pipeline::PipelineConfig;
use polyprof_core::polyfold::FoldOptions;

/// Every executor `pipeline::fold` can select folds the same trace to the
/// same bytes: `fold_program` (inline) and the pipeline at K ∈ {1, 2, 8}
/// with tiny chunks (so the batched chunk folder crosses many flush
/// boundaries).
#[test]
fn all_selectable_executors_are_byte_identical() {
    for prog in [stencil(10, 3), elementwise(12, 2)] {
        let serial = canon(&polyfold::fold_program(&prog).0);
        for k in [1usize, 2, 8] {
            let cfg = PipelineConfig {
                fold_threads: k,
                chunk_events: 64,
                ..Default::default()
            };
            let piped = canon(&fold_with(&prog, &cfg));
            assert_eq!(serial.0, piped.0, "statements differ at K={k}");
            assert_eq!(serial.1, piped.1, "dependences differ at K={k}");
            assert_eq!(serial.2, piped.2, "accesses differ at K={k}");
        }
    }
}

/// The fit-verifier knob is output-neutral: a rational-only fold
/// (`FoldOptions::fast_fit` off) is byte-identical to the default
/// fast-path fold, inline and pipelined.
#[test]
fn fast_fit_off_matches_default() {
    let prog = stencil(10, 3);
    for k in [0usize, 2] {
        let fast = fold_with(
            &prog,
            &PipelineConfig {
                fold_threads: k,
                ..Default::default()
            },
        );
        let slow = fold_with(
            &prog,
            &PipelineConfig {
                fold_threads: k,
                options: FoldOptions {
                    fast_fit: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(canon(&fast), canon(&slow), "K={k}");
        assert_eq!(fast.canonical_text(), slow.canonical_text(), "K={k}");
    }
}
