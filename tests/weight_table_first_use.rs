//! First use of the per-process weight table, raced from several threads.
//!
//! This file holds exactly one test, so the table is still empty when the
//! test starts: eight threads wait at a barrier and then all ask for it at
//! once.  Every thread builds each zoo model's heap image and logits for the
//! corrupted image, the sample photo and the profiling sentinel, and checks
//! them against the straightforward reference launch.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::sync::Barrier;

use fpga_msa::vitis::inference::run_inference;
use fpga_msa::vitis::runner::{heap_image, HeapLayout};
use fpga_msa::vitis::{Image, ModelKind};

#[path = "support/launch_reference.rs"]
mod reference;

const THREADS: usize = 8;

struct Case {
    model: ModelKind,
    name: &'static str,
    input: Image,
    heap: Vec<u8>,
    layout: HeapLayout,
    logit_bits: Vec<u32>,
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn threads_racing_the_first_use_of_the_weight_table_see_the_reference_launch() {
    // The references never touch the table.
    let cases: Vec<Case> = ModelKind::all()
        .into_iter()
        .flat_map(|model| {
            let (w, h) = model.input_dims();
            [
                ("corrupted", Image::corrupted(w, h)),
                ("sample photo", Image::sample_photo(w, h)),
                ("sentinel", Image::profiling_sentinel(w, h)),
            ]
            .map(|(name, input)| {
                let (heap, layout) = reference::heap_image(model, &input);
                let logit_bits = bits(&reference::run_inference(model, &input));
                Case {
                    model,
                    name,
                    input,
                    heap,
                    layout,
                    logit_bits,
                }
            })
        })
        .collect();

    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (cases, start) = (&cases, &start);
            scope.spawn(move || {
                start.wait();
                // Each thread walks the cases from a different model, so
                // the first requests name different table entries.
                for case in cases.iter().cycle().skip(thread * 3).take(cases.len()) {
                    let (model, name) = (case.model, case.name);
                    let (heap, layout) = heap_image(model, &case.input);
                    assert_eq!(layout, case.layout, "thread {thread}: {model} {name}");
                    assert!(
                        heap == case.heap,
                        "thread {thread}: {model} {name}: heap bytes differ"
                    );
                    assert_eq!(
                        bits(&run_inference(model, &case.input)),
                        case.logit_bits,
                        "thread {thread}: {model} {name}: logits differ"
                    );
                }
            });
        }
    });
}
