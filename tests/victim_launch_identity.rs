//! Identity tests for the victim launch.
//!
//! `DpuRunner::launch` copies the model's serialized container from the
//! per-process weight table into the victim's heap and runs the forward
//! pass on the forward weights captured in the same table entry.  The
//! `reference` module (shared with `weight_table_first_use`) keeps the
//! straightforward implementation — serialize the container field by field,
//! copy it into the heap, regenerate the float weights for inference, and
//! build images pixel by pixel — so every byte the victim leaves behind and
//! every logit it computes can be compared against it.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use fpga_msa::petalinux::{BoardConfig, Kernel, UserId};
use fpga_msa::vitis::inference::run_inference;
use fpga_msa::vitis::runner::{heap_image, HeapLayout};
use fpga_msa::vitis::{DpuRunner, Image, ModelKind, XModel};

#[path = "support/launch_reference.rs"]
mod reference;

const IMAGE_SIZES: [(u32, u32); 9] = [
    (0, 0),
    (0, 5),
    (5, 0),
    (1, 1),
    (7, 9),
    (17, 33),
    (224, 224),
    (240, 240),
    (416, 416),
];

#[test]
fn images_match_the_per_pixel_constructions() {
    for (w, h) in IMAGE_SIZES {
        assert_eq!(
            Image::sample_photo(w, h).as_bytes(),
            reference::sample_photo(w, h),
            "sample photo {w}x{h}"
        );
        for rgb in [[0xFF; 3], [0x55; 3], [1, 2, 3]] {
            assert_eq!(
                Image::solid(w, h, rgb).as_bytes(),
                reference::solid(w, h, rgb),
                "solid {rgb:?} {w}x{h}"
            );
        }
    }
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

/// The model's three paper inputs; `None` is the runner's default photo.
fn inputs(model: ModelKind) -> [(&'static str, Option<Image>, Image); 3] {
    let (w, h) = model.input_dims();
    [
        (
            "corrupted",
            Some(Image::corrupted(w, h)),
            Image::corrupted(w, h),
        ),
        ("sample photo", None, Image::sample_photo(w, h)),
        (
            "sentinel",
            Some(Image::profiling_sentinel(w, h)),
            Image::profiling_sentinel(w, h),
        ),
    ]
}

#[test]
fn containers_and_heap_images_match_the_reference_serialization() {
    for model in ModelKind::all() {
        let container = reference::container(model);
        assert_eq!(XModel::build(model).serialize(), container, "{model}");
        assert_eq!(XModel::build(model).serialized_len(), container.len());
        for (name, _, input) in inputs(model) {
            let (bytes, layout) = heap_image(model, &input);
            let (want_bytes, want_layout) = reference::heap_image(model, &input);
            assert_eq!(layout, want_layout, "{model} {name}");
            assert!(bytes == want_bytes, "{model} {name}: heap bytes differ");
        }
    }
}

#[test]
fn launches_leave_the_reference_heap_and_logits() {
    let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
    let user = UserId::new(0);
    for model in ModelKind::all() {
        for (name, given, input) in inputs(model) {
            let want_logits = reference::run_inference(model, &input);
            assert_eq!(
                bits(&run_inference(model, &input)),
                bits(&want_logits),
                "run_inference {model} {name}"
            );

            let mut runner = DpuRunner::new(model);
            if let Some(given) = given {
                runner = runner.with_input(given);
            }
            let run = runner.launch(&mut kernel, user).unwrap();
            assert_eq!(bits(run.logits()), bits(&want_logits), "{model} {name}");
            assert_eq!(run.input_image(), &input, "{model} {name}");

            // The whole heap: the reference image plus the logits the
            // victim wrote back into its output tensor.
            let (mut want_heap, layout): (Vec<u8>, HeapLayout) =
                reference::heap_image(model, &input);
            assert_eq!(run.layout(), layout, "{model} {name}");
            let output = layout.output_offset as usize;
            for (i, logit) in want_logits.iter().enumerate() {
                want_heap[output + 4 * i..output + 4 * i + 4].copy_from_slice(&logit.to_le_bytes());
            }
            let heap_base = kernel.process(run.pid()).unwrap().heap_base();
            let mut heap = vec![0u8; layout.heap_len as usize];
            kernel
                .read_process_memory(run.pid(), heap_base, &mut heap)
                .unwrap();
            assert!(heap == want_heap, "{model} {name}: victim heap differs");
            run.terminate(&mut kernel).unwrap();
        }
    }
}
