//! Identity tests for the victim launch.
//!
//! `DpuRunner::launch` serializes the model container straight into the
//! victim's heap, generates the weight blob in place and runs the forward
//! pass on weights captured from that same walk.  The `reference` module
//! below keeps the straightforward implementation it replaced — build an
//! `XModel`, serialize it, copy it into the heap, regenerate the float
//! weights for inference, and build images pixel by pixel — so every byte
//! the victim leaves behind and every logit it computes can be compared
//! against it.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use fpga_msa::petalinux::{BoardConfig, Kernel, UserId};
use fpga_msa::vitis::inference::run_inference;
use fpga_msa::vitis::runner::{heap_image, HeapLayout};
use fpga_msa::vitis::{DpuRunner, Image, ModelKind, XModel};

mod reference {
    use fpga_msa::dram::PAGE_SIZE;
    use fpga_msa::vitis::runner::HeapLayout;
    use fpga_msa::vitis::{Image, ModelKind};

    fn seed_for(model: ModelKind) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in model.name().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        if hash == 0 {
            1
        } else {
            hash
        }
    }

    fn xorshift(mut x: u64) -> u64 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn quantized_weights(model: ModelKind) -> Vec<u8> {
        let mut state = seed_for(model);
        let count = model.simulated_param_count() as usize;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            state = xorshift(state);
            out.push((state & 0xFF) as u8);
        }
        out
    }

    pub fn float_weights(model: ModelKind) -> Vec<f32> {
        let mut state = seed_for(model);
        let count = model.simulated_param_count() as usize;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            state = xorshift(state);
            let unit = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
            out.push(unit as f32);
        }
        out
    }

    /// The serialized container, field by field.
    pub fn container(kind: ModelKind) -> Vec<u8> {
        let (w, h) = kind.input_dims();
        let weights = quantized_weights(kind);
        let strings = [
            kind.xmodel_path(),
            format!("models/{}/{}", kind.name(), kind.name()),
            format!("torchvision/{}", kind.name()),
            format!("vitis_ai_library/lib{}_runner.so", kind.name()),
            "DPUCZDX8G".to_string(),
            "subgraph_conv1".to_string(),
            format!("meta: framework=pytorch model={}", kind.name()),
        ];
        let tensors: [(&str, Vec<u32>, u64); 3] = [
            ("input", vec![1, 3, h, w], (w * h * 3) as u64),
            (
                "weights",
                vec![kind.simulated_param_count() as u32],
                weights.len() as u64,
            ),
            (
                "logits",
                vec![1, kind.output_classes() as u32],
                (kind.output_classes() * 4) as u64,
            ),
        ];
        let mut out = Vec::new();
        out.extend_from_slice(b"XMOD");
        out.extend_from_slice(&1u16.to_le_bytes());
        let name = kind.name().as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(strings.len() as u32).to_le_bytes());
        for s in &strings {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
        for (name, shape, len) in &tensors {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
            for dim in shape {
                out.extend_from_slice(&dim.to_le_bytes());
            }
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&(weights.len() as u64).to_le_bytes());
        out.extend_from_slice(&weights);
        out
    }

    fn align_up(value: u64, align: u64) -> u64 {
        value.div_ceil(align) * align
    }

    pub fn heap_image(model: ModelKind, input: &Image) -> (Vec<u8>, HeapLayout) {
        let container = container(model);
        let weights_len = model.simulated_param_count();
        let xmodel_offset = 0x100;
        let weights_offset = xmodel_offset + container.len() as u64 - weights_len;
        let (w, h) = model.input_dims();
        let nominal_image_len = (w * h * 3) as u64;
        let image_offset = align_up(xmodel_offset + container.len() as u64, 64);
        let output_offset = align_up(image_offset + nominal_image_len, 64);
        let heap_len = align_up(output_offset + model.output_classes() as u64 * 4, PAGE_SIZE);

        let mut bytes = vec![0u8; heap_len as usize];
        bytes[0..8].copy_from_slice(&heap_len.to_le_bytes());
        bytes[8..16].copy_from_slice(&0x0000_aaaa_f171_0780u64.to_le_bytes());
        bytes[16..24].copy_from_slice(&0x0000_aaaa_f171_1270u64.to_le_bytes());
        bytes[24..32].copy_from_slice(&(container.len() as u64).to_le_bytes());
        let xmodel = xmodel_offset as usize;
        bytes[xmodel..xmodel + container.len()].copy_from_slice(&container);
        let copy_len = input.as_bytes().len().min(nominal_image_len as usize);
        let image = image_offset as usize;
        bytes[image..image + copy_len].copy_from_slice(&input.as_bytes()[..copy_len]);
        let layout = HeapLayout {
            header_offset: 0,
            xmodel_offset,
            weights_offset,
            image_offset,
            output_offset,
            heap_len,
        };
        (bytes, layout)
    }

    /// The forward pass over the whole float blob.
    pub fn run_inference(model: ModelKind, input: &Image) -> Vec<f32> {
        const DIM: usize = 32;
        const FILTERS: usize = 8;
        const KERNEL: usize = 3;
        let mut gray = vec![0f32; DIM * DIM];
        let (iw, ih) = (input.width().max(1), input.height().max(1));
        for (i, slot) in gray.iter_mut().enumerate() {
            let y = (i / DIM) as u32 * ih / DIM as u32;
            let x = (i % DIM) as u32 * iw / DIM as u32;
            let [r, g, b] = input.pixel(x.min(iw - 1), y.min(ih - 1));
            *slot = (0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32) / 255.0;
        }
        let w = float_weights(model);
        let conv_w = &w[..(FILTERS * KERNEL * KERNEL).min(w.len())];
        let mut feature_maps = [0f32; FILTERS];
        let out_dim = DIM - KERNEL + 1;
        for (f, map) in feature_maps.iter_mut().enumerate() {
            let mut accum = 0f32;
            for y in 0..out_dim {
                for x in 0..out_dim {
                    let mut v = 0f32;
                    for ky in 0..KERNEL {
                        for kx in 0..KERNEL {
                            let pixel = gray[(y + ky) * DIM + (x + kx)];
                            let weight = conv_w
                                .get(f * KERNEL * KERNEL + ky * KERNEL + kx)
                                .copied()
                                .unwrap_or(0.0);
                            v += pixel * weight;
                        }
                    }
                    accum += v.max(0.0);
                }
            }
            *map = accum / (out_dim * out_dim) as f32;
        }
        let classes = model.output_classes();
        let fc_region = &w[w.len().saturating_sub(classes * FILTERS)..];
        let mut logits = vec![0f32; classes];
        for (c, logit) in logits.iter_mut().enumerate() {
            let mut v = 0f32;
            for (f, feature) in feature_maps.iter().enumerate() {
                let weight = fc_region
                    .get(c * FILTERS + f)
                    .copied()
                    .unwrap_or(w[(c * FILTERS + f) % w.len()]);
                v += feature * weight;
            }
            *logit = v;
        }
        logits
    }

    pub fn solid(width: u32, height: u32, rgb: [u8; 3]) -> Vec<u8> {
        let mut pixels = Vec::with_capacity((width * height * 3) as usize);
        for _ in 0..(width * height) {
            pixels.extend_from_slice(&rgb);
        }
        pixels
    }

    pub fn sample_photo(width: u32, height: u32) -> Vec<u8> {
        let mut pixels = Vec::with_capacity((width * height * 3) as usize);
        for y in 0..height {
            for x in 0..width {
                let r = ((x * 255) / width.max(1)) as u8;
                let g = ((y * 255) / height.max(1)) as u8;
                let b = (((x / 8 + y / 8) % 2) * 200 + 20) as u8;
                pixels.extend_from_slice(&[r, g, b]);
            }
        }
        pixels
    }
}

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
