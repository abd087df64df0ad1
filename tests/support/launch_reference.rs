//! The straightforward victim launch, kept as the reference the launch
//! identity suites compare against: build the container field by field,
//! regenerate the weights and the float blob from the xorshift stream, copy
//! everything into a fresh heap image, and build images pixel by pixel.
//!
//! Shared by the root test files that include it with `#[path]`; each uses
//! only part of it.

#![allow(dead_code)]

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
