//! A reduced but real forward pass.
//!
//! The attack does not depend on what the model computes, but the victim
//! workload should actually *use* the data placed in its heap (weights and
//! input image) so the simulated runtime exercises the same read/write
//! pattern a real accelerator run does: read image, read weights, write an
//! output tensor.  The network here is a small conv → ReLU → global-average
//! pool → fully-connected classifier over a downsampled input.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::image::Image;
use crate::model::ModelKind;
use crate::weights::{self, ForwardWeights};

/// Side length of the downsampled working resolution.
const WORKING_DIM: usize = 32;
/// Number of convolution filters.
pub(crate) const CONV_FILTERS: usize = 8;
/// Convolution kernel size.
const KERNEL: usize = 3;
/// Number of convolution weights, read from the front of the weight blob.
pub(crate) const CONV_WEIGHTS: usize = CONV_FILTERS * KERNEL * KERNEL;

/// Runs the reduced forward pass of `model` over `input`, returning the
/// logits (one per output class).
///
/// The computation is deterministic: identical `(model, input)` pairs give
/// identical logits.
pub fn run_inference(model: ModelKind, input: &Image) -> Vec<f32> {
    forward(input, &weights::zoo(model).forward)
}

/// The forward pass over a model's captured weights: convolution weights
/// from the front of the blob, classifier weights from the back.
pub(crate) fn forward(input: &Image, weights: &ForwardWeights) -> Vec<f32> {
    let gray = downsample_grayscale(input, WORKING_DIM);

    let mut feature_maps = [0f32; CONV_FILTERS];
    let out_dim = WORKING_DIM - KERNEL + 1;
    for (f, map) in feature_maps.iter_mut().enumerate() {
        let mut accum = 0f32;
        for y in 0..out_dim {
            for x in 0..out_dim {
                let mut v = 0f32;
                for ky in 0..KERNEL {
                    for kx in 0..KERNEL {
                        let pixel = gray[(y + ky) * WORKING_DIM + (x + kx)];
                        let weight = weights.conv[f * KERNEL * KERNEL + ky * KERNEL + kx];
                        v += pixel * weight;
                    }
                }
                // ReLU then accumulate for global average pooling.
                accum += v.max(0.0);
            }
        }
        *map = accum / (out_dim * out_dim) as f32;
    }

    weights
        .classifier
        .chunks_exact(CONV_FILTERS)
        .map(|row| {
            let mut v = 0f32;
            for (feature, weight) in feature_maps.iter().zip(row) {
                v += feature * weight;
            }
            v
        })
        .collect()
}

/// Index of the largest logit (the predicted class).
pub fn argmax(logits: &[f32]) -> Option<usize> {
    if logits.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, v) in logits.iter().enumerate() {
        if *v > logits[best] {
            best = i;
        }
    }
    Some(best)
}

/// Nearest-neighbour downsample to `dim × dim` luminance in `[0, 1]`; an
/// image with no pixels reads as black.
fn downsample_grayscale(image: &Image, dim: usize) -> Vec<f32> {
    let mut out = vec![0f32; dim * dim];
    let (w, h) = (image.width(), image.height());
    if w == 0 || h == 0 {
        return out;
    }
    for (i, slot) in out.iter_mut().enumerate() {
        let y = (i / dim) as u32 * h / dim as u32;
        let x = (i % dim) as u32 * w / dim as u32;
        let [r, g, b] = image.pixel(x.min(w - 1), y.min(h - 1));
        *slot = (0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32) / 255.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_deterministic() {
        let img = Image::sample_photo(64, 64);
        let a = run_inference(ModelKind::Resnet50Pt, &img);
        let b = run_inference(ModelKind::Resnet50Pt, &img);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn different_inputs_give_different_logits() {
        let a = run_inference(ModelKind::Resnet50Pt, &Image::sample_photo(64, 64));
        let b = run_inference(ModelKind::Resnet50Pt, &Image::corrupted(64, 64));
        assert_ne!(a, b);
    }

    #[test]
    fn different_models_give_different_logits() {
        let img = Image::sample_photo(64, 64);
        let a = run_inference(ModelKind::Resnet50Pt, &img);
        let b = run_inference(ModelKind::DenseNet161, &img);
        assert_ne!(a, b);
    }

    #[test]
    fn output_length_matches_model_classes() {
        let img = Image::sample_photo(32, 32);
        for model in ModelKind::all() {
            let logits = run_inference(model, &img);
            assert_eq!(logits.len(), model.output_classes());
            assert!(logits.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[0.5, 2.0, -1.0]), Some(1));
        // Ties resolve to the first maximum.
        assert_eq!(argmax(&[3.0, 3.0]), Some(0));
    }

    #[test]
    fn tiny_images_do_not_panic() {
        let img = Image::solid(1, 1, [10, 20, 30]);
        let logits = run_inference(ModelKind::SqueezeNet, &img);
        assert_eq!(logits.len(), 1000);
    }

    #[test]
    fn zero_sized_images_do_not_panic() {
        // Missing pixels read as black, so every empty shape gives the
        // logits of an all-black image.
        let black = run_inference(ModelKind::SqueezeNet, &Image::solid(4, 4, [0; 3]));
        for (w, h) in [(0, 0), (0, 5), (5, 0)] {
            let logits = run_inference(ModelKind::SqueezeNet, &Image::solid(w, h, [9; 3]));
            assert_eq!(logits, black, "{w}x{h}");
        }
    }
}
