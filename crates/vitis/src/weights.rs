//! Deterministic synthetic model weights.
//!
//! The attack does not interpret weight values — it only needs a weight blob
//! of the right (relative) size sitting in the victim's heap.  Weights are
//! generated from a xorshift stream seeded by the model name, so every run of
//! a given model places bit-identical weights at the same heap offsets, which
//! is the determinism the paper's offline profiling exploits.
//!
//! Because the stream is a constant of the model, it is walked once per
//! process: the first use of any model builds one immutable table holding,
//! for every zoo model, its serialized `.xmodel` container (header strings,
//! then the quantized blob as its tail) and the few floats the forward pass
//! reads, captured in the same walk.  Launches, inference, profiling and
//! weight fingerprinting all borrow from that table, so a launch copies its
//! container instead of regenerating it.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::sync::OnceLock;

use crate::inference::{CONV_FILTERS, CONV_WEIGHTS};
use crate::model::ModelKind;
use crate::xmodel::Head;

/// Quantized (int8) weights for `model`, `simulated_param_count()` bytes long.
pub fn quantized_weights(model: ModelKind) -> &'static [u8] {
    let container = &zoo(model).container;
    &container[container.len() - model.simulated_param_count() as usize..]
}

/// Floating-point weights for `model`, scaled to roughly unit variance.
pub fn float_weights(model: ModelKind) -> Vec<f32> {
    states(model).map(unit).collect()
}

/// The floating-point weights the reduced forward pass reads: the
/// convolution filters at the front of [`float_weights`] and the classifier
/// table at its back.
#[derive(Debug)]
pub(crate) struct ForwardWeights {
    /// `float_weights[..CONV_WEIGHTS]`.
    pub(crate) conv: [f32; CONV_WEIGHTS],
    /// One row of [`CONV_FILTERS`] weights per output class, taken from the
    /// tail of `float_weights` and wrapping around to its start when the
    /// blob is smaller than the table.
    pub(crate) classifier: Vec<f32>,
}

/// One zoo model's entry in the per-process table.
#[derive(Debug)]
pub(crate) struct ZooModel {
    /// The serialized `.xmodel` container; the quantized weight blob is its
    /// tail.
    pub(crate) container: Vec<u8>,
    /// The forward-pass weights, captured from the walk that wrote the blob.
    pub(crate) forward: ForwardWeights,
}

/// `model`'s container and forward weights.  The first call builds every
/// model's entry, in one walk of each weight stream; later calls borrow.
pub(crate) fn zoo(model: ModelKind) -> &'static ZooModel {
    static TABLE: OnceLock<[ZooModel; 8]> = OnceLock::new();
    let table = TABLE.get_or_init(|| ModelKind::all().map(build));
    // `ModelKind::all()` lists the models in declaration order.
    &table[model as usize]
}

fn build(model: ModelKind) -> ZooModel {
    let head = Head::new(model);
    let blob_len = model.simulated_param_count() as usize;
    let mut container = Vec::with_capacity(head.serialized_len(blob_len));
    head.write(blob_len, |bytes| container.extend_from_slice(bytes));
    let forward = walk(model, |byte| container.push(byte));
    ZooModel { container, forward }
}

/// Walks `model`'s weight stream once: hands every quantized byte to
/// `each_byte`, in order, and captures the [`ForwardWeights`] on the way.
fn walk(model: ModelKind, mut each_byte: impl FnMut(u8)) -> ForwardWeights {
    let count = model.simulated_param_count() as usize;
    let table_len = model.output_classes() * CONV_FILTERS;
    let table_start = count.saturating_sub(table_len);
    let mut conv = [0f32; CONV_WEIGHTS];
    let mut classifier = Vec::with_capacity(table_len);
    for (i, state) in states(model).enumerate() {
        each_byte(quantize(state));
        if let Some(slot) = conv.get_mut(i) {
            *slot = unit(state);
        }
        if i >= table_start {
            classifier.push(unit(state));
        }
    }
    for i in classifier.len()..table_len {
        classifier.push(classifier[i % count]);
    }
    ForwardWeights { conv, classifier }
}

/// The xorshift states behind `model`'s weights, one per simulated
/// parameter.
fn states(model: ModelKind) -> impl Iterator<Item = u64> {
    let mut state = seed_for(model);
    (0..model.simulated_param_count() as usize).map(move |_| {
        state = xorshift(state);
        state
    })
}

fn quantize(state: u64) -> u8 {
    (state & 0xFF) as u8
}

/// Maps a state to `[-1, 1)`.
fn unit(state: u64) -> f32 {
    (((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) as f32
}

/// Seed derived from the model's name (FNV-1a).
pub fn seed_for(model: ModelKind) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_deterministic_per_model() {
        assert_eq!(
            quantized_weights(ModelKind::Resnet50Pt),
            quantized_weights(ModelKind::Resnet50Pt)
        );
        assert_eq!(
            float_weights(ModelKind::SqueezeNet),
            float_weights(ModelKind::SqueezeNet)
        );
    }

    #[test]
    fn different_models_have_different_weights_and_sizes() {
        let resnet = quantized_weights(ModelKind::Resnet50Pt);
        let squeeze = quantized_weights(ModelKind::SqueezeNet);
        assert_ne!(resnet.len(), squeeze.len());
        assert_ne!(&resnet[..64], &squeeze[..64]);
        assert_ne!(
            seed_for(ModelKind::Resnet50Pt),
            seed_for(ModelKind::SqueezeNet)
        );
    }

    #[test]
    fn sizes_match_simulated_param_counts() {
        for model in ModelKind::all() {
            assert_eq!(
                quantized_weights(model).len() as u64,
                model.simulated_param_count()
            );
            assert_eq!(
                float_weights(model).len() as u64,
                model.simulated_param_count()
            );
        }
    }

    #[test]
    fn one_walk_yields_the_blob_and_the_forward_weights() {
        // SqueezeNet's blob is smaller than its classifier table (wrap
        // around); ResNet-50's is larger (tail only).
        for model in [ModelKind::SqueezeNet, ModelKind::Resnet50Pt] {
            let floats = float_weights(model);
            let mut bytes = Vec::new();
            let forward = walk(model, |byte| bytes.push(byte));
            assert_eq!(bytes, quantized_weights(model));
            assert_eq!(forward.conv[..], floats[..CONV_WEIGHTS]);
            let table_len = model.output_classes() * CONV_FILTERS;
            let start = floats.len().saturating_sub(table_len);
            let expected: Vec<f32> = (0..table_len)
                .map(|i| floats[(start + i) % floats.len()])
                .collect();
            assert_eq!(forward.classifier, expected, "{model}");
        }
    }

    #[test]
    fn the_table_holds_a_fresh_walk_of_every_model() {
        let bits = |floats: &[f32]| floats.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for model in ModelKind::all() {
            let (entry, fresh) = (zoo(model), build(model));
            assert!(
                entry.container == fresh.container,
                "{model}: container differs"
            );
            let forward = &fresh.forward;
            assert_eq!(bits(&entry.forward.conv), bits(&forward.conv), "{model}");
            assert_eq!(
                bits(&entry.forward.classifier),
                bits(&forward.classifier),
                "{model}"
            );
            assert!(std::ptr::eq(zoo(model), entry), "{model}: built twice");
        }
    }

    #[test]
    fn float_weights_are_bounded_and_not_constant() {
        let w = float_weights(ModelKind::Resnet50Pt);
        assert!(w.iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(w.iter().any(|v| *v != w[0]));
    }
}
