//! The model zoo.
//!
//! These are the models the Vitis AI library ships prebuilt for the ZCU104
//! DPU; the attack's model-identification step matches their names against
//! strings found in the scraped memory dump.  Parameter counts are the real
//! architectures' counts divided by a fixed simulation scale factor so that a
//! model's in-heap weight blob keeps the zoo's *relative* size ordering
//! without requiring gigabytes of simulated DRAM.

use std::fmt;

/// Divisor applied to real parameter counts to obtain the simulated weight
/// blob sizes.
pub const PARAM_SCALE: u64 = 1024;

/// A model from the (simulated) Vitis AI library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ModelKind {
    /// ResNet-50 exported from PyTorch (`resnet50_pt`) — the paper's victim.
    Resnet50Pt,
    /// SqueezeNet 1.1.
    SqueezeNet,
    /// Inception v1 (GoogLeNet).
    InceptionV1,
    /// MobileNet v2.
    MobileNetV2,
    /// YOLOv3 object detector.
    YoloV3,
    /// DenseNet-161.
    DenseNet161,
    /// EfficientNet-Lite0.
    EfficientNetLite,
    /// VGG-16.
    Vgg16,
}

impl ModelKind {
    /// Every model in the zoo, in a stable order.
    pub fn all() -> [ModelKind; 8] {
        [
            ModelKind::Resnet50Pt,
            ModelKind::SqueezeNet,
            ModelKind::InceptionV1,
            ModelKind::MobileNetV2,
            ModelKind::YoloV3,
            ModelKind::DenseNet161,
            ModelKind::EfficientNetLite,
            ModelKind::Vgg16,
        ]
    }

    /// The library name of the model (what appears in paths and in memory).
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Resnet50Pt => "resnet50_pt",
            ModelKind::SqueezeNet => "squeezenet",
            ModelKind::InceptionV1 => "inception_v1",
            ModelKind::MobileNetV2 => "mobilenet_v2",
            ModelKind::YoloV3 => "yolov3",
            ModelKind::DenseNet161 => "densenet161",
            ModelKind::EfficientNetLite => "efficientnet_lite",
            ModelKind::Vgg16 => "vgg16",
        }
    }

    /// Parses a model from its library name.
    pub fn from_name(name: &str) -> Option<ModelKind> {
        ModelKind::all().into_iter().find(|m| m.name() == name)
    }

    /// The on-board path of the compiled model container, matching the path
    /// the paper's Figure 6 shows on the victim's command line.
    pub fn xmodel_path(&self) -> String {
        format!(
            "/usr/share/vitis_ai_library/models/{name}/{name}.xmodel",
            name = self.name()
        )
    }

    /// Real parameter count of the architecture.
    pub fn real_param_count(&self) -> u64 {
        match self {
            ModelKind::Resnet50Pt => 25_557_032,
            ModelKind::SqueezeNet => 1_235_496,
            ModelKind::InceptionV1 => 6_624_904,
            ModelKind::MobileNetV2 => 3_504_872,
            ModelKind::YoloV3 => 61_949_149,
            ModelKind::DenseNet161 => 28_681_000,
            ModelKind::EfficientNetLite => 4_652_008,
            ModelKind::Vgg16 => 138_357_544,
        }
    }

    /// Number of weights materialized in the simulation
    /// (`real / PARAM_SCALE`, at least 256).
    pub fn simulated_param_count(&self) -> u64 {
        (self.real_param_count() / PARAM_SCALE).max(256)
    }

    /// Input image dimensions `(width, height)` the model expects.
    pub fn input_dims(&self) -> (u32, u32) {
        match self {
            ModelKind::YoloV3 => (416, 416),
            ModelKind::InceptionV1 => (224, 224),
            ModelKind::EfficientNetLite => (240, 240),
            _ => (224, 224),
        }
    }

    /// Number of output classes / logits.
    pub fn output_classes(&self) -> usize {
        match self {
            ModelKind::YoloV3 => 80,
            _ => 1000,
        }
    }

    /// Whether the model takes an image input (all zoo members do; the hook
    /// exists so the analysis code can reason about non-vision models).
    pub fn accepts_image_input(&self) -> bool {
        true
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_names_are_unique_and_roundtrip() {
        let mut names: Vec<_> = ModelKind::all().iter().map(|m| m.name()).collect();
        names.sort_unstable();
        let len_before = names.len();
        names.dedup();
        assert_eq!(names.len(), len_before);
        for model in ModelKind::all() {
            assert_eq!(ModelKind::from_name(model.name()), Some(model));
            assert_eq!(model.to_string(), model.name());
        }
        assert!(ModelKind::from_name("not_a_model").is_none());
    }

    #[test]
    fn resnet50_matches_the_paper() {
        let m = ModelKind::Resnet50Pt;
        assert_eq!(m.name(), "resnet50_pt");
        assert_eq!(
            m.xmodel_path(),
            "/usr/share/vitis_ai_library/models/resnet50_pt/resnet50_pt.xmodel"
        );
        assert_eq!(m.input_dims(), (224, 224));
        assert_eq!(m.output_classes(), 1000);
        assert!(m.accepts_image_input());
    }

    #[test]
    fn simulated_sizes_preserve_relative_ordering() {
        let small = ModelKind::SqueezeNet.simulated_param_count();
        let medium = ModelKind::Resnet50Pt.simulated_param_count();
        let large = ModelKind::Vgg16.simulated_param_count();
        assert!(small < medium);
        assert!(medium < large);
        for model in ModelKind::all() {
            assert!(model.simulated_param_count() >= 256);
            assert_eq!(
                model.simulated_param_count(),
                (model.real_param_count() / PARAM_SCALE).max(256)
            );
        }
    }
}
