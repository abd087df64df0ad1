//! The DPU runner: the victim workload.
//!
//! [`DpuRunner`] plays the role of the Vitis AI runtime executing a model on
//! the board: it spawns a process on the simulated kernel, grows its heap,
//! copies the model container, the weights and the input image into that heap
//! at a **model-deterministic layout**, runs the reduced inference, writes the
//! output tensor back and finally terminates.  Everything the memory scraping
//! attack later recovers — model-name strings, the corrupted-image marker, the
//! image bytes at a profiled offset — is placed by this runner, the same way
//! the real runtime places it on the ZCU104.
//!
//! A launch does only the work its residue needs.  A model's serialized
//! container and the few floats its forward pass reads are constants of the
//! model, built once per process in the [`weights`] table; a launch copies
//! the container into its heap buffer and runs the forward pass on the
//! borrowed floats, so the weight stream is never walked per launch.  What
//! is left is per-launch work: the default sample photo (built only when a
//! launch uses it), one heap buffer written to the process in a single
//! call, the image read back, the forward pass and the logits written to
//! the output tensor.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use petalinux_sim::{Kernel, KernelError, Pid, UserId};
use zynq_dram::PAGE_SIZE;

use crate::image::Image;
use crate::inference;
use crate::model::ModelKind;
use crate::weights::{self, ForwardWeights};

/// Alignment applied to each section of the heap image.
const SECTION_ALIGN: u64 = 64;
/// Size of the runtime header that precedes the model data in the heap.
const HEADER_LEN: u64 = 0x100;

/// Errors returned by the runner.
#[derive(Debug)]
pub enum RunnerError {
    /// The underlying kernel operation failed.
    Kernel(KernelError),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Kernel(e) => write!(f, "kernel error while running model: {e}"),
        }
    }
}

impl Error for RunnerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunnerError::Kernel(e) => Some(e),
        }
    }
}

impl From<KernelError> for RunnerError {
    fn from(e: KernelError) -> Self {
        RunnerError::Kernel(e)
    }
}

/// Ground-truth byte offsets (relative to the heap base) at which the runner
/// placed each artifact.
///
/// Experiments use this as the oracle to score what the attacker recovered;
/// the attacker itself never sees it — it learns the image offset by offline
/// profiling instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapLayout {
    /// Offset of the runtime header.
    pub header_offset: u64,
    /// Offset of the serialized xmodel container (strings + weights).
    pub xmodel_offset: u64,
    /// Offset of the weight blob inside the heap (within the container).
    pub weights_offset: u64,
    /// Offset of the raw RGB input image.
    pub image_offset: u64,
    /// Offset of the output (logits) tensor.
    pub output_offset: u64,
    /// Total bytes of heap the runner requested.
    pub heap_len: u64,
}

fn align_up(value: u64, align: u64) -> u64 {
    value.div_ceil(align) * align
}

/// Builds the byte image the runtime leaves in the victim's heap, plus the
/// layout describing it.
///
/// The layout depends only on the model (the image is stored at a fixed,
/// model-dependent offset), which is exactly the determinism the paper's
/// offline profiling exploits.
pub fn heap_image(model: ModelKind, input: &Image) -> (Vec<u8>, HeapLayout) {
    let (bytes, layout, _) = load_heap(model, input);
    (bytes, layout)
}

/// [`heap_image`], plus the model's forward-pass weights from the same
/// table entry as its container.
fn load_heap(model: ModelKind, input: &Image) -> (Vec<u8>, HeapLayout, &'static ForwardWeights) {
    let zoo = weights::zoo(model);
    let weights_len = model.simulated_param_count();
    let container_len = zoo.container.len() as u64;
    let image_bytes = input.as_bytes();

    let xmodel_offset = HEADER_LEN;
    // The weight blob is the tail of the serialized container.
    let weights_offset = xmodel_offset + container_len - weights_len;
    let (w, h) = model.input_dims();
    let nominal_image_len = (w * h * 3) as u64;
    let image_offset = align_up(xmodel_offset + container_len, SECTION_ALIGN);
    let output_offset = align_up(image_offset + nominal_image_len, SECTION_ALIGN);
    let output_len = (model.output_classes() * 4) as u64;
    let heap_len = align_up(output_offset + output_len, PAGE_SIZE);

    let mut bytes = vec![0u8; heap_len as usize];

    // Runtime header: a few plausible allocator/pointer words, matching the
    // pointer-looking prefix visible at the top of the paper's Figure 12 dump.
    bytes[0..8].copy_from_slice(&(heap_len).to_le_bytes());
    bytes[8..16].copy_from_slice(&0x0000_aaaa_f171_0780u64.to_le_bytes());
    bytes[16..24].copy_from_slice(&0x0000_aaaa_f171_1270u64.to_le_bytes());
    bytes[24..32].copy_from_slice(&container_len.to_le_bytes());

    bytes[xmodel_offset as usize..(xmodel_offset + container_len) as usize]
        .copy_from_slice(&zoo.container);
    let copy_len = image_bytes.len().min(nominal_image_len as usize);
    bytes[image_offset as usize..image_offset as usize + copy_len]
        .copy_from_slice(&image_bytes[..copy_len]);

    (
        bytes,
        HeapLayout {
            header_offset: 0,
            xmodel_offset,
            weights_offset,
            image_offset,
            output_offset,
            heap_len,
        },
        &zoo.forward,
    )
}

/// A model execution that has been launched and is still running.
#[derive(Debug, Clone)]
pub struct LaunchedRun {
    pid: Pid,
    model: ModelKind,
    input: Arc<Image>,
    layout: HeapLayout,
    logits: Vec<f32>,
}

impl LaunchedRun {
    /// The victim process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The model being executed.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The input image the run used.
    pub fn input_image(&self) -> &Image {
        &self.input
    }

    /// Ground-truth heap layout of the run.
    pub fn layout(&self) -> HeapLayout {
        self.layout
    }

    /// The logits produced by the inference.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Terminates the victim process, producing a [`CompletedRun`].
    ///
    /// # Errors
    ///
    /// Propagates kernel termination errors.
    pub fn terminate(self, kernel: &mut Kernel) -> Result<CompletedRun, RunnerError> {
        kernel.terminate(self.pid)?;
        Ok(CompletedRun {
            pid: self.pid,
            model: self.model,
            input: self.input,
            layout: self.layout,
            logits: self.logits,
        })
    }
}

/// A model execution whose process has terminated (the state the attack
/// targets).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRun {
    pid: Pid,
    model: ModelKind,
    input: Arc<Image>,
    layout: HeapLayout,
    logits: Vec<f32>,
}

impl CompletedRun {
    /// The (now terminated) victim process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The model that was executed.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The input image the victim used (ground truth for recovery scoring).
    pub fn input_image(&self) -> &Image {
        &self.input
    }

    /// Ground-truth heap layout of the run.
    pub fn layout(&self) -> HeapLayout {
        self.layout
    }

    /// The logits the victim computed.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// The class index the victim predicted.
    pub fn predicted_class(&self) -> Option<usize> {
        inference::argmax(&self.logits)
    }
}

/// Executes a zoo model on the simulated board as a victim process.
///
/// # Example
///
/// ```
/// use petalinux_sim::{BoardConfig, Kernel, UserId};
/// use vitis_ai_sim::{DpuRunner, Image, ModelKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
/// let run = DpuRunner::new(ModelKind::Resnet50Pt)
///     .with_input(Image::corrupted(224, 224))
///     .run_to_completion(&mut kernel, UserId::new(0))?;
/// assert_eq!(run.model(), ModelKind::Resnet50Pt);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DpuRunner {
    model: ModelKind,
    /// `None` runs the sample photo, which is only built at launch.  Shared
    /// with every run launched from this runner, so a launch never copies
    /// the image.
    input: Option<Arc<Image>>,
    image_argument: String,
}

impl DpuRunner {
    /// Creates a runner for `model` using the Xilinx-style sample photo as
    /// input.
    pub fn new(model: ModelKind) -> Self {
        DpuRunner {
            model,
            input: None,
            image_argument: "../images/001.jpg".to_string(),
        }
    }

    /// Replaces the input image (e.g. with the corrupted or sentinel image).
    /// An `Arc<Image>` is shared as it is, not copied.
    pub fn with_input(mut self, input: impl Into<Arc<Image>>) -> Self {
        self.input = Some(input.into());
        self
    }

    /// Sets the image path shown on the victim's command line (cosmetic).
    pub fn with_image_argument(mut self, arg: impl Into<String>) -> Self {
        self.image_argument = arg.into();
        self
    }

    /// The model this runner executes.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The input image this runner will load, or `None` for the sample
    /// photo at the model's input dimensions.
    pub fn input_image(&self) -> Option<&Image> {
        self.input.as_deref()
    }

    /// Spawns the victim process, loads the model and image into its heap,
    /// runs inference, writes the output tensor and leaves the process
    /// **running**.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (allocation failure, exhausted DRAM, …).
    pub fn launch(&self, kernel: &mut Kernel, user: UserId) -> Result<LaunchedRun, RunnerError> {
        let binary = format!("./{}", self.model.name());
        let xmodel_path = self.model.xmodel_path();
        let pid = kernel.spawn(
            user,
            &[
                binary.as_str(),
                xmodel_path.as_str(),
                self.image_argument.as_str(),
            ],
        )?;

        // The default photo is built only by the launch that uses it.
        let (w, h) = self.model.input_dims();
        let input = match &self.input {
            Some(input) => Arc::clone(input),
            None => Arc::new(Image::sample_photo(w, h)),
        };
        let (bytes, layout, weights) = load_heap(self.model, &input);
        kernel.grow_heap(pid, layout.heap_len)?;
        let heap_base = kernel.process(pid)?.heap_base();
        kernel.write_process_memory(pid, heap_base, &bytes)?;

        // Run the reduced forward pass over the data as it sits in the
        // process's memory (read it back rather than trusting local copies).
        let mut image_back = vec![0u8; (w * h * 3) as usize];
        kernel.read_process_memory(pid, heap_base + layout.image_offset, &mut image_back)?;
        let image_in_memory = Image::from_raw(w, h, image_back);
        let logits = inference::forward(&image_in_memory, weights);

        let mut logit_bytes = Vec::with_capacity(logits.len() * 4);
        for logit in &logits {
            logit_bytes.extend_from_slice(&logit.to_le_bytes());
        }
        kernel.write_process_memory(pid, heap_base + layout.output_offset, &logit_bytes)?;

        Ok(LaunchedRun {
            pid,
            model: self.model,
            input,
            layout,
            logits,
        })
    }

    /// Launches the victim and immediately terminates it after inference —
    /// the end state the memory scraping attack targets.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn run_to_completion(
        &self,
        kernel: &mut Kernel,
        user: UserId,
    ) -> Result<CompletedRun, RunnerError> {
        self.launch(kernel, user)?.terminate(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::BoardConfig;

    fn kernel() -> Kernel {
        // The resnet50 heap image is a few hundred KiB; the tiny test window
        // (16 MiB) accommodates every zoo model.
        Kernel::boot(BoardConfig::tiny_for_tests())
    }

    #[test]
    fn heap_image_layout_is_deterministic_and_model_dependent() {
        let img = Image::corrupted(224, 224);
        let (bytes_a, layout_a) = heap_image(ModelKind::Resnet50Pt, &img);
        let (bytes_b, layout_b) = heap_image(ModelKind::Resnet50Pt, &img);
        assert_eq!(layout_a, layout_b);
        assert_eq!(bytes_a, bytes_b);

        let (_, layout_squeeze) = heap_image(ModelKind::SqueezeNet, &img);
        assert_ne!(layout_a.image_offset, layout_squeeze.image_offset);

        // Sections are ordered and non-overlapping.
        assert!(layout_a.xmodel_offset >= HEADER_LEN);
        assert!(layout_a.weights_offset > layout_a.xmodel_offset);
        assert!(layout_a.image_offset > layout_a.weights_offset);
        assert!(layout_a.output_offset > layout_a.image_offset);
        assert!(layout_a.heap_len > layout_a.output_offset);
        assert_eq!(layout_a.heap_len % PAGE_SIZE, 0);
    }

    #[test]
    fn heap_image_embeds_strings_image_and_weights() {
        let img = Image::corrupted(224, 224);
        let (bytes, layout) = heap_image(ModelKind::Resnet50Pt, &img);
        let as_str = String::from_utf8_lossy(&bytes);
        assert!(as_str.contains("resnet50_pt"));
        // The corrupted image sits at the recorded offset.
        let at_image = &bytes[layout.image_offset as usize..layout.image_offset as usize + 16];
        assert!(at_image.iter().all(|&b| b == 0xFF));
        // Weights sit at the recorded offset.
        let weights = crate::weights::quantized_weights(ModelKind::Resnet50Pt);
        let at_weights =
            &bytes[layout.weights_offset as usize..layout.weights_offset as usize + 16];
        assert_eq!(at_weights, &weights[..16]);
    }

    #[test]
    fn image_offset_does_not_depend_on_image_content() {
        let (_, a) = heap_image(ModelKind::Resnet50Pt, &Image::corrupted(224, 224));
        let (_, b) = heap_image(ModelKind::Resnet50Pt, &Image::profiling_sentinel(224, 224));
        let (_, c) = heap_image(ModelKind::Resnet50Pt, &Image::sample_photo(224, 224));
        assert_eq!(a.image_offset, b.image_offset);
        assert_eq!(a.image_offset, c.image_offset);
    }

    #[test]
    fn launch_places_data_in_process_heap_and_keeps_process_running() {
        let mut k = kernel();
        let run = DpuRunner::new(ModelKind::Resnet50Pt)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut k, UserId::new(0))
            .unwrap();
        assert!(k.process(run.pid()).unwrap().is_running());
        assert_eq!(run.model(), ModelKind::Resnet50Pt);
        assert_eq!(run.logits().len(), 1000);
        assert_eq!(run.input_image().width(), 224);

        // The command line matches the paper's Figure 6 shape.
        let cmd = k.process(run.pid()).unwrap().command_string();
        assert!(cmd.starts_with("./resnet50_pt"));
        assert!(cmd.contains("/usr/share/vitis_ai_library/models/resnet50_pt/resnet50_pt.xmodel"));
        assert!(cmd.contains("../images/001.jpg"));

        // The heap actually contains the corrupted-image marker.
        let heap_base = k.process(run.pid()).unwrap().heap_base();
        let mut marker = [0u8; 8];
        k.read_process_memory(
            run.pid(),
            heap_base + run.layout().image_offset,
            &mut marker,
        )
        .unwrap();
        assert_eq!(marker, [0xFF; 8]);

        let completed = run.terminate(&mut k).unwrap();
        assert!(!k.process(completed.pid()).unwrap().is_running());
    }

    #[test]
    fn run_to_completion_leaves_residue_under_default_policy() {
        let mut k = kernel();
        let run = DpuRunner::new(ModelKind::SqueezeNet)
            .run_to_completion(&mut k, UserId::new(0))
            .unwrap();
        assert!(!k.process(run.pid()).unwrap().is_running());
        assert!(k.residue_frame_count() > 0);
        assert!(run.predicted_class().is_some());
        assert_eq!(run.logits().len(), 1000);
    }

    #[test]
    fn launches_of_same_model_reuse_identical_layout() {
        // Sequential frame reuse + fixed layout: the property profiling needs.
        let mut k = kernel();
        let first = DpuRunner::new(ModelKind::MobileNetV2)
            .run_to_completion(&mut k, UserId::new(1))
            .unwrap();
        let second = DpuRunner::new(ModelKind::MobileNetV2)
            .run_to_completion(&mut k, UserId::new(0))
            .unwrap();
        assert_eq!(first.layout(), second.layout());
    }

    #[test]
    fn builder_accessors() {
        let runner = DpuRunner::new(ModelKind::YoloV3)
            .with_input(Image::corrupted(416, 416))
            .with_image_argument("../images/dog.jpg");
        assert_eq!(runner.model(), ModelKind::YoloV3);
        assert_eq!(runner.input_image().map(Image::width), Some(416));
        assert_eq!(DpuRunner::new(ModelKind::YoloV3).input_image(), None);
    }

    #[test]
    fn runner_error_display_and_source() {
        let err = RunnerError::from(KernelError::EmptyCommandLine);
        assert!(err.to_string().contains("kernel error"));
        assert!(err.source().is_some());
    }
}
