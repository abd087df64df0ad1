//! The synthetic `.xmodel` container.
//!
//! Vitis AI ships compiled models as `.xmodel` files; when the runtime loads
//! one, its string table (library paths, layer names) and its weight blob end
//! up in the process heap.  Those strings are exactly what the paper's
//! Figure 11 greps out of the scraped dump (`ls/resnet50_pt/r`,
//! `hvision/resnet50`).  This module defines a compact container with the same
//! observable properties: a magic header, a string table containing the
//! model's identifying paths, tensor descriptors and a quantized weight blob,
//! with byte-exact serialize/parse.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::error::Error;
use std::fmt;

use crate::model::ModelKind;
use crate::weights;

/// Magic bytes at the start of a serialized container.
pub const XMODEL_MAGIC: &[u8; 4] = b"XMOD";

/// Container format version emitted by [`XModel::serialize`].
pub const XMODEL_VERSION: u16 = 1;

/// Descriptor of one tensor stored in the container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorDesc {
    /// Tensor name (e.g. `input`, `weights`, `fc1000`).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<u32>,
    /// Offset of the tensor's data within the runtime's heap image of the
    /// model (filled in by the DPU runner).
    pub offset: u64,
    /// Length of the tensor's data in bytes.
    pub len: u64,
}

/// Error returned when parsing a malformed container.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseXmodelError {
    /// The buffer is shorter than the structure it claims to contain.
    Truncated,
    /// The magic bytes are wrong.
    BadMagic,
    /// The container version is not supported.
    UnsupportedVersion(u16),
    /// The model name is not one of the zoo's models.
    UnknownModel(String),
    /// A length field or string is malformed.
    Malformed(&'static str),
}

impl fmt::Display for ParseXmodelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseXmodelError::Truncated => write!(f, "container is truncated"),
            ParseXmodelError::BadMagic => write!(f, "bad magic bytes"),
            ParseXmodelError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            ParseXmodelError::UnknownModel(name) => write!(f, "unknown model name {name:?}"),
            ParseXmodelError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl Error for ParseXmodelError {}

/// A compiled model container.
///
/// # Example
///
/// ```
/// use vitis_ai_sim::{ModelKind, XModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = XModel::build(ModelKind::Resnet50Pt);
/// let bytes = model.serialize();
/// let parsed = XModel::parse(&bytes)?;
/// assert_eq!(parsed.kind(), ModelKind::Resnet50Pt);
/// // The string table carries the path strings the attack greps for.
/// assert!(parsed.strings().iter().any(|s| s.contains("resnet50_pt")));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct XModel {
    head: Head,
    weights: Vec<u8>,
}

impl XModel {
    /// Builds the container for a zoo model: identifying strings, the three
    /// canonical tensors and the deterministic quantized weights.
    pub fn build(kind: ModelKind) -> Self {
        XModel {
            head: Head::new(kind),
            weights: weights::quantized_weights(kind).to_vec(),
        }
    }

    /// The model this container holds.
    pub fn kind(&self) -> ModelKind {
        self.head.kind
    }

    /// The string table.
    pub fn strings(&self) -> &[String] {
        &self.head.strings
    }

    /// The tensor descriptors.
    pub fn tensors(&self) -> &[TensorDesc] {
        &self.head.tensors
    }

    /// The quantized weight blob.
    pub fn weights(&self) -> &[u8] {
        &self.weights
    }

    /// Serializes the container to its on-disk / in-heap byte layout.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.head
            .write(self.weights.len(), |bytes| out.extend_from_slice(bytes));
        out.extend_from_slice(&self.weights);
        out
    }

    /// Parses a serialized container.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseXmodelError`] describing the first malformed field.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseXmodelError> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let magic = cursor.take(4)?;
        if magic != XMODEL_MAGIC {
            return Err(ParseXmodelError::BadMagic);
        }
        let version = cursor.u16()?;
        if version != XMODEL_VERSION {
            return Err(ParseXmodelError::UnsupportedVersion(version));
        }
        let name_len = cursor.u16()? as usize;
        let name = cursor.str(name_len)?;
        let kind = ModelKind::from_name(&name).ok_or(ParseXmodelError::UnknownModel(name))?;

        let string_count = cursor.u32()? as usize;
        let mut strings = Vec::with_capacity(string_count.min(1024));
        for _ in 0..string_count {
            let len = cursor.u32()? as usize;
            strings.push(cursor.str(len)?);
        }

        let tensor_count = cursor.u32()? as usize;
        let mut tensors = Vec::with_capacity(tensor_count.min(1024));
        for _ in 0..tensor_count {
            let name_len = cursor.u32()? as usize;
            let name = cursor.str(name_len)?;
            let dim_count = cursor.u32()? as usize;
            let mut shape = Vec::with_capacity(dim_count.min(16));
            for _ in 0..dim_count {
                shape.push(cursor.u32()?);
            }
            let offset = cursor.u64()?;
            let len = cursor.u64()?;
            tensors.push(TensorDesc {
                name,
                shape,
                offset,
                len,
            });
        }

        let weights_len = cursor.u64()? as usize;
        let weights = cursor.take(weights_len)?.to_vec();
        Ok(XModel {
            head: Head {
                kind,
                strings,
                tensors,
            },
            weights,
        })
    }

    /// Total serialized size in bytes.
    pub fn serialized_len(&self) -> usize {
        self.head.serialized_len(self.weights.len())
    }
}

/// A container without its weight blob: the model, its string table and its
/// tensor descriptors.
///
/// The per-process weight table ([`weights`]) serializes each zoo model's
/// container from this once, appending the blob as it walks the weight
/// stream, so no [`XModel`] is built per launch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Head {
    kind: ModelKind,
    strings: Vec<String>,
    tensors: Vec<TensorDesc>,
}

impl Head {
    /// The head of `kind`'s container: its identifying strings and the three
    /// canonical tensors.
    pub(crate) fn new(kind: ModelKind) -> Self {
        let (w, h) = kind.input_dims();
        let strings = vec![
            kind.xmodel_path(),
            format!("models/{}/{}", kind.name(), kind.name()),
            format!("torchvision/{}", kind.name()),
            format!("vitis_ai_library/lib{}_runner.so", kind.name()),
            "DPUCZDX8G".to_string(),
            "subgraph_conv1".to_string(),
            format!("meta: framework=pytorch model={}", kind.name()),
        ];
        let tensors = vec![
            TensorDesc {
                name: "input".to_string(),
                shape: vec![1, 3, h, w],
                offset: 0,
                len: (w * h * 3) as u64,
            },
            TensorDesc {
                name: "weights".to_string(),
                shape: vec![kind.simulated_param_count() as u32],
                offset: 0,
                len: kind.simulated_param_count(),
            },
            TensorDesc {
                name: "logits".to_string(),
                shape: vec![1, kind.output_classes() as u32],
                offset: 0,
                len: (kind.output_classes() * 4) as u64,
            },
        ];
        Head {
            kind,
            strings,
            tensors,
        }
    }

    /// Length of the serialized container around a `weights_len`-byte blob.
    pub(crate) fn serialized_len(&self, weights_len: usize) -> usize {
        let mut len = weights_len;
        self.write(weights_len, |bytes| len += bytes.len());
        len
    }

    /// Emits the serialized bytes that precede the weight blob, ending with
    /// the blob's length field.
    pub(crate) fn write(&self, weights_len: usize, mut put: impl FnMut(&[u8])) {
        put(XMODEL_MAGIC);
        put(&XMODEL_VERSION.to_le_bytes());
        let name = self.kind.name().as_bytes();
        put(&(name.len() as u16).to_le_bytes());
        put(name);
        put(&(self.strings.len() as u32).to_le_bytes());
        for s in &self.strings {
            put(&(s.len() as u32).to_le_bytes());
            put(s.as_bytes());
        }
        put(&(self.tensors.len() as u32).to_le_bytes());
        for t in &self.tensors {
            put(&(t.name.len() as u32).to_le_bytes());
            put(t.name.as_bytes());
            put(&(t.shape.len() as u32).to_le_bytes());
            for dim in &t.shape {
                put(&dim.to_le_bytes());
            }
            put(&t.offset.to_le_bytes());
            put(&t.len.to_le_bytes());
        }
        put(&(weights_len as u64).to_le_bytes());
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ParseXmodelError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(ParseXmodelError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ParseXmodelError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, ParseXmodelError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ParseXmodelError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ParseXmodelError> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn str(&mut self, len: usize) -> Result<String, ParseXmodelError> {
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ParseXmodelError::Malformed("string is not utf-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_contains_identifying_strings_and_tensors() {
        let model = XModel::build(ModelKind::Resnet50Pt);
        assert_eq!(model.kind(), ModelKind::Resnet50Pt);
        assert!(model
            .strings()
            .iter()
            .any(|s| s.contains("vitis_ai_library/models/resnet50_pt")));
        assert_eq!(model.tensors().len(), 3);
        assert_eq!(model.tensors()[0].name, "input");
        assert_eq!(
            model.weights().len() as u64,
            ModelKind::Resnet50Pt.simulated_param_count()
        );
    }

    #[test]
    fn serialize_parse_roundtrip_for_every_model() {
        for kind in ModelKind::all() {
            let model = XModel::build(kind);
            let bytes = model.serialize();
            assert_eq!(bytes.len(), model.serialized_len());
            let parsed = XModel::parse(&bytes).unwrap();
            assert_eq!(parsed, model);
        }
    }

    #[test]
    fn parse_rejects_bad_magic_and_version() {
        let mut bytes = XModel::build(ModelKind::SqueezeNet).serialize();
        bytes[0] = b'Y';
        assert_eq!(XModel::parse(&bytes), Err(ParseXmodelError::BadMagic));

        let mut bytes = XModel::build(ModelKind::SqueezeNet).serialize();
        bytes[4] = 99;
        assert_eq!(
            XModel::parse(&bytes),
            Err(ParseXmodelError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn parse_rejects_truncation_at_any_point() {
        let bytes = XModel::build(ModelKind::MobileNetV2).serialize();
        for cut in [0, 3, 5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                XModel::parse(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn parse_rejects_unknown_model_name() {
        let model = XModel::build(ModelKind::YoloV3);
        let mut bytes = model.serialize();
        // Overwrite the model name bytes ("yolov3" at offset 8).
        bytes[8..14].copy_from_slice(b"nosuch");
        assert!(matches!(
            XModel::parse(&bytes),
            Err(ParseXmodelError::UnknownModel(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(ParseXmodelError::Truncated
            .to_string()
            .contains("truncated"));
        assert!(ParseXmodelError::BadMagic.to_string().contains("magic"));
        assert!(ParseXmodelError::UnsupportedVersion(2)
            .to_string()
            .contains("version"));
        assert!(ParseXmodelError::UnknownModel("x".into())
            .to_string()
            .contains("unknown model"));
        assert!(ParseXmodelError::Malformed("f")
            .to_string()
            .contains("malformed"));
    }

    proptest! {
        #[test]
        fn prop_parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = XModel::parse(&bytes);
        }

        #[test]
        fn prop_corrupting_one_byte_never_panics(idx in 0usize..1000, value in any::<u8>()) {
            let mut bytes = XModel::build(ModelKind::SqueezeNet).serialize();
            let idx = idx % bytes.len();
            bytes[idx] = value;
            let _ = XModel::parse(&bytes);
        }
    }
}
