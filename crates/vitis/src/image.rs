//! RGB images: the victim's input data.
//!
//! The paper's experiment corrupts the example input by setting every pixel to
//! `0xFFFFFF` so the scraped dump shows unmistakable `FFFF FFFF` runs
//! (Figure 12), and profiles offsets offline with a `0x555555` image.  Both
//! are provided as constructors here, next to a deterministic synthetic
//! "photo" used when a realistic-looking input is preferable.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::fmt;

/// The byte value of every channel of the corrupted image (`0xFFFFFF` pixels).
pub const CORRUPTED_CHANNEL: u8 = 0xFF;

/// The byte value of every channel of the profiling sentinel (`0x555555`
/// pixels).
pub const SENTINEL_CHANNEL: u8 = 0x55;

/// An 8-bit RGB image stored row-major, three bytes per pixel.
///
/// # Example
///
/// ```
/// use vitis_ai_sim::Image;
///
/// let img = Image::corrupted(4, 2);
/// assert_eq!(img.as_bytes().len(), 4 * 2 * 3);
/// assert!(img.as_bytes().iter().all(|&b| b == 0xFF));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<u8>,
}

impl Image {
    /// Creates an image from raw RGB bytes.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height * 3`.
    pub fn from_raw(width: u32, height: u32, pixels: Vec<u8>) -> Self {
        assert_eq!(
            pixels.len(),
            (width * height * 3) as usize,
            "pixel buffer must be width * height * 3 bytes"
        );
        Image {
            width,
            height,
            pixels,
        }
    }

    /// A solid-colour image.
    pub fn solid(width: u32, height: u32, rgb: [u8; 3]) -> Self {
        Image {
            width,
            height,
            pixels: rgb.repeat((width * height) as usize),
        }
    }

    /// The corrupted image of the paper's Figure 4(b): every pixel `0xFFFFFF`.
    pub fn corrupted(width: u32, height: u32) -> Self {
        Image::solid(width, height, [CORRUPTED_CHANNEL; 3])
    }

    /// The offline-profiling sentinel image: every pixel `0x555555`.
    pub fn profiling_sentinel(width: u32, height: u32) -> Self {
        Image::solid(width, height, [SENTINEL_CHANNEL; 3])
    }

    /// A deterministic synthetic "photo" (smooth gradients plus a block
    /// pattern), standing in for the Xilinx-supplied example image.
    ///
    /// Red varies with `x` only, green with `y` only, and blue with `x` and
    /// the parity of `y / 8`.  Rows 0 and 8 are therefore computed pixel by
    /// pixel, and every other row copies the one of its parity and rewrites
    /// its green channel.
    pub fn sample_photo(width: u32, height: u32) -> Self {
        let row_len = width as usize * 3;
        let mut pixels = Vec::with_capacity(row_len * height as usize);
        for y in 0..height {
            let g = ((y * 255) / height.max(1)) as u8;
            if y == 0 || y == 8 {
                for x in 0..width {
                    let r = ((x * 255) / width.max(1)) as u8;
                    let b = (((x / 8 + y / 8) % 2) * 200 + 20) as u8;
                    pixels.extend_from_slice(&[r, g, b]);
                }
            } else {
                let template = (y / 8 % 2) as usize * 8 * row_len;
                let start = pixels.len();
                pixels.extend_from_within(template..template + row_len);
                for green in pixels[start..].iter_mut().skip(1).step_by(3) {
                    *green = g;
                }
            }
        }
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw RGB bytes, row-major.
    pub fn as_bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// Consumes the image and returns its raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.pixels
    }

    /// The pixel at `(x, y)` as `[r, g, b]`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn pixel(&self, x: u32, y: u32) -> [u8; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let idx = ((y * self.width + x) * 3) as usize;
        [self.pixels[idx], self.pixels[idx + 1], self.pixels[idx + 2]]
    }

    /// Reconstructs an image of known dimensions from raw bytes (what the
    /// attacker does once it has located the image in the dump).
    ///
    /// Returns `None` if `bytes` is shorter than `width * height * 3`.
    pub fn reconstruct(width: u32, height: u32, bytes: &[u8]) -> Option<Self> {
        let needed = (width * height * 3) as usize;
        if bytes.len() < needed {
            return None;
        }
        Some(Image::from_raw(width, height, bytes[..needed].to_vec()))
    }

    /// Fraction of pixels (all three channels exact) that match `other`.
    ///
    /// Used as the image-recovery metric in the experiments.  Images of
    /// different dimensions score 0.
    pub fn pixel_recovery_rate(&self, other: &Image) -> f64 {
        if self.width != other.width || self.height != other.height {
            return 0.0;
        }
        let total = (self.width * self.height) as usize;
        if total == 0 {
            return 1.0;
        }
        let matching = self
            .pixels
            .chunks_exact(3)
            .zip(other.pixels.chunks_exact(3))
            .filter(|(a, b)| a == b)
            .count();
        matching as f64 / total as f64
    }

    /// Mean absolute per-channel error against `other` (0 = identical).
    ///
    /// Returns `None` if the dimensions differ.
    pub fn mean_absolute_error(&self, other: &Image) -> Option<f64> {
        if self.width != other.width || self.height != other.height {
            return None;
        }
        if self.pixels.is_empty() {
            return Some(0.0);
        }
        let sum: u64 = self
            .pixels
            .iter()
            .zip(other.pixels.iter())
            .map(|(a, b)| (*a as i64 - *b as i64).unsigned_abs())
            .sum();
        Some(sum as f64 / self.pixels.len() as f64)
    }

    /// Encodes the image as a binary PPM (`P6`) file.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.pixels);
        out
    }

    /// Decodes a binary PPM (`P6`) file.
    ///
    /// Returns `None` on malformed input.
    pub fn from_ppm(data: &[u8]) -> Option<Self> {
        let header_end = data.windows(1).enumerate().filter(|(_, w)| w[0] == b'\n');
        // Find the end of the third header line.
        let mut newlines = header_end.map(|(i, _)| i);
        let _magic_end = newlines.next()?;
        let _dims_end = newlines.next()?;
        let maxval_end = newlines.next()?;
        let header = std::str::from_utf8(&data[..maxval_end]).ok()?;
        let mut lines = header.lines();
        if lines.next()? != "P6" {
            return None;
        }
        let mut dims = lines.next()?.split_whitespace();
        let width: u32 = dims.next()?.parse().ok()?;
        let height: u32 = dims.next()?.parse().ok()?;
        if lines.next()? != "255" {
            return None;
        }
        let pixels = data.get(maxval_end + 1..)?;
        Image::reconstruct(width, height, pixels)
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} rgb image", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_produce_expected_sizes_and_values() {
        let c = Image::corrupted(8, 4);
        assert_eq!(c.width(), 8);
        assert_eq!(c.height(), 4);
        assert_eq!(c.as_bytes().len(), 8 * 4 * 3);
        assert!(c.as_bytes().iter().all(|&b| b == CORRUPTED_CHANNEL));

        let s = Image::profiling_sentinel(8, 4);
        assert!(s.as_bytes().iter().all(|&b| b == SENTINEL_CHANNEL));

        let photo = Image::sample_photo(16, 16);
        // A photo is not a solid colour.
        assert!(photo.as_bytes().iter().any(|&b| b != photo.as_bytes()[0]));
        assert_eq!(photo.to_string(), "16x16 rgb image");
        assert_eq!(photo.pixel(0, 0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "width * height * 3")]
    fn from_raw_rejects_wrong_length() {
        let _ = Image::from_raw(2, 2, vec![0u8; 5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_out_of_bounds_panics() {
        let _ = Image::corrupted(2, 2).pixel(2, 0);
    }

    #[test]
    fn reconstruct_requires_enough_bytes() {
        let img = Image::sample_photo(4, 4);
        let exact = Image::reconstruct(4, 4, img.as_bytes()).unwrap();
        assert_eq!(exact, img);
        // Extra trailing bytes are ignored.
        let mut longer = img.as_bytes().to_vec();
        longer.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Image::reconstruct(4, 4, &longer).unwrap(), img);
        // Too few bytes fail.
        assert!(Image::reconstruct(4, 4, &img.as_bytes()[..10]).is_none());
    }

    #[test]
    fn recovery_metrics() {
        let a = Image::sample_photo(8, 8);
        assert_eq!(a.pixel_recovery_rate(&a), 1.0);
        assert_eq!(a.mean_absolute_error(&a), Some(0.0));

        let b = Image::corrupted(8, 8);
        assert!(a.pixel_recovery_rate(&b) < 0.1);
        assert!(a.mean_absolute_error(&b).unwrap() > 0.0);

        // Dimension mismatch.
        let c = Image::corrupted(4, 4);
        assert_eq!(a.pixel_recovery_rate(&c), 0.0);
        assert!(a.mean_absolute_error(&c).is_none());
    }

    #[test]
    fn ppm_roundtrip() {
        let img = Image::sample_photo(7, 5);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n7 5\n255\n"));
        assert_eq!(Image::from_ppm(&ppm).unwrap(), img);
        assert!(Image::from_ppm(b"P5\n1 1\n255\n\0").is_none());
        assert!(Image::from_ppm(b"garbage").is_none());
    }

    #[test]
    fn into_bytes_returns_backing_buffer() {
        let img = Image::solid(2, 1, [1, 2, 3]);
        assert_eq!(img.clone().into_bytes(), vec![1, 2, 3, 1, 2, 3]);
    }

    proptest! {
        #[test]
        fn prop_solid_images_recover_perfectly(w in 1u32..32, h in 1u32..32, r in any::<u8>(), g in any::<u8>(), b in any::<u8>()) {
            let img = Image::solid(w, h, [r, g, b]);
            let rebuilt = Image::reconstruct(w, h, img.as_bytes()).unwrap();
            prop_assert_eq!(rebuilt.pixel_recovery_rate(&img), 1.0);
        }

        #[test]
        fn prop_ppm_roundtrip(w in 1u32..16, h in 1u32..16) {
            let img = Image::sample_photo(w, h);
            prop_assert_eq!(Image::from_ppm(&img.to_ppm()), Some(img));
        }
    }
}
