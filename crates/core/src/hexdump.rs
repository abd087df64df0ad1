//! Hexdump rendering and searching.
//!
//! The paper formats the scraped data "into rows of eight nibbles each" and
//! runs `hexdump` / `grep` over the result (Figures 11 and 12).  This module
//! reproduces that presentation: 16 bytes per row, rendered as eight groups of
//! four hex digits (two bytes per group, in byte order) followed by an ASCII
//! gutter, so string hits look exactly like the paper's
//! `6c73 2f72 6573 6e65 7435 305f 7074 2f72  ls/resnet50_pt/r`.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use std::fmt;

use zynq_dram::ScrapeView;

/// Bytes rendered per hexdump row.
pub const BYTES_PER_ROW: usize = 16;

/// One rendered hexdump row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HexRow {
    /// Byte offset of the row within the dump.
    pub offset: usize,
    /// The row's raw bytes (up to [`BYTES_PER_ROW`]).
    pub bytes: Vec<u8>,
}

impl HexRow {
    /// Renders the row as `hexdump`-style groups plus the ASCII gutter.
    pub fn render(&self) -> String {
        let mut groups = Vec::with_capacity(BYTES_PER_ROW / 2);
        for pair in self.bytes.chunks(2) {
            match pair {
                [a, b] => groups.push(format!("{a:02x}{b:02x}")),
                [a] => groups.push(format!("{a:02x}  ")),
                _ => unreachable!("chunks(2) yields 1- or 2-byte slices"),
            }
        }
        while groups.len() < BYTES_PER_ROW / 2 {
            groups.push("    ".to_string());
        }
        let ascii: String = self
            .bytes
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        format!("{:07x} {}  {}", self.offset, groups.join(" "), ascii)
    }
}

/// A hexdump of a byte buffer.
///
/// # Example
///
/// ```
/// use msa_core::hexdump::HexDump;
///
/// let dump = HexDump::new(b"ls/resnet50_pt/r".to_vec());
/// let hits = dump.grep("resnet50");
/// assert_eq!(hits.len(), 1);
/// assert!(hits[0].contains("resnet50_pt"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HexDump {
    bytes: Vec<u8>,
}

impl HexDump {
    /// Creates a hexdump over `bytes`.
    pub fn new(bytes: Vec<u8>) -> Self {
        HexDump { bytes }
    }

    /// The underlying bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of rows the rendering contains.
    pub fn row_count(&self) -> usize {
        self.bytes.len().div_ceil(BYTES_PER_ROW)
    }

    /// Iterates over the rows.
    pub fn rows(&self) -> impl Iterator<Item = HexRow> + '_ {
        self.bytes
            .chunks(BYTES_PER_ROW)
            .enumerate()
            .map(|(i, chunk)| HexRow {
                offset: i * BYTES_PER_ROW,
                bytes: chunk.to_vec(),
            })
    }

    /// Renders the full dump (one line per row).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in self.rows() {
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }

    /// Returns the rendered lines whose ASCII gutter contains `needle`
    /// (the paper's `grep "resnet50" 1391_hexdump.log` step).
    pub fn grep(&self, needle: &str) -> Vec<String> {
        self.rows()
            .filter(|row| {
                let ascii: String = row
                    .bytes
                    .iter()
                    .map(|&b| {
                        if (0x20..0x7f).contains(&b) {
                            b as char
                        } else {
                            '.'
                        }
                    })
                    .collect();
                ascii.contains(needle)
            })
            .map(|row| row.render())
            .collect()
    }

    /// Returns the byte offset of the first occurrence of `pattern`.
    pub fn find(&self, pattern: &[u8]) -> Option<usize> {
        ScrapeView::from_slice(&self.bytes).find(pattern)
    }

    /// Returns the 16-byte-row index of the first occurrence of `pattern`
    /// (the "row number 646768" style offset the paper profiles).
    pub fn find_row(&self, pattern: &[u8]) -> Option<usize> {
        self.find(pattern).map(|offset| offset / BYTES_PER_ROW)
    }
}

impl fmt::Display for HexDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn render_matches_paper_style() {
        // The exact byte sequence shown in the paper's Figure 11.
        let bytes = b"ls/resnet50_pt/r".to_vec();
        let dump = HexDump::new(bytes);
        let rendered = dump.render();
        assert!(rendered.contains("6c73 2f72 6573 6e65 7435 305f 7074 2f72"));
        assert!(rendered.contains("ls/resnet50_pt/r"));
        assert_eq!(dump.row_count(), 1);
    }

    #[test]
    fn corrupted_image_rows_render_as_ffff_groups() {
        let dump = HexDump::new(vec![0xFF; 32]);
        let rendered = dump.render();
        assert_eq!(dump.row_count(), 2);
        for line in rendered.lines() {
            assert!(line.contains("ffff ffff ffff ffff ffff ffff ffff ffff"));
        }
    }

    #[test]
    fn non_printable_bytes_render_as_dots() {
        let dump = HexDump::new(vec![0x00, 0x1f, b'A', 0x7f]);
        let line = dump.render();
        assert!(line.contains("..A."));
    }

    #[test]
    fn partial_rows_are_padded() {
        let dump = HexDump::new(vec![0x41; 3]);
        let line = dump.rows().next().unwrap().render();
        assert!(line.contains("4141 41"));
        assert!(line.ends_with("AAA"));
    }

    #[test]
    fn grep_finds_only_matching_rows() {
        let mut bytes = vec![0u8; 64];
        bytes.extend_from_slice(b"models/resnet50_pt/model");
        bytes.extend_from_slice(&[0u8; 40]);
        let dump = HexDump::new(bytes);
        let hits = dump.grep("resnet50");
        assert_eq!(hits.len(), 1);
        assert!(dump.grep("squeezenet").is_empty());
    }

    #[test]
    fn find_and_find_row() {
        let mut bytes = vec![0u8; 100];
        bytes[37..41].copy_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let dump = HexDump::new(bytes);
        assert_eq!(dump.find(&[0xDE, 0xAD, 0xBE, 0xEF]), Some(37));
        assert_eq!(dump.find_row(&[0xDE, 0xAD, 0xBE, 0xEF]), Some(2));
        assert!(dump.find(&[1, 2, 3]).is_none());
        assert!(dump.find(&[]).is_none());
        assert!(dump.find(&[0u8; 200]).is_none());
    }

    #[test]
    fn display_is_render() {
        let dump = HexDump::new(b"hi".to_vec());
        assert_eq!(dump.to_string(), dump.render());
        assert_eq!(dump.as_bytes(), b"hi");
    }

    proptest! {
        #[test]
        fn prop_row_count_matches_length(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let dump = HexDump::new(bytes.clone());
            prop_assert_eq!(dump.row_count(), bytes.len().div_ceil(BYTES_PER_ROW));
            prop_assert_eq!(dump.rows().count(), dump.row_count());
        }

        #[test]
        fn prop_find_locates_planted_pattern(prefix in 0usize..128, pattern in proptest::collection::vec(1u8..255, 4..8)) {
            let mut bytes = vec![0u8; prefix];
            bytes.extend_from_slice(&pattern);
            let dump = HexDump::new(bytes);
            let found = dump.find(&pattern).unwrap();
            prop_assert!(found <= prefix);
        }
    }
}
